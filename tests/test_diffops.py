import copy
import dataclasses
import pickle

import numpy as np
import pytest

from surfrec import (
    DiffMatrix, DimensionError, GradientField, Surface, apply_dx, apply_dy, diff_matrix,
)


def reference_entries(n, h, order):
    """The stencil matrix written out row by row: centered rows inside, one-sided
    and offset rows of the same order at the ends, divided by h."""
    if order == 2:
        ends, centre, scale = [(-3, 4, -1)], (-1, 0, 1), 2.0
    else:
        ends, centre, scale = [(-25, 48, -36, 16, -3), (-3, -10, 18, -6, 1)], (1, -8, 0, 8, -1), 12.0
    d = np.zeros((n, n))
    width, half = len(ends[0]), len(centre) // 2
    for i in range(n):
        if i < len(ends):
            d[i, :width] = np.array(ends[i]) / scale
        elif i >= n - len(ends):
            # the end rows mirrored and negated: J D J = -D
            d[i, -width:] = -np.array(ends[n - 1 - i][::-1]) / scale
        else:
            d[i, i - half:i + half + 1] = np.array(centre) / scale
    return d / h


class TestDiffMatrix:
    def test_order2_three_point_matrix(self):
        d = diff_matrix(3, 1.0, 2)
        expected = 0.5 * np.array([[-3.0, 4.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -4.0, 3.0]])
        assert np.allclose(d.entries, expected, atol=1e-15)

    def test_order4_boundary_and_centre_rows(self):
        d = diff_matrix(5, 1.0, 4)
        assert np.allclose(d.entries[0], np.array([-25, 48, -36, 16, -3]) / 12.0, atol=1e-15)
        assert np.allclose(d.entries[2], np.array([1, -8, 0, 8, -1]) / 12.0, atol=1e-15)
        # offset rows next to the ends
        assert np.allclose(d.entries[1], np.array([-3, -10, 18, -6, 1]) / 12.0, atol=1e-15)
        assert np.allclose(d.entries[3], np.array([-1, 6, -18, 10, 3]) / 12.0, atol=1e-15)

    @pytest.mark.parametrize("n,h,order", [(3, 1.0, 2), (9, 0.25, 2), (5, 1.0, 4), (16, 2.0, 4)])
    def test_annihilates_constants(self, n, h, order):
        d = diff_matrix(n, h, order)
        bound = 1e-12 * np.max(np.abs(d.entries))
        assert np.max(np.abs(d.entries @ np.ones(n))) <= bound

    def test_parabola_derivative_exact(self):
        d = diff_matrix(7, 0.5, 2)
        x = 0.5 * np.arange(7)
        assert np.max(np.abs(d.entries @ x**2 - 2 * x)) <= 1e-12

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("n", [8, 32, 64])
    @pytest.mark.parametrize("h", [0.1, 1.0, 10.0])
    def test_polynomial_exactness(self, order, n, h):
        # exact differentiation of every monomial up to the stencil order,
        # relative to the derivative's own scale
        d = diff_matrix(n, h, order)
        x = h * np.arange(n)
        for k in range(order + 1):
            deriv = k * x ** (k - 1) if k > 0 else np.zeros(n)
            err = np.max(np.abs(d.entries @ x**k - deriv))
            assert err <= 1e-9 * max(1.0, np.max(np.abs(deriv)))

    @pytest.mark.parametrize("n,order", [(12, 2), (12, 4), (33, 2)])
    def test_rank_deficiency_is_one(self, n, order):
        svals = np.linalg.svd(diff_matrix(n, 1.0, order).entries, compute_uv=False)
        assert np.count_nonzero(svals < 1e-10 * svals[0]) == 1

    @pytest.mark.parametrize("h", [0.25, 3.0])
    @pytest.mark.parametrize("n,order", [(9, 2), (9, 4)])
    def test_spacing_scales_entries_exactly(self, h, n, order):
        scaled = diff_matrix(n, h, order).entries
        unit = diff_matrix(n, 1.0, order).entries
        assert np.array_equal(scaled, unit / h)

    @pytest.mark.parametrize("n,order", [(5, 2), (9, 2), (5, 4), (12, 4), (64, 4)])
    def test_left_product_matches_dense_multiply(self, n, order):
        rng = np.random.default_rng(8)
        d = diff_matrix(n, 0.37, order)
        mat = rng.standard_normal((n, 7))
        assert np.max(np.abs(d.left_product(mat) - d.entries @ mat)) <= 1e-12

    @pytest.mark.parametrize("transposed", [False, True], ids=["rows", "transposed-view"])
    def test_order_two_interior_equals_the_difference_expression_bitwise(self, transposed):
        rng = np.random.default_rng(9)
        d = diff_matrix(40, 0.37, 2)
        mat = rng.standard_normal((24, 40)).T if transposed else rng.standard_normal((40, 24))
        want = (mat[2:] - mat[:-2]) * (0.5 / d.h)
        assert np.array_equal(d.left_product(mat)[1:-1], want)

    def test_too_few_nodes(self):
        with pytest.raises(DimensionError):
            diff_matrix(2, 1.0, 2)
        with pytest.raises(DimensionError):
            diff_matrix(4, 1.0, 4)

    def test_bad_spacing_and_order(self):
        with pytest.raises(ValueError):
            diff_matrix(5, 0.0, 2)
        with pytest.raises(ValueError):
            diff_matrix(5, -1.0, 2)
        with pytest.raises(ValueError):
            diff_matrix(5, np.array([1.0, 2.0]), 2)
        with pytest.raises(ValueError):
            diff_matrix(5, 1.0, 3)


class TestOperatorValue:
    """(n, h, order) is the operator's whole state."""

    @pytest.mark.parametrize("n", [5.5, 5.0, True, np.float64(6.0), "5"],
                             ids=["fraction", "float", "bool", "numpy-float", "str"])
    def test_node_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="node count must be an integer"):
            diff_matrix(n, 1.0, 2)

    @pytest.mark.parametrize("order", [2.0, 4.0, True, np.float64(2.0), "2"],
                             ids=["float-2", "float-4", "bool", "numpy-float", "str"])
    def test_order_must_be_an_integer(self, order):
        with pytest.raises(ValueError, match="order must be an integer"):
            diff_matrix(5, 1.0, order)

    @pytest.mark.parametrize("order", [0, 1, 3, 6])
    def test_order_must_be_two_or_four(self, order):
        with pytest.raises(ValueError, match="order must be one of"):
            diff_matrix(9, 1.0, order)

    @pytest.mark.parametrize("n", [3, 4])
    def test_order_four_needs_five_nodes_at_construction(self, n):
        with pytest.raises(DimensionError, match="at least 5 nodes"):
            DiffMatrix(n, 1.0, 4)

    def test_numpy_scalars_are_stored_as_python_scalars(self):
        d = diff_matrix(np.int64(6), np.float32(0.5), np.int32(4))
        assert (type(d.n), type(d.h), type(d.order)) == (int, float, int)
        assert d == diff_matrix(6, 0.5, 4)

    def test_fields_are_the_whole_state(self):
        assert [f.name for f in dataclasses.fields(DiffMatrix)] == ["n", "h", "order"]
        with pytest.raises(TypeError):
            DiffMatrix(entries=np.zeros((5, 5)), h=1.0, order=2)
        d = diff_matrix(5, 1.0, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.entries = np.zeros((5, 5))
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.h = 2.0

    def test_entries_are_read_only(self):
        d = diff_matrix(5, 1.0, 2)
        assert not d.entries.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            d.entries[0, 0] = 99.0
        assert d.entries[0, 0] == -1.5

    def test_equality_and_hash_follow_the_three_fields(self):
        d = diff_matrix(8, 0.5, 2)
        twin = DiffMatrix(8, 0.5, 2)
        assert d is not twin and d == twin and hash(d) == hash(twin)
        assert len({d, twin}) == 1
        others = [diff_matrix(9, 0.5, 2), diff_matrix(8, 0.25, 2), diff_matrix(8, 0.5, 4)]
        assert all(d != other for other in others)
        assert len({d, *others}) == 4

    def test_replace_and_copies_rebuild_the_matrix(self):
        d = diff_matrix(9, 0.5, 4)
        rescaled = dataclasses.replace(d, h=0.25)
        assert np.array_equal(rescaled.entries, reference_entries(9, 0.25, 4))
        for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert twin == d and twin.entries is not d.entries
            assert np.array_equal(twin.entries, d.entries)
            assert not twin.entries.flags.writeable

    @pytest.mark.parametrize("h", [0.1, 0.7, 1.0, 3.0])
    @pytest.mark.parametrize("n,order", [
        (n, order) for order in (2, 4) for n in (3, 4, 5, 6, 7, 64, 511, 512) if n > order
    ])
    def test_entries_are_the_stencil_formula_bitwise(self, n, order, h):
        assert np.array_equal(diff_matrix(n, h, order).entries, reference_entries(n, h, order))


class TestApply:
    def test_constant_surface_zero_gradient(self):
        z = np.full((5, 7), 3.25)
        dx = diff_matrix(7, 1.0, 2)
        dy = diff_matrix(5, 1.0, 2)
        assert np.max(np.abs(apply_dx(z, dx))) <= 1e-13
        assert np.max(np.abs(apply_dy(z, dy))) <= 1e-13

    def test_linear_ramps(self):
        x = np.arange(5.0)
        xg, yg = np.meshgrid(x, x)
        d = diff_matrix(5, 1.0, 2)
        assert np.allclose(apply_dx(xg, d), 1.0, atol=1e-13)
        assert np.allclose(apply_dy(yg, d), 1.0, atol=1e-13)

    def test_apply_dx_matches_triple_loop(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 6))
        d = diff_matrix(6, 0.7, 2)
        got = apply_dx(z, d)
        # oracle: Z @ D.T entry by entry
        want = np.zeros((4, 6))
        for i in range(4):
            for j in range(6):
                for k in range(6):
                    want[i, j] += z[i, k] * d.entries[j, k]
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_apply_dy_matches_triple_loop(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((6, 4))
        d = diff_matrix(6, 1.3, 2)
        got = apply_dy(z, d)
        want = np.zeros((6, 4))
        for i in range(6):
            for j in range(4):
                for k in range(6):
                    want[i, j] += d.entries[i, k] * z[k, j]
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_mixed_partials_commute(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((8, 10))
        dx = diff_matrix(10, 0.5, 2)
        dy = diff_matrix(8, 0.5, 4)
        assert np.max(np.abs(apply_dy(apply_dx(z, dx), dy)
                             - apply_dx(apply_dy(z, dy), dx))) <= 1e-12

    def test_dimension_mismatch(self):
        z = np.zeros((4, 6))
        with pytest.raises(DimensionError):
            apply_dx(z, diff_matrix(4, 1.0, 2))
        with pytest.raises(DimensionError):
            apply_dy(z, diff_matrix(6, 1.0, 2))

    def test_accepts_surface_objects(self):
        z = Surface(np.ones((3, 3)))
        assert np.max(np.abs(apply_dx(z, diff_matrix(3, 1.0, 2)))) <= 1e-14


class TestGrids:
    def test_surface_validation(self):
        with pytest.raises(ValueError):
            Surface(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            Surface(np.ones((3, 3)), hx=0.0)
        with pytest.raises(DimensionError):
            Surface(np.ones(4))

    def test_gradient_field_validation(self):
        with pytest.raises(DimensionError):
            GradientField(np.ones((3, 4)), np.ones((4, 3)))
        with pytest.raises(ValueError):
            GradientField(np.ones((3, 3)), np.full((3, 3), np.inf))

    def test_mean_free(self):
        z = Surface(np.arange(12.0).reshape(3, 4))
        assert abs(z.mean_free().heights.mean()) <= 1e-15

    def test_operators_match_grid(self):
        g = GradientField(np.zeros((5, 7)), np.zeros((5, 7)), hx=0.5, hy=0.25)
        dx, dy = g.operators(2)
        assert dx.n == 7 and dy.n == 5
        assert dx.h == 0.5 and dy.h == 0.25

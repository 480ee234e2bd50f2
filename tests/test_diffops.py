import numpy as np
import pytest

from surfrec import DimensionError, GradientField, Surface, apply_dx, apply_dy, diff_matrix


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

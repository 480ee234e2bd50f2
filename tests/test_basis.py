import numpy as np
import pytest

from surfrec import (
    BasisSet, DimensionError, GradientField, Spectral, cosine_basis, diff_matrix, gram_basis,
    haar_basis, make_basis, reconstruct,
)
from surfrec.simulate import bump_surface, default_bump_spec

FAMILIES = [cosine_basis, gram_basis, haar_basis]


class TestCosine:
    def test_orthonormal_4x4(self):
        b = cosine_basis(4, 4).entries
        assert np.max(np.abs(b.T @ b - np.eye(4))) <= 1e-12

    def test_constant_column(self):
        b = cosine_basis(9, 3)
        assert np.allclose(b.entries[:, 0], 1 / 3.0, atol=1e-14)

    def test_expansion_of_single_mode(self):
        b = cosine_basis(8, 8)
        coeff = b.entries.T @ b.entries[:, 3]
        expected = np.zeros(8)
        expected[3] = 1.0
        assert np.max(np.abs(coeff - expected)) <= 1e-12


class TestGram:
    def test_orthonormal_5x3(self):
        b = gram_basis(5, 3).entries
        assert np.max(np.abs(b.T @ b - np.eye(3))) <= 1e-10

    def test_linear_column_is_odd_ramp(self):
        col = gram_basis(7, 2).entries[:, 1]
        assert np.max(np.abs(col + col[::-1])) <= 1e-12
        assert np.all(np.diff(col) > 0) or np.all(np.diff(col) < 0)

    def test_quadratic_expansion_terminates(self):
        b = gram_basis(6, 6)
        x = np.linspace(-1, 1, 6)
        coeff = b.entries.T @ x**2
        assert np.max(np.abs(coeff[3:])) <= 1e-10

    def test_degree_property(self):
        # column k is orthogonal to every sampled monomial of lower degree
        n = 14
        b = gram_basis(n, 7)
        x = np.linspace(-1, 1, n)
        for k in range(1, 7):
            for j in range(k):
                assert abs(b.entries[:, k] @ x**j) <= 1e-9

    def test_large_n_stays_orthonormal(self):
        b = gram_basis(400, 60).entries
        assert np.max(np.abs(b.T @ b - np.eye(60))) <= 1e-10

    def test_stays_orthonormal_at_2048_nodes(self):
        b = gram_basis(2048, 1024).entries
        assert np.max(np.abs(b.T @ b - np.eye(1024))) <= 1e-11


class TestHaar:
    def test_known_columns_n4(self):
        b = haar_basis(4, 4).entries
        expected = np.array([
            [0.5, 0.5, 0.5, 0.5],
            [0.5, 0.5, -0.5, -0.5],
            [1 / np.sqrt(2), -1 / np.sqrt(2), 0, 0],
            [0, 0, 1 / np.sqrt(2), -1 / np.sqrt(2)],
        ]).T
        assert np.max(np.abs(b - expected)) <= 1e-14

    def test_orthonormal(self):
        b = haar_basis(16, 16).entries
        assert np.max(np.abs(b.T @ b - np.eye(16))) <= 1e-12

    def test_step_function_has_no_second_half_details(self):
        # a step supported on the first half excites no fine-scale functions
        # living entirely on the second half
        b = haar_basis(8, 8)
        f = np.array([1.0, 2.0, -1.0, 0.5, 0, 0, 0, 0])
        coeff = b.entries.T @ f
        second_half_support = [k for k in range(8)
                               if np.all(b.entries[:4, k] == 0)]
        assert second_half_support  # sanity: such columns exist
        assert np.max(np.abs(coeff[second_half_support])) <= 1e-14

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            haar_basis(6, 4)


def _haar_by_levels(n, p):
    """Haar columns built level by level, coarse to fine, with an explicit
    column counter: the construction that ``haar_basis``'s one loop over the
    columns replaced, kept as its reference."""
    b = np.zeros((n, p))
    b[:, 0] = 1.0 / np.sqrt(n)
    col = 1
    level = 0
    while col < p:
        width = n >> level
        for shift in range(1 << level):
            if col >= p:
                break
            start = shift * width
            half = width // 2
            amp = np.sqrt(1.0 / width)
            b[start:start + half, col] = amp
            b[start + half:start + width, col] = -amp
            col += 1
        level += 1
    return b


HAAR_SWEEP = sorted({(n, p) for n in (2 ** k for k in range(11))
                     for p in (1, 2, 3, n // 2, n - 1, n) if 1 <= p <= n})


@pytest.mark.parametrize("n,p", HAAR_SWEEP)
def test_haar_matches_level_by_level_construction(n, p):
    assert np.array_equal(haar_basis(n, p).entries, _haar_by_levels(n, p))


@pytest.mark.parametrize("build", [cosine_basis, gram_basis], ids=["cosine", "gram"])
def test_basis_layout_does_not_change_a_spectral_solve(build):
    # an F-ordered copy is stored C-ordered, so the solve rounds exactly as
    # with the original; kept in F order, this grid's surface moved by an ulp
    rng = np.random.default_rng(5)
    g = GradientField(rng.standard_normal((24, 20)), rng.standard_normal((24, 20)))
    dx, dy = g.operators(2)
    by, bx = build(24, 12), build(20, 10)
    f_by, f_bx = (BasisSet(np.asfortranarray(b.entries), b.family) for b in (by, bx))
    assert f_by.entries.flags.c_contiguous and f_bx.entries.flags.c_contiguous
    assert by.subset([0, 2, 3]).entries.flags.c_contiguous
    z = reconstruct(g, dx, dy, Spectral(by, bx)).heights
    assert np.array_equal(reconstruct(g, dx, dy, Spectral(f_by, f_bx)).heights, z)


def test_c_ordered_entries_are_kept_not_copied():
    entries = cosine_basis(6, 3).entries
    assert BasisSet(entries, "cosine").entries is entries


@pytest.mark.parametrize("build", [cosine_basis, gram_basis], ids=["cosine", "gram"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 2048])
def test_parity_is_exact(build, n):
    b = build(n, n if n < 100 else n // 2).entries
    sign = (-1.0) ** np.arange(b.shape[1])
    assert np.array_equal(b[::-1], b * sign)


@pytest.mark.parametrize("build", [cosine_basis, gram_basis], ids=["cosine", "gram"])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n", [7, 8, 101, 512, 1019])
def test_stencil_product_keeps_parity_bitwise(build, order, n):
    # D flips column k's parity (-1)^k exactly, the fact sylvester.factor
    # reads off a spectral block to split its Gram
    b = build(n, n if n < 600 else n // 2).entries
    a = diff_matrix(n, 0.7, order).left_product(b)
    sign = -(-1.0) ** np.arange(b.shape[1])
    assert np.array_equal(a[::-1], a * sign)


@pytest.mark.parametrize("build", FAMILIES)
def test_completeness(build):
    n = 16
    rng = np.random.default_rng(11)
    f = rng.standard_normal(n)
    b = build(n, n).entries
    assert np.max(np.abs(b @ (b.T @ f) - f)) <= 1e-9


@pytest.mark.parametrize("build", FAMILIES)
def test_truncation_is_orthogonal_projection(build):
    n, p = 16, 5
    rng = np.random.default_rng(12)
    f = rng.standard_normal(n)
    b = build(n, p).entries
    best, *_ = np.linalg.lstsq(b, f, rcond=None)
    assert np.max(np.abs(b @ best - b @ (b.T @ f))) <= 1e-10


@pytest.mark.parametrize("build", FAMILIES)
def test_count_validation(build):
    with pytest.raises(ValueError):
        build(8, 0)
    with pytest.raises(ValueError):
        build(8, 9)


@pytest.mark.parametrize("build", FAMILIES)
@pytest.mark.parametrize("n,p", [
    (16, 2.5), (16.9, 3), (16.0, 4), (True, 1), (16, True), ("16", 4),
])
def test_counts_must_be_integers(build, n, p):
    with pytest.raises(ValueError, match="must be an integer"):
        build(n, p)


@pytest.mark.parametrize("build", FAMILIES)
def test_numpy_integer_counts_are_accepted(build):
    got = build(np.int64(16), np.int32(5)).entries
    assert np.array_equal(got, build(16, 5).entries)


def test_subset_tracks_original_columns():
    b = cosine_basis(8, 8)
    s = b.subset([0, 2, 5])
    assert s.columns == (0, 2, 5)
    assert s.p == 3
    assert np.array_equal(s.entries[:, 1], b.entries[:, 2])
    dropped = s.drop([0])
    assert dropped.columns == (2, 5)


def test_subset_validation():
    b = cosine_basis(8, 4)
    with pytest.raises(ValueError):
        b.subset([])
    with pytest.raises(ValueError):
        b.subset([4])
    with pytest.raises(ValueError, match=r"repeated: \[1\]"):
        cosine_basis(12, 6).subset([0, 1, 1, 2])
    with pytest.raises(ValueError):
        b.drop([-1])
    with pytest.raises(ValueError):
        b.drop([4])


@pytest.mark.parametrize("method,cols", [
    ("drop", [0.5]), ("drop", [True]), ("drop", [1.0]),
    ("subset", [0.0, 1.0]), ("subset", [1.5]), ("subset", [True, True]),
])
def test_positions_must_be_integers(method, cols):
    with pytest.raises(ValueError, match="column position must be an integer"):
        getattr(cosine_basis(8, 4), method)(cols)


def test_numpy_integer_positions_are_accepted():
    b = cosine_basis(8, 4)
    assert b.subset(np.array([0, 2])).columns == (0, 2)
    assert b.drop([np.int64(1)]).columns == (0, 2, 3)


@pytest.mark.parametrize("entries", [np.ones(5), np.ones((2, 2, 2)), np.zeros((0, 0)),
                                     np.zeros((4, 0))],
                         ids=["1-d", "3-d", "0x0", "no-columns"])
def test_constructor_refuses_malformed_shapes(entries):
    with pytest.raises(DimensionError, match="entries"):
        BasisSet(entries, "cosine")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructor_refuses_non_finite_entries(bad):
    entries = cosine_basis(6, 3).entries.copy()
    entries[2, 1] = bad
    for matrix in (entries, np.full((4, 2), bad)):
        with pytest.raises(ValueError, match="entries contains non-finite"):
            BasisSet(matrix, "cosine")


def test_constructor_refuses_repeated_labels():
    entries = cosine_basis(6, 3).entries
    with pytest.raises(ValueError, match=r"labels repeated: \[0\]"):
        BasisSet(entries[:, :2], "cosine", columns=(0, 0))
    with pytest.raises(ValueError, match=r"labels repeated: \[1, 4\]"):
        BasisSet(np.hstack([entries, entries[:, :1]]), "cosine", columns=(4, 1, 1, 4))
    assert BasisSet(entries, "cosine", columns=(0, 2, 5)).columns == (0, 2, 5)
    with pytest.raises(ValueError, match="does not match entry matrix width"):
        BasisSet(entries, "cosine", columns=(0, 2))


def test_constructor_refuses_a_non_constant_column_labelled_zero():
    # a spectral solve takes column 0 as the constant that D annihilates: an
    # unchecked label made a random orthonormal basis's surface 74 % wrong
    q = np.linalg.qr(np.random.default_rng(3).standard_normal((16, 8)))[0]
    const = np.full(16, 0.25)
    nudged = const.copy()
    nudged[7] = np.nextafter(0.25, 1.0)
    for bad, columns in ((q, ()), (np.column_stack([q[:, 1:], nudged]), (1, 2, 3, 4, 5, 6, 7, 0)),
                         (np.column_stack([np.zeros(16), q[:, 1:]]), ())):
        with pytest.raises(ValueError, match="labelled 0"):
            BasisSet(bad, "custom", columns=columns)
    assert BasisSet(np.column_stack([-const, q[:, 1:]]), "custom").columns == tuple(range(8))
    # labelled without 0, the same columns solve as the dense fit over the basis
    basis = BasisSet(q, "custom", columns=tuple(range(1, 9)))
    _, g = bump_surface(default_bump_spec(16, 16))
    dx, dy = g.operators(2)
    z = reconstruct(g, dx, dy, Spectral(basis, basis)).heights
    kron = np.kron(q, q)  # vec(Q C Q.T) = kron(Q, Q) vec(C), vec stacking columns
    coeff = np.vstack([np.kron(dx.entries, np.eye(16)) @ kron, np.kron(np.eye(16), dy.entries) @ kron])
    rhs = np.concatenate([g.zx.ravel(order="F"), g.zy.ravel(order="F")])
    want = (kron @ np.linalg.lstsq(coeff, rhs, rcond=None)[0]).reshape(16, 16, order="F")
    assert np.linalg.norm(z - want) <= 1e-10 * np.linalg.norm(want)


def test_make_basis_dispatch():
    assert make_basis("gram", 6, 3).family == "gram"
    with pytest.raises(ValueError):
        make_basis("fourier", 6, 3)

import numpy as np
import pytest

from surfrec import cosine_basis, gram_basis, haar_basis, make_basis

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


def test_make_basis_dispatch():
    assert make_basis("gram", 6, 3).family == "gram"
    with pytest.raises(ValueError):
        make_basis("fourier", 6, 3)

import numpy as np
import pytest

from surfrec import (
    Dirichlet, DimensionError, Factorization, Gls, GradientField, LCurveTikhonov,
    SingularSystemError, Spectral, SylvesterSystem, Tikhonov, Weighted, assemble, build_cache,
    cosine_basis, diff_matrix, gram_basis, haar_basis, radial_covariance_set, solve, sym_sqrt,
    work_estimate,
)
from surfrec.simulate import run_method
from surfrec.sylvester import _eigh_pair, factor


def kron_sylvester_solve(p, q, c):
    """Oracle: eliminate P X + X Q = C as one dense (mn)x(mn) linear system."""
    m, n = c.shape
    coeff = np.kron(np.eye(n), p) + np.kron(q.T, np.eye(m))
    return np.linalg.solve(coeff, c.ravel(order="F")).reshape(c.shape, order="F")


def kron_minnorm_lstsq(a, b, f, g):
    """Oracle: minimum-norm least squares of the stacked normal-equation system."""
    m, n = a.shape[1], b.shape[1]
    coeff = np.vstack([np.kron(np.eye(n), a), np.kron(b, np.eye(m))])
    rhs = np.concatenate([f.ravel(order="F"), g.ravel(order="F")])
    sol, *_ = np.linalg.lstsq(coeff, rhs, rcond=None)
    return sol.reshape((m, n), order="F")


def system_for(a, b, c):
    """A system without null vectors whose normal equations read
    P X + X Q = C with P = A.T A and Q = B.T B (A of full column rank)."""
    return SylvesterSystem(a=a, b=b, f=np.linalg.pinv(a.T) @ c,
                           g=np.zeros((c.shape[0], b.shape[0])))


class TestSolveFullRank:
    def test_diagonal_closed_form(self):
        a = np.diag(np.sqrt([2.0, 3.0]))
        b = np.diag([1.0, 2.0])
        x = solve(system_for(a, b, np.ones((2, 2))))
        assert np.allclose(x, [[1 / 3, 1 / 6], [1 / 4, 1 / 7]], atol=1e-14)

    def test_identity_coefficients(self):
        c = np.arange(6.0).reshape(2, 3)
        assert np.allclose(solve(system_for(np.eye(2), np.eye(3), c)), c / 2, atol=1e-14)

    @pytest.mark.parametrize("m,n,seed", [(6, 8, 0), (8, 6, 1), (7, 7, 2)])
    def test_matches_kronecker_oracle(self, m, n, seed):
        rng = np.random.default_rng(seed)
        a = np.vstack([rng.standard_normal((m + 2, m)), np.sqrt(0.5) * np.eye(m)])
        b = np.vstack([rng.standard_normal((n + 1, n)), np.sqrt(0.5) * np.eye(n)])
        p = a.T @ a
        q = b.T @ b
        c = rng.standard_normal((m, n))
        x = solve(system_for(a, b, c))
        want = kron_sylvester_solve(p, q, c)
        assert np.max(np.abs(x - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))
        assert np.linalg.norm(p @ x + x @ q - c) <= 1e-8 * np.linalg.norm(c)

    def test_singular_pencil_rejected(self):
        d = diff_matrix(6, 1.0, 2).entries  # a null vector on both sides
        system = SylvesterSystem(a=d, b=d.copy(), f=np.ones((6, 6)), g=np.ones((6, 6)))
        with pytest.raises(SingularSystemError, match="smallest eigenvalue pair"):
            solve(system)


class TestSymSqrt:
    def test_identity(self):
        root, inv_root = sym_sqrt(np.eye(4))
        assert np.allclose(root, np.eye(4), atol=1e-12)
        assert np.allclose(inv_root, np.eye(4), atol=1e-12)

    def test_diagonal(self):
        root, inv_root = sym_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(root, np.diag([2.0, 3.0]), atol=1e-13)
        assert np.allclose(inv_root, np.diag([0.5, 1 / 3]), atol=1e-13)

    def test_random_spd_self_consistency(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 8))
        mat = a.T @ a + np.eye(8)
        root, inv_root = sym_sqrt(mat)
        assert np.max(np.abs(root @ root - mat)) <= 1e-10 * np.max(np.abs(mat))
        assert np.max(np.abs(inv_root @ mat @ inv_root - np.eye(8))) <= 1e-9
        assert np.max(np.abs(root - root.T)) == 0.0

    def test_rejects_indefinite_and_asymmetric(self):
        with pytest.raises(SingularSystemError):
            sym_sqrt(np.diag([1.0, -2.0]))
        with pytest.raises(ValueError):
            sym_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestWorkEstimate:
    def test_sylvester_count_at_spot_value(self):
        m = n = 2
        want = (5.0 * m**3) / 3.0 + 10.0 * n**3 + 5.0 * m**2 * n + (5.0 * m * n**2) / 2.0
        assert work_estimate(2, 2, "sylvester") == want
        assert work_estimate(2, 2, "sylvester") == pytest.approx(460.0 / 3.0)

    def test_vectorized_count(self):
        assert work_estimate(2, 2, "vectorized") == 41.0 * 64
        assert work_estimate(3, 5, "vectorized") == 41.0 * 27 * 125

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_spectral_truncation_ratio_exact(self, k):
        full = work_estimate(64, 48, "sylvester")
        assert work_estimate(64, 48, "spectral", truncation_level=k) == full / 8.0**k

    def test_validation(self):
        with pytest.raises(ValueError):
            work_estimate(0, 2)
        with pytest.raises(ValueError):
            work_estimate(2, 2, "fft")


def gls_system(g, dx, dy):
    return SylvesterSystem(a=dy.entries, b=dx.entries, f=g.zy, g=g.zx,
                           u=np.ones(g.m), v=np.ones(g.n))


class TestSolveDeflated:
    def test_recovers_quadratic_surface(self):
        n = 11
        x = np.linspace(-1, 1, n)
        xg, yg = np.meshgrid(x, x)
        z = xg**2 + yg**2
        h = x[1] - x[0]
        g = GradientField(2 * xg, 2 * yg, h, h)
        dx, dy = g.operators(2)
        phi = solve(gls_system(g, dx, dy))
        assert np.max(np.abs((phi - phi.mean()) - (z - z.mean()))) <= 1e-8

    def test_solution_is_mean_free(self):
        rng = np.random.default_rng(9)
        g = GradientField(rng.standard_normal((6, 8)), rng.standard_normal((6, 8)))
        dx, dy = g.operators(2)
        phi = solve(gls_system(g, dx, dy))
        assert abs(np.ones(6) @ phi @ np.ones(8)) <= 1e-8 * 6 * 8 * np.max(np.abs(phi))

    def test_matches_minnorm_kronecker_oracle(self):
        rng = np.random.default_rng(10)
        g = GradientField(rng.standard_normal((6, 8)), rng.standard_normal((6, 8)))
        dx, dy = g.operators(2)
        system = gls_system(g, dx, dy)
        phi = solve(system)
        want = kron_minnorm_lstsq(system.a, system.b, system.f, system.g)
        # both paths pin the component along the null direction to zero
        assert np.max(np.abs(phi - want)) <= 1e-7

    def test_residual_contract(self):
        rng = np.random.default_rng(11)
        g = GradientField(rng.standard_normal((9, 7)), rng.standard_normal((9, 7)))
        dx, dy = g.operators(4)
        system = gls_system(g, dx, dy)
        phi = solve(system)
        assert system.residual(phi) <= 1e-7 * np.linalg.norm(system.rhs())

    def test_null_direction_leaves_residual_unchanged(self):
        rng = np.random.default_rng(12)
        g = GradientField(rng.standard_normal((5, 6)), rng.standard_normal((5, 6)))
        dx, dy = g.operators(2)
        system = gls_system(g, dx, dy)
        phi = solve(system)
        shifted = phi + 3.7 * np.outer(system.u, system.v)
        assert abs(system.residual(phi) - system.residual(shifted)) <= 1e-9 * (
            1.0 + np.linalg.norm(system.rhs()))

    def test_stationarity_in_coordinate_directions(self):
        # central differences of the quadratic cost vanish at the solution
        rng = np.random.default_rng(13)
        g = GradientField(rng.standard_normal((7, 9)), rng.standard_normal((7, 9)))
        dx, dy = g.operators(2)
        system = gls_system(g, dx, dy)
        phi = solve(system)
        scale = np.linalg.norm(system.f) ** 2 + np.linalg.norm(system.g) ** 2
        step = 1e-4 * max(1.0, np.max(np.abs(phi)))
        for _ in range(20):
            i = rng.integers(0, 7)
            j = rng.integers(0, 9)
            bump = np.zeros_like(phi)
            bump[i, j] = step
            diff = (system.cost(phi + bump) - system.cost(phi - bump)) / (2 * step)
            assert abs(diff) <= 1e-5 * scale

    def test_rank_deficient_block_detected(self):
        # an "operator" with a two-dimensional null space is not a proper
        # differentiation matrix; the solve must refuse it
        d = diff_matrix(6, 1.0, 2).entries.copy()
        extra = np.arange(6.0) - 2.5
        d = d @ (np.eye(6) - np.outer(extra, extra) / (extra @ extra))
        rng = np.random.default_rng(15)
        system = SylvesterSystem(a=d, b=d.copy(), f=rng.standard_normal((6, 6)),
                                 g=rng.standard_normal((6, 6)),
                                 u=np.ones(6), v=np.ones(6))
        with pytest.raises(SingularSystemError):
            solve(system)


class TestSylvesterSystem:
    def test_dimension_validation(self):
        rng = np.random.default_rng(16)
        with pytest.raises(DimensionError):
            SylvesterSystem(a=rng.standard_normal((5, 4)), b=rng.standard_normal((6, 3)),
                            f=rng.standard_normal((5, 4)), g=rng.standard_normal((4, 6)))

    def test_null_vector_validation(self):
        d = diff_matrix(5, 1.0, 2)
        g = GradientField(np.ones((5, 5)), np.ones((5, 5)))
        with pytest.raises(ValueError):
            SylvesterSystem(a=d.entries, b=d.entries, f=g.zy, g=g.zx,
                            u=np.arange(5.0), v=np.ones(5))
        with pytest.raises(DimensionError):
            SylvesterSystem(a=d.entries, b=d.entries, f=g.zy, g=g.zx,
                            u=np.ones(5), v=None)
        with pytest.raises(DimensionError, match="both"):
            Factorization(lp=np.ones(5), up=np.eye(5), lq=np.ones(5), uq=np.eye(5),
                          u=np.ones(5))


class TestShift:
    @staticmethod
    def shifted_system(seed, shift, m=6, n=8):
        rng = np.random.default_rng(seed)
        g = GradientField(rng.standard_normal((m, n)), rng.standard_normal((m, n)),
                          hx=0.7, hy=1.3)
        dx, dy = g.operators(2)
        return SylvesterSystem(a=dy.entries, b=dx.entries, f=g.zy, g=g.zx,
                               u=np.ones(m), v=np.ones(n), shift=shift), rng

    def test_residual_and_cost_include_shift(self):
        system, rng = self.shifted_system(40, 0.37)
        a, b, s = system.a, system.b, system.shift
        phi = rng.standard_normal(system.phi_shape)
        normal = a.T @ a @ phi + phi @ b.T @ b + s * phi - system.rhs()
        assert system.residual(phi) == pytest.approx(np.linalg.norm(normal), rel=1e-12)
        # the cost is quadratic, so a central difference is exact up to
        # rounding: its slope along E is 2 <normal-equation residual, E>
        step = 1e-3
        for _ in range(5):
            bump = rng.standard_normal(phi.shape)
            diff = (system.cost(phi + step * bump) - system.cost(phi - step * bump)) / (2 * step)
            assert diff == pytest.approx(2.0 * np.sum(normal * bump), rel=1e-8)
        plain = SylvesterSystem(a=a, b=b, f=system.f, g=system.g)
        assert system.cost(phi) - plain.cost(phi) == pytest.approx(
            s * np.linalg.norm(phi) ** 2, rel=1e-10)

    def test_shifted_solves_match_kronecker_oracle(self):
        system, rng = self.shifted_system(41, 0.8)
        a, b, s = system.a, system.b, system.shift
        want = kron_sylvester_solve(a.T @ a + s * np.eye(a.shape[1]), b.T @ b, system.rhs())
        scale = np.max(np.abs(want))
        # pinned route: the shifted minimizer is unique and already mean free
        assert np.max(np.abs(solve(system) - want)) <= 1e-10 * scale
        assert system.residual(solve(system)) <= 1e-10 * np.linalg.norm(system.rhs())
        # full-rank route: no null vectors, a nonsingular unshifted pencil
        a = np.vstack([a, np.eye(a.shape[1])])
        f = np.vstack([system.f, rng.standard_normal(system.phi_shape)])
        full = SylvesterSystem(a=a, b=b, f=f, g=system.g, shift=s)
        want = kron_sylvester_solve(a.T @ a + s * np.eye(a.shape[1]), b.T @ b, full.rhs())
        assert np.max(np.abs(solve(full) - want)) <= 1e-10 * np.max(np.abs(want))

    def test_factorization_does_not_depend_on_the_shift(self):
        # without null vectors too, the shift goes to the divisor only, so
        # one factorization serves every shift
        system, rng = self.shifted_system(41, 0.8)
        a = np.vstack([system.a, np.eye(system.a.shape[1])])
        f = np.vstack([system.f, rng.standard_normal(system.phi_shape)])
        plain, shifted = (factor(SylvesterSystem(a=a, b=system.b, f=f, g=system.g, shift=s))
                          for s in (0.0, 0.8))
        for name in ("lp", "up", "lq", "uq"):
            assert np.array_equal(getattr(plain, name), getattr(shifted, name))
        assert not (plain.pinned or shifted.pinned)

    def test_shift_lifts_a_singular_pencil_without_null_vectors(self):
        system, rng = self.shifted_system(43, 0.5)
        bare = SylvesterSystem(a=system.a, b=system.b, f=system.f, g=system.g)
        with pytest.raises(SingularSystemError):
            solve(bare)
        lifted = SylvesterSystem(a=system.a, b=system.b, f=system.f, g=system.g,
                                 shift=system.shift)
        a, b, s = system.a, system.b, system.shift
        want = kron_sylvester_solve(a.T @ a + s * np.eye(a.shape[1]), b.T @ b, system.rhs())
        assert np.max(np.abs(solve(lifted) - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf])
    def test_bad_shift_refused(self, bad):
        with pytest.raises(ValueError, match="shift"):
            self.shifted_system(42, bad)


def eigh_shapes(monkeypatch, fn, *args):
    """Shapes of the arrays passed to np.linalg.eigh while fn(*args) runs."""
    calls = []
    eigh = np.linalg.eigh

    def recording(mat, *eigh_args, **kwargs):
        calls.append(mat.shape)
        return eigh(mat, *eigh_args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    fn(*args)
    return calls


class TestOneFactorization:
    """Every solve route factors its system exactly once: one eigh call per
    distinct coefficient, two on an anisotropic grid and one on a square grid
    with equal spacing."""

    @staticmethod
    def count_eigh(monkeypatch, fn, *args):
        return len(eigh_shapes(monkeypatch, fn, *args))

    @pytest.mark.parametrize("name", [
        "gls", "spectral", "spectral-band", "tikhonov-0", "tikhonov-1", "tikhonov-2", "dirichlet",
        "weighted-radial", "build_cache", "lcurve",
    ])
    def test_two_eigh_calls(self, monkeypatch, name):
        rng = np.random.default_rng(50)
        g = GradientField(rng.standard_normal((12, 16)), rng.standard_normal((12, 16)),
                          hx=0.7, hy=1.3)
        dx, dy = g.operators(2)
        by, bx = cosine_basis(12, 6), cosine_basis(16, 8)
        specs = {
            "gls": Gls(),
            "spectral": Spectral(by, bx),
            "spectral-band": Spectral(by.drop([0]), bx.drop([0])),
            "tikhonov-0": Tikhonov(lam=0.3, mu=0.6),
            "tikhonov-1": Tikhonov(lam=0.3, mu=0.6, degree=1),
            "tikhonov-2": Tikhonov(lam=0.1, degree=2),
            "dirichlet": Dirichlet(rng.standard_normal((12, 16))),
            "weighted-radial": Weighted(radial_covariance_set(g)),
            "lcurve": LCurveTikhonov(),
        }
        if name == "build_cache":
            calls = self.count_eigh(monkeypatch, build_cache, g, dx, dy)
        else:
            calls = self.count_eigh(monkeypatch, run_method, g, dx, dy, specs[name])
        assert calls == 2

    def test_radial_covariances_need_no_eigh(self, monkeypatch):
        rng = np.random.default_rng(51)
        g = GradientField(rng.standard_normal((12, 16)), rng.standard_normal((12, 16)))
        assert self.count_eigh(monkeypatch, radial_covariance_set, g) == 0

    @pytest.mark.parametrize("name", [
        "gls", "tikhonov-0", "tikhonov-1", "tikhonov-2", "dirichlet", "build_cache", "lcurve",
    ])
    def test_square_grid_with_equal_spacing_needs_one_eigh_call(self, monkeypatch, name):
        rng = np.random.default_rng(54)
        g = GradientField(rng.standard_normal((16, 16)), rng.standard_normal((16, 16)),
                          hx=0.7, hy=0.7)
        dx, dy = g.operators(2)
        specs = {
            "gls": Gls(),
            "tikhonov-0": Tikhonov(lam=0.4, mu=0.4),
            "tikhonov-1": Tikhonov(lam=0.4, mu=0.4, degree=1),
            "tikhonov-2": Tikhonov(lam=0.4, mu=0.4, degree=2),
            "dirichlet": Dirichlet(rng.standard_normal((16, 16))),
            "lcurve": LCurveTikhonov(),
        }
        if name == "build_cache":
            shapes = eigh_shapes(monkeypatch, build_cache, g, dx, dy)
        else:
            shapes = eigh_shapes(monkeypatch, run_method, g, dx, dy, specs[name])
        k = 14 if name == "dirichlet" else 16
        assert shapes == [(k, k)]


def general_solve(system):
    """Reference: :func:`solve` with one plain eigh call per coefficient."""
    a, b = system.a, system.b
    lp, up = np.linalg.eigh(a.T @ a)
    lq, uq = np.linalg.eigh(b.T @ b)
    fac = Factorization(lp=lp, up=up, lq=lq, uq=uq, u=system.u, v=system.v)
    return fac.from_basis(fac.divide(fac.to_basis(system.rhs()), system.shift))


def spectral_system(m, n, p, q, order, family=cosine_basis, seed=55, hx=0.7, hy=1.3):
    rng = np.random.default_rng(seed)
    g = GradientField(rng.standard_normal((m, n)), rng.standard_normal((m, n)), hx=hx, hy=hy)
    dx, dy = g.operators(order)
    return g, dx, dy, Spectral(family(m, p), family(n, q))


class TestParitySplit:
    """An even-size checkerboard coefficient (cosine spectral) is diagonalized
    as one batched eigh of its two half-size parity blocks; every other
    coefficient takes a plain eigh."""

    def test_cosine_sides_each_pass_one_stack(self, monkeypatch):
        g, dx, dy, spec = spectral_system(12, 16, 6, 8, 2)
        assert eigh_shapes(monkeypatch, run_method, g, dx, dy, spec) == [(2, 3, 3), (2, 4, 4)]

    def test_square_cosine_passes_one_stack(self, monkeypatch):
        g, dx, dy, spec = spectral_system(16, 16, 8, 8, 4, hx=0.7, hy=0.7)
        assert eigh_shapes(monkeypatch, run_method, g, dx, dy, spec) == [(2, 4, 4)]

    @pytest.mark.parametrize("family,m,n,p,q", [
        (haar_basis, 16, 32, 8, 16),
        (cosine_basis, 12, 16, 5, 7),
        (gram_basis, 128, 96, 64, 48),
        (gram_basis, 256, 128, 128, 64),
    ], ids=["haar", "odd-size", "gram-128x96", "gram-256x128"])
    @pytest.mark.parametrize("order", [2, 4])
    def test_other_bases_take_the_general_path(self, monkeypatch, family, m, n, p, q, order):
        # Gram polynomials have parity too, but their recurrence leaves
        # even-to-odd Gram entries of about 1e-11 relative: far above the
        # rounding bound, so they are no checkerboards to this test
        g, dx, dy, spec = spectral_system(m, n, p, q, order, family)
        assert eigh_shapes(monkeypatch, run_method, g, dx, dy, spec) == [(p, p), (q, q)]

    @pytest.mark.parametrize("row,col", [(0, 3), (13, 24)], ids=["corner", "interior"])
    def test_tolerance_is_order_times_eps_of_largest_diagonal(self, monkeypatch, row, col):
        _, dx, _, spec = spectral_system(40, 40, 40, 32, 4)
        a = dx.left_product(spec.basis_x.entries)
        mat = a.T @ a
        mat[0::2, 1::2] = mat[1::2, 0::2] = 0.0  # an exact checkerboard
        k = mat.shape[0]
        bound = k * np.finfo(float).eps * np.max(np.diagonal(mat))
        for factor_, want in ((0.9, [(2, k // 2, k // 2)]), (1.1, [(k, k)])):
            m2 = mat.copy()
            m2[row, col] = m2[col, row] = factor_ * bound
            other = np.eye(3)  # a distinct, odd-size Q takes the plain eigh
            assert eigh_shapes(monkeypatch, _eigh_pair, m2, other) == want + [(3, 3)]

    @pytest.mark.parametrize("order", [2, 4])
    def test_split_factorization_diagonalizes(self, order):
        g, dx, dy, spec = spectral_system(40, 36, 20, 18, order)
        system = assemble(g, dx, dy, spec)
        fac = factor(system)
        for mat, lam, vec in ((system.a.T @ system.a, fac.lp, fac.up),
                              (system.b.T @ system.b, fac.lq, fac.uq)):
            scale = np.max(np.abs(mat))
            assert np.all(np.diff(lam) >= 0)
            assert np.max(np.abs(vec.T @ vec - np.eye(len(lam)))) <= 1e-13
            assert np.max(np.abs((vec * lam) @ vec.T - mat)) <= 1e-13 * scale
            assert np.max(np.abs(lam - np.linalg.eigvalsh(mat))) <= 1e-13 * scale
        assert fac.pinned

    @staticmethod
    def heights(spec, coeff):
        return spec.basis_y.entries @ coeff @ spec.basis_x.entries.T

    @pytest.mark.parametrize("size", [(8, 12), (16, 16), (64, 48), (128, 200), (512, 512)])
    @pytest.mark.parametrize("order", [2, 4])
    def test_half_cosine_matches_general_path(self, size, order):
        m, n = size
        g, dx, dy, spec = spectral_system(m, n, m // 2, n // 2, order)
        system = assemble(g, dx, dy, spec)
        want = self.heights(spec, general_solve(system))
        got = self.heights(spec, solve(system))
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("size", [(16, 16), (64, 48), (512, 512)])
    @pytest.mark.parametrize("order", [2, 4])
    def test_full_cosine_basis_matches_gls(self, size, order):
        # a complete basis spans every grid, so the spectral minimizer is the
        # GLS one; the plain eigh of the full 512 Gram strays up to 3e-11
        # from it at order 4, so GLS is the reference here
        m, n = size
        g, dx, dy, spec = spectral_system(m, n, m, n, order)
        got = self.heights(spec, solve(assemble(g, dx, dy, spec)))
        want = run_method(g, dx, dy, Gls()).heights
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


class TestReadOnlyFactorization:
    """lq/uq can be the very arrays lp/up, so no side may be written through."""

    def test_equal_grams_share_read_only_eigenpairs(self):
        rng = np.random.default_rng(56)
        g = GradientField(rng.standard_normal((10, 10)), rng.standard_normal((10, 10)))
        fac = factor(assemble(g, *g.operators(2), Gls()))
        assert np.shares_memory(fac.lp, fac.lq) and np.shares_memory(fac.up, fac.uq)
        for arr in (fac.lp, fac.up, fac.lq, fac.uq):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            fac.uq *= 2.0

    def test_callers_arrays_stay_writeable(self):
        lp, up = np.array([1.0, 2.0]), np.eye(2)
        fac = Factorization(lp=lp, up=up, lq=lp, uq=up)
        assert lp.flags.writeable and up.flags.writeable
        assert not (fac.lp.flags.writeable or fac.uq.flags.writeable)

import numpy as np
import pytest

from surfrec import (
    Dirichlet, DimensionError, Gls, GradientField, LCurveTikhonov, SingularSystemError,
    Spectral, SylvesterSystem, Tikhonov, Weighted, build_cache, cosine_basis, diff_matrix,
    radial_covariance_set, solve, sym_sqrt, work_estimate,
)
from surfrec.simulate import run_method


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


class TestOneFactorization:
    """Every solve route factors its system exactly once: two eigh calls."""

    @staticmethod
    def count_eigh(monkeypatch, fn, *args):
        calls = []
        eigh = np.linalg.eigh

        def counting(mat, *eigh_args, **kwargs):
            calls.append(mat.shape)
            return eigh(mat, *eigh_args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        fn(*args)
        return len(calls)

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

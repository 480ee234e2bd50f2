import numpy as np
import pytest

from surfrec import (
    CovarianceSet, DimensionError, Dirichlet, Gls, GradientField, Spectral,
    Tikhonov, Weighted, apply_dx, apply_dy, assemble, cosine_basis,
    gradient_misfit, gram_basis, reconstruct,
)
from surfrec.simulate import ORACLE_MAX_CELLS


def quadratic_problem(n=11, order=2):
    x = np.linspace(-1, 1, n)
    xg, yg = np.meshgrid(x, x)
    z = xg**2 + yg**2
    h = x[1] - x[0]
    g = GradientField(2 * xg, 2 * yg, h, h)
    dx, dy = g.operators(order)
    return z, g, dx, dy


def noisy_problem(m=12, n=14, seed=21, order=2):
    rng = np.random.default_rng(seed)
    g = GradientField(rng.standard_normal((m, n)), rng.standard_normal((m, n)),
                      hx=0.3, hy=0.4)
    dx, dy = g.operators(order)
    return g, dx, dy


def kron_tikhonov_minnorm(g, dx, dy, spec):
    """Oracle: minimum-norm least squares of the Tikhonov cost

        |Z Dx.T - Zx|^2 + |Dy Z - Zy|^2
        + lam^2 |(Z - Z0) Lx.T|^2 + mu^2 |Ly (Z - Z0)|^2,

    eliminated as one dense Kronecker-structured matrix built from the
    operators' entries, with vec stacking columns.
    """
    m, n = g.m, g.n
    assert m * n <= ORACLE_MAX_CELLS
    k = spec.degree
    lx = np.linalg.matrix_power(dx.entries, k)
    ly = np.linalg.matrix_power(dy.entries, k)
    pen = np.vstack([spec.lam * np.kron(lx, np.eye(m)),
                     spec.mu_value * np.kron(np.eye(n), ly)])
    coeff = np.vstack([np.kron(dx.entries, np.eye(m)), np.kron(np.eye(n), dy.entries), pen])
    rhs = np.concatenate([g.zx.ravel(order="F"), g.zy.ravel(order="F"),
                          pen @ spec.reference.ravel(order="F")])
    sol, *_ = np.linalg.lstsq(coeff, rhs, rcond=None)
    return sol.reshape((m, n), order="F")


class TestAssemble:
    def test_gls_blocks(self):
        g, dx, dy = noisy_problem()
        system = assemble(g, dx, dy, Gls())
        assert np.array_equal(system.a, dy.entries)
        assert np.array_equal(system.b, dx.entries)
        assert np.array_equal(system.f, g.zy)
        assert np.array_equal(system.g, g.zx)
        assert np.array_equal(system.u, np.ones(g.m))
        assert np.array_equal(system.v, np.ones(g.n))

    def test_identity_weighting_reduces_to_gls(self):
        g, dx, dy = noisy_problem()
        plain = assemble(g, dx, dy, Gls())
        weighted = assemble(g, dx, dy, Weighted(CovarianceSet.identity(g.m, g.n)))
        for name in ("a", "b", "f", "g"):
            assert np.max(np.abs(getattr(plain, name) - getattr(weighted, name))) <= 1e-12

    def test_degenerate_stacked_penalty_solves_like_gls(self):
        g, dx, dy = noisy_problem()
        z_pen = reconstruct(g, dx, dy, Tikhonov(lam=0.0, degree=1))
        z_gls = reconstruct(g, dx, dy, Gls())
        assert np.max(np.abs(z_pen.heights - z_gls.heights)) <= 1e-9

    def test_spectral_null_vectors_follow_constant_column(self):
        g, dx, dy = noisy_problem()
        by = cosine_basis(g.m, g.m)
        bx = cosine_basis(g.n, g.n)
        full = assemble(g, dx, dy, Spectral(by, bx))
        assert full.u is not None and full.u[0] == 1.0
        # removing the constant column makes the coefficient system full rank
        bandpass = assemble(g, dx, dy, Spectral(by.drop([0]), bx.drop([0])))
        assert bandpass.u is None and bandpass.v is None

    def test_spectral_size_mismatch(self):
        g, dx, dy = noisy_problem()
        with pytest.raises(DimensionError):
            assemble(g, dx, dy, Spectral(cosine_basis(g.m + 1, 3), cosine_basis(g.n, 3)))

    def test_covariance_validation(self):
        with pytest.raises(ValueError):
            CovarianceSet(xx=np.diag([1.0, 0.0]), xy=np.eye(3), yx=np.eye(2), yy=np.eye(3))
        with pytest.raises(ValueError):
            CovarianceSet(xx=np.array([[1.0, 0.5], [0.0, 1.0]]), xy=np.eye(3),
                          yx=np.eye(2), yy=np.eye(3))

    def test_tikhonov_parameter_validation(self):
        with pytest.raises(ValueError):
            Tikhonov(lam=-1.0)
        with pytest.raises(ValueError):
            Tikhonov(lam=1.0, degree=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_tikhonov_rejects_non_finite_parameters(self, bad):
        with pytest.raises(ValueError, match="parameter lam "):
            Tikhonov(lam=bad)
        with pytest.raises(ValueError, match="parameter mu "):
            Tikhonov(lam=1.0, mu=bad)


class TestReconstruct:
    def test_plane_is_exact_and_mean_free(self):
        n = 9
        x = np.linspace(0, 2, n)
        xg, yg = np.meshgrid(x, x)
        z = 2 * xg + 3 * yg
        h = x[1] - x[0]
        g = GradientField(np.full((n, n), 2.0), np.full((n, n), 3.0), h, h)
        dx, dy = g.operators(2)
        got = reconstruct(g, dx, dy, Gls())
        assert abs(got.heights.mean()) <= 1e-12
        assert np.max(np.abs(got.heights - (z - z.mean()))) <= 1e-10

    def test_complete_spectral_equals_gls(self):
        g, dx, dy = noisy_problem(seed=31)
        z_gls = reconstruct(g, dx, dy, Gls())
        spec = Spectral(cosine_basis(g.m, g.m), cosine_basis(g.n, g.n))
        z_spec = reconstruct(g, dx, dy, spec)
        assert np.max(np.abs(z_spec.heights - z_gls.heights)) <= 1e-8

    def test_dirichlet_exact_with_true_boundary(self):
        z, g, dx, dy = quadratic_problem()
        boundary = np.zeros_like(z)
        boundary[0, :], boundary[-1, :] = z[0, :], z[-1, :]
        boundary[:, 0], boundary[:, -1] = z[:, 0], z[:, -1]
        got = reconstruct(g, dx, dy, Dirichlet(boundary))
        assert np.max(np.abs(got.heights - z)) <= 1e-8

    def test_dirichlet_keeps_boundary_and_interior_offset(self):
        g, dx, dy = noisy_problem(seed=32)
        rng = np.random.default_rng(1)
        zb = rng.standard_normal((g.m, g.n))
        got = reconstruct(g, dx, dy, Dirichlet(zb)).heights
        assert np.array_equal(got[0, :], zb[0, :])
        assert np.array_equal(got[-1, :], zb[-1, :])
        assert np.array_equal(got[:, 0], zb[:, 0])
        assert np.array_equal(got[:, -1], zb[:, -1])

    def test_identity_weighted_equals_gls(self):
        g, dx, dy = noisy_problem(seed=33)
        z_gls = reconstruct(g, dx, dy, Gls())
        z_w = reconstruct(g, dx, dy, Weighted(CovarianceSet.identity(g.m, g.n)))
        assert np.max(np.abs(z_w.heights - z_gls.heights)) <= 1e-9

    def test_tikhonov_zero_parameter_equals_gls(self):
        g, dx, dy = noisy_problem(seed=34)
        z_gls = reconstruct(g, dx, dy, Gls())
        z_t = reconstruct(g, dx, dy, Tikhonov(lam=0.0))
        assert np.max(np.abs(z_t.heights - z_gls.heights)) <= 1e-8

    def test_weighted_mean_is_zero(self):
        g, dx, dy = noisy_problem(seed=35)
        rng = np.random.default_rng(2)
        def spd(k, scale=0.3):
            a = rng.standard_normal((k, k))
            return np.eye(k) + scale * (a @ a.T) / k
        cov = CovarianceSet(xx=spd(g.n), xy=spd(g.m), yx=spd(g.n), yy=spd(g.m))
        z = reconstruct(g, dx, dy, Weighted(cov)).heights
        w_mean = np.ones(g.m) @ np.linalg.solve(cov.xy, z) @ np.linalg.solve(cov.yx, np.ones(g.n))
        assert abs(w_mean) <= 1e-7 * g.m * g.n * np.max(np.abs(z))

    def test_degree_k_solution_is_mean_free(self):
        g, dx, dy = noisy_problem(seed=36)
        for degree in (1, 2):
            z = reconstruct(g, dx, dy, Tikhonov(lam=0.4, degree=degree)).heights
            assert abs(z.sum()) <= 1e-8 * g.m * g.n * np.max(np.abs(z))

    def test_gls_attains_the_lowest_misfit(self):
        g, dx, dy = noisy_problem(m=16, n=16, seed=37)
        rng = np.random.default_rng(3)
        def spd(k):
            a = rng.standard_normal((k, k))
            return np.eye(k) + 0.2 * (a @ a.T) / k
        others = [
            Spectral(cosine_basis(16, 8), cosine_basis(16, 8)),
            Tikhonov(lam=0.5),
            Tikhonov(lam=0.2, degree=2),
            Dirichlet(np.zeros((16, 16))),
            Weighted(CovarianceSet(xx=spd(16), xy=spd(16), yx=spd(16), yy=spd(16))),
        ]
        base = gradient_misfit(reconstruct(g, dx, dy, Gls()), g, dx, dy)
        for spec in others:
            assert base <= gradient_misfit(reconstruct(g, dx, dy, spec), g, dx, dy) + 1e-9

    def test_tikhonov_residual_penalty_monotone(self):
        g, dx, dy = noisy_problem(m=14, n=14, seed=38)
        lams = np.geomspace(1e-3, 10, 12)
        residuals, penalties = [], []
        for lam in lams:
            z = reconstruct(g, dx, dy, Tikhonov(lam=lam))
            residuals.append(gradient_misfit(z, g, dx, dy))
            penalties.append(np.linalg.norm(z.heights) ** 2)
        assert all(b >= a - 1e-9 for a, b in zip(residuals, residuals[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(penalties, penalties[1:]))

    def test_constant_shift_equivariance(self):
        z, g, dx, dy = quadratic_problem()
        first = reconstruct(g, dx, dy, Gls()).heights
        # the same analytic gradient arises from z + c, so the output is identical
        second = reconstruct(GradientField(g.zx.copy(), g.zy.copy(), g.hx, g.hy),
                             dx, dy, Gls()).heights
        assert np.array_equal(first, second)

    def test_spectral_coefficients_idempotent(self):
        g, dx, dy = noisy_problem(seed=39)
        by = gram_basis(g.m, 6)
        bx = gram_basis(g.n, 7)
        z = reconstruct(g, dx, dy, Spectral(by, bx)).heights
        coeff = by.entries.T @ z @ bx.entries
        again = by.entries @ coeff @ bx.entries.T
        assert np.max(np.abs(again - z)) <= 1e-10 * max(1.0, np.max(np.abs(z)))

    def test_operator_grid_mismatch(self):
        g, dx, dy = noisy_problem()
        with pytest.raises(DimensionError):
            reconstruct(g, dy, dy, Gls())

    def test_dirichlet_needs_interior(self):
        from surfrec import DiffMatrix
        g = GradientField(np.zeros((2, 5)), np.zeros((2, 5)))
        dx = DiffMatrix(entries=np.zeros((5, 5)), h=1.0, order=2)
        dy = DiffMatrix(entries=np.zeros((2, 2)), h=1.0, order=2)
        with pytest.raises(DimensionError):
            reconstruct(g, dx, dy, Dirichlet(np.zeros((2, 5))))


class TestTikhonovReference:
    @pytest.mark.parametrize("lam,mu", [(0.5, 0.5), (0.8, 0.2), (0.6, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("order", [2, 4])
    def test_matches_dense_oracle(self, order, degree, lam, mu):
        rng = np.random.default_rng(60 + 7 * order + degree)
        # every penalty row annihilates constants at degree >= 1 or when
        # both parameters vanish; the heights are then fixed up to a
        # constant, and the minimum-norm (mean-free) one is returned
        deficient = degree >= 1 or lam == mu == 0.0
        for m, n in ((3, 4), (5, 7), (9, 6), (12, 12)):
            if min(m, n) < order + 1:
                continue
            g = GradientField(rng.standard_normal((m, n)), rng.standard_normal((m, n)),
                              hx=0.7, hy=1.3)
            dx, dy = g.operators(order)
            z0 = 3.0 + rng.standard_normal((m, n))
            spec = Tikhonov(lam=lam, mu=mu, degree=degree, reference=z0)
            got = reconstruct(g, dx, dy, spec).heights
            want = kron_tikhonov_minnorm(g, dx, dy, spec)
            scale = np.linalg.norm(want)
            if deficient:
                assert abs(got.mean()) <= 1e-12 * np.max(np.abs(got)), (m, n)
                got, want = got - got.mean(), want - want.mean()
            err = np.linalg.norm(got - want) / scale
            assert err <= 1e-10, (m, n, err)

    def test_zero_reference_equals_no_reference(self):
        g, dx, dy = noisy_problem(seed=61)
        for degree in (0, 1, 2):
            plain = reconstruct(g, dx, dy, Tikhonov(lam=0.7, mu=0.3, degree=degree))
            zero = reconstruct(g, dx, dy, Tikhonov(lam=0.7, mu=0.3, degree=degree,
                                                   reference=np.zeros((g.m, g.n))))
            assert np.array_equal(plain.heights, zero.heights)

    def test_reference_shape_mismatch(self):
        g, dx, dy = noisy_problem()
        with pytest.raises(DimensionError):
            reconstruct(g, dx, dy, Tikhonov(lam=1.0, reference=np.zeros((g.m, g.n + 1))))

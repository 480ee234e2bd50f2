import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from surfrec import (
    CovarianceSet, Dirichlet, DimensionError, Factorization, Gls, GradientField, LCurveTikhonov,
    SingularSystemError, Spectral, SylvesterSystem, Tikhonov, Weighted, assemble, build_cache,
    cosine_basis, diff_matrix, gram_basis, haar_basis, radial_covariance_set, solve, sym_sqrt,
    work_estimate,
)
from surfrec import sylvester
from surfrec.simulate import run_method
from surfrec.sylvester import _eigh, _parity_groups, factor


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
        with pytest.raises(DimensionError, match=r"must be square, got shape \(2, 3\)"):
            sym_sqrt(np.ones((2, 3)))


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
        with pytest.raises(ValueError, match="truncation level"):
            work_estimate(2, 2, "spectral", truncation_level=-1)


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
    @pytest.mark.parametrize("blocks,message", [
        (dict(f=(5, 4)), r"data block F must be \(at most 5\)x3, got \(5, 4\)"),
        (dict(a=(5,)), "must be 2-d"),
        (dict(g=(4, 7)), r"data block G must be 4x\(at most 6\), got \(4, 7\)"),
        (dict(u=(5,), v=(3,)), "null vector lengths"),
        (dict(u=(4,), v=(4,)), "null vector lengths"),
        (dict(f=(6, 3)), r"data block F must be \(at most 5\)x3, got \(6, 3\)"),
        (dict(g=(3, 6)), r"data block G must be 4x\(at most 6\), got \(3, 6\)"),
    ], ids=["f", "1-d-block", "g", "u-length", "v-length", "f-rows", "g-rows"])
    def test_dimension_validation(self, blocks, message):
        # a 5x4 a, a 6x3 b, so the unknown is 4x3, F is at most 5x3 and G at
        # most 4x6: data may stop short of the stacked rows, never run past them
        shapes = {"a": (5, 4), "b": (6, 3), "f": (5, 3), "g": (4, 6), **blocks}
        rng = np.random.default_rng(16)
        with pytest.raises(DimensionError, match=message):
            SylvesterSystem(**{k: rng.standard_normal(v) for k, v in shapes.items()})

    @pytest.mark.parametrize("seed,rows,cols", [(18, 7, 9), (19, 0, 15), (20, 12, 0)])
    def test_short_data_blocks_equal_explicit_zero_rows(self, seed, rows, cols):
        # rows of a and b without data fit zero: F and G padded with zeros to
        # the stacked height give the same normal equations and cost
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((12, 7)), rng.standard_normal((15, 9))
        f, g = rng.standard_normal((rows, 9)), rng.standard_normal((7, cols))
        short = SylvesterSystem(a=a, b=b, f=f, g=g, shift=0.3)
        padded = SylvesterSystem(a=a, b=b, f=np.vstack([f, np.zeros((12 - rows, 9))]),
                                 g=np.hstack([g, np.zeros((7, 15 - cols))]), shift=0.3)
        phi = rng.standard_normal((7, 9))
        want = padded.rhs()
        assert np.linalg.norm(short.rhs() - want) <= 1e-14 * np.linalg.norm(want)
        assert short.residual(phi) == pytest.approx(padded.residual(phi), rel=1e-14)
        assert short.cost(phi) == pytest.approx(padded.cost(phi), rel=1e-14)

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

    @pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf, True])
    def test_bad_shift_refused(self, bad):
        with pytest.raises(ValueError, match="shift"):
            self.shifted_system(42, bad)


class TestDivisorShift:
    """The shift a factorization divides by obeys the finite-real rule."""

    @staticmethod
    def gls_factorization():
        rng = np.random.default_rng(44)
        g = GradientField(rng.standard_normal((8, 9)), rng.standard_normal((8, 9)))
        return factor(assemble(g, *g.operators(2), Gls()))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, True, "1"])
    def test_bad_shift_refused(self, bad):
        fac = self.gls_factorization()
        with pytest.raises(ValueError, match="pencil shift"):
            fac.divisor(bad)
        with pytest.raises(ValueError, match="pencil shift"):
            fac.divide(np.ones((8, 9)), bad)

    @pytest.mark.parametrize("shift", [0.0, 0.37, np.float64(2.5)])
    def test_good_shift_moves_every_divisor(self, shift):
        fac = self.gls_factorization()
        want = fac.lp[:, None] + (fac.lq + shift)[None, :]
        want[0, 0] = np.inf
        assert np.array_equal(fac.divisor(shift), want)
        c = np.random.default_rng(45).standard_normal((8, 9))
        assert np.array_equal(fac.divide(c, shift), c / want)


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


def factor_calls(monkeypatch):
    """List that gains the system of every sylvester.factor call from now
    on, wherever a module bound the name."""
    calls = []

    def recording(system):
        calls.append(system)
        return factor(system)

    for mod in [mod for name, mod in sys.modules.items() if name.split(".")[0] == "surfrec"]:
        if vars(mod).get("factor") is factor:
            monkeypatch.setattr(mod, "factor", recording)
    return calls


class TestOneFactorization:
    """Every solve route factors its system exactly once: one eigh call per
    distinct coefficient, two on an anisotropic grid and one on a square grid
    with equal spacing, or one per parity group of a split block."""

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
        # a cosine block's parity groups, its odd functions first: labels
        # 0-5 and 0-7 split 3 + 3 and 4 + 4, and without label 0 the even
        # functions are one fewer
        per_group = {"spectral": [(3, 3), (3, 3), (4, 4), (4, 4)],
                     "spectral-band": [(3, 3), (2, 2), (4, 4), (3, 3)]}
        factored = factor_calls(monkeypatch)
        if name == "build_cache":
            shapes = eigh_shapes(monkeypatch, build_cache, g, dx, dy)
        else:
            shapes = eigh_shapes(monkeypatch, run_method, g, dx, dy, specs[name])
        assert len(factored) == 1
        if name in per_group:
            assert shapes == per_group[name]
        else:
            assert len(shapes) == 2

    def test_shared_operator_block_factors_like_two_equal_ones(self):
        g, dx, dy, spec = spectral_system(16, 16, 8, 8, 2, hx=0.7, hy=0.7)
        system = assemble(g, dx, dy, spec)
        assert system.b is system.a
        apart = SylvesterSystem(a=system.a, b=system.a.copy(), f=system.f, g=system.g,
                                u=system.u, v=system.v)
        shared, split = factor(system), factor(apart)
        for name in ("lp", "up", "lq", "uq"):
            assert np.array_equal(getattr(shared, name), getattr(split, name))
        assert np.array_equal(solve(system), solve(apart))

    def test_radial_covariances_need_no_eigh(self, monkeypatch):
        rng = np.random.default_rng(51)
        g = GradientField(rng.standard_normal((12, 16)), rng.standard_normal((12, 16)))
        assert eigh_shapes(monkeypatch, radial_covariance_set, g) == []

    @pytest.mark.parametrize("name", [
        "gls", "tikhonov-0", "tikhonov-1", "tikhonov-2", "dirichlet", "build_cache", "lcurve",
        "weighted-identity",
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
            "weighted-identity": Weighted(CovarianceSet.identity(16, 16)),
        }
        if name == "build_cache":
            shapes = eigh_shapes(monkeypatch, build_cache, g, dx, dy)
        else:
            shapes = eigh_shapes(monkeypatch, run_method, g, dx, dy, specs[name])
        k = 14 if name == "dirichlet" else 16
        assert shapes == [(k, k)]


def eigh_sites(tree):
    """Name of the innermost enclosing function (None at module level) of
    every ``eigh`` name, attribute or import in a module's syntax tree."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias) else None)
        if name == "eigh":
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return sites


def test_eigh_is_called_only_by_the_block_helper_and_sym_sqrt():
    # factor is the only place the solver calls eigh (README), read off the
    # source of every module; sym_sqrt roots the WLS covariances
    found = set()
    for path in sorted(Path(sylvester.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=path.name)
        found.update((path.stem, where) for where in eigh_sites(tree))
    assert found == {("sylvester", "_eigh"), ("sylvester", "sym_sqrt")}


def general_solve(system, refine=0):
    """Reference: :func:`solve` with one plain eigh call per coefficient,
    then ``refine`` steps of iterative refinement on the residual of the
    normal equations."""
    a, b = system.a, system.b
    lp, up = np.linalg.eigh(a.T @ a)
    lq, uq = np.linalg.eigh(b.T @ b)
    fac = Factorization(lp=lp, up=up, lq=lq, uq=uq, u=system.u, v=system.v)

    def divided(c):
        return fac.from_basis(fac.divide(fac.to_basis(c), system.shift))

    c = system.rhs()
    phi = divided(c)
    for _ in range(refine):
        phi = phi + divided(c - (a.T @ (a @ phi) + (phi @ b.T) @ b + system.shift * phi))
    return phi


def spectral_system(m, n, p, q, order, family=cosine_basis, seed=55, hx=0.7, hy=1.3):
    rng = np.random.default_rng(seed)
    g = GradientField(rng.standard_normal((m, n)), rng.standard_normal((m, n)), hx=hx, hy=hy)
    dx, dy = g.operators(order)
    return g, dx, dy, Spectral(family(m, p), family(n, q))


class TestParitySplit:
    """A block whose columns are each bitwise even or odd under row reversal
    (a cosine or Gram spectral block, or any column subset of one) is
    diagonalized by one eigh per parity group, its even columns first (the
    odd functions of a basis, which D maps to even columns); every other
    block takes a plain eigh."""

    def test_cosine_sides_each_split_in_two(self, monkeypatch):
        g, dx, dy, spec = spectral_system(12, 16, 6, 8, 2)
        shapes = eigh_shapes(monkeypatch, run_method, g, dx, dy, spec)
        assert shapes == [(3, 3), (3, 3), (4, 4), (4, 4)]

    def test_square_cosine_splits_once(self, monkeypatch):
        g, dx, dy, spec = spectral_system(16, 16, 8, 8, 4, hx=0.7, hy=0.7)
        assert eigh_shapes(monkeypatch, run_method, g, dx, dy, spec) == [(4, 4), (4, 4)]

    @pytest.mark.parametrize("family,m,n,p,q", [
        (cosine_basis, 12, 16, 5, 7),
        (gram_basis, 128, 96, 64, 48),
        (gram_basis, 256, 128, 128, 64),
        (gram_basis, 101, 90, 51, 45),
    ], ids=["odd-size", "gram-128x96", "gram-256x128", "gram-odd-size"])
    @pytest.mark.parametrize("order", [2, 4])
    def test_other_parity_bases_split(self, monkeypatch, family, m, n, p, q, order):
        # k functions split into floor(k/2) odd and ceil(k/2) even ones
        g, dx, dy, spec = spectral_system(m, n, p, q, order, family)
        shapes = eigh_shapes(monkeypatch, run_method, g, dx, dy, spec)
        assert shapes == [(k, k) for k in (p // 2, (p + 1) // 2, q // 2, (q + 1) // 2)]

    @pytest.mark.parametrize("family,m,n,p,q", [
        (haar_basis, 16, 32, 8, 16),
    ], ids=["haar"])
    @pytest.mark.parametrize("order", [2, 4])
    def test_other_bases_take_the_general_path(self, monkeypatch, family, m, n, p, q, order):
        g, dx, dy, spec = spectral_system(m, n, p, q, order, family)
        assert eigh_shapes(monkeypatch, run_method, g, dx, dy, spec) == [(p, p), (q, q)]

    @staticmethod
    def check_diagonalizes(m, n, p, q, order):
        g, dx, dy, spec = spectral_system(m, n, p, q, order)
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

    @pytest.mark.parametrize("order", [2, 4])
    def test_split_factorization_diagonalizes(self, order):
        self.check_diagonalizes(40, 36, 20, 18, order)

    @pytest.mark.parametrize("order", [2, 4])
    def test_odd_split_diagonalizes(self, order):
        # groups of unequal size: 10 + 11 functions on one side, 9 + 10 on the other
        self.check_diagonalizes(42, 38, 21, 19, order)

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_smallest_checkerboards_split(self, monkeypatch, k):
        # nine rows, column j of exact parity (-1)^j: zero on the middle row
        # when odd, and a checkerboard Gram
        rng = np.random.default_rng(57)
        top = rng.standard_normal((5, k))
        top[-1, 1::2] = 0.0
        blk = np.vstack([top, (top * (-1.0) ** np.arange(k))[-2::-1]])
        mat = blk.T @ blk
        shapes = eigh_shapes(monkeypatch, _eigh, blk)
        assert shapes == [((k + 1) // 2, (k + 1) // 2), (k // 2, k // 2)]
        lam, vec = _eigh(blk)
        assert np.max(np.abs(lam - np.linalg.eigvalsh(mat))) <= 1e-13 * np.max(np.abs(mat))
        assert np.max(np.abs((vec * lam) @ vec.T - mat)) <= 1e-13 * np.max(np.abs(mat))

    def test_band_pass_groups_by_parity_not_position(self, monkeypatch):
        # without labels 0 and 2 the parities no longer alternate by position:
        # labels 1, 3, 4, 5 (and on to 7) split 3 + 1 (and 4 + 2)
        g, dx, dy, spec = spectral_system(12, 16, 6, 8, 2)
        spec = Spectral(spec.basis_y.drop([0, 2]), spec.basis_x.drop([0, 2]))
        shapes = eigh_shapes(monkeypatch, run_method, g, dx, dy, spec)
        assert shapes == [(3, 3), (1, 1), (4, 4), (2, 2)]
        system = assemble(g, dx, dy, spec)
        want = self.heights(spec, general_solve(system))
        got = self.heights(spec, solve(system))
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("row", [0, 5, 19], ids=["first-row", "interior-row", "middle-row"])
    def test_one_ulp_off_parity_takes_the_plain_eigh(self, monkeypatch, row):
        # 39 rows: row 19 is the middle one, zero in every odd column
        _, _, dy, spec = spectral_system(39, 16, 12, 8, 4)
        blk = dy.left_product(spec.basis_y.entries)
        assert eigh_shapes(monkeypatch, _eigh, blk) == [(6, 6), (6, 6)]
        blk[row, 4] = np.nextafter(blk[row, 4], np.inf)
        assert eigh_shapes(monkeypatch, _eigh, blk) == [(12, 12)]

    def test_dense_covariance_takes_the_general_path(self, monkeypatch):
        rng = np.random.default_rng(58)
        g = GradientField(rng.standard_normal((12, 16)), rng.standard_normal((12, 16)))
        dense = {}
        for name, k in (("xx", 16), ("xy", 12), ("yx", 16), ("yy", 12)):
            x = rng.standard_normal((k, k))
            dense[name] = x @ x.T + k * np.eye(k)
        spec = Weighted(CovarianceSet(**dense))
        shapes = eigh_shapes(monkeypatch, run_method, g, *g.operators(2), spec)
        assert shapes == [(12, 12), (16, 16)]

    @pytest.mark.parametrize("family", [cosine_basis, gram_basis], ids=["cosine", "gram"])
    @pytest.mark.parametrize("order", [2, 4])
    def test_split_and_plain_eigenvalues_agree(self, family, order):
        g, dx, dy, spec = spectral_system(41, 36, 21, 18, order, family)
        system = assemble(g, dx, dy, spec)
        fac = factor(system)
        for blk, lam in ((system.a, fac.lp), (system.b, fac.lq)):
            assert _parity_groups(blk) is not None
            plain = np.linalg.eigh(blk.T @ blk)[0]
            assert np.max(np.abs(lam - plain)) <= 1e-13 * np.max(plain)

    @staticmethod
    def heights(spec, coeff):
        return spec.basis_y.entries @ coeff @ spec.basis_x.entries.T

    @pytest.mark.parametrize("size", [(8, 12), (16, 16), (64, 48), (128, 200), (512, 512),
                                      (10, 14), (202, 130), (890, 632)])
    @pytest.mark.parametrize("order", [2, 4])
    def test_half_cosine_matches_general_path(self, size, order):
        # sizes from (10, 14) on have odd half widths
        m, n = size
        g, dx, dy, spec = spectral_system(m, n, m // 2, n // 2, order)
        system = assemble(g, dx, dy, spec)
        want = self.heights(spec, general_solve(system))
        got = self.heights(spec, solve(system))
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("size", [(8, 12), (14, 22), (64, 48), (130, 202), (512, 512)],
                             ids=["8x12", "odd-7x11", "64x48", "odd-65x101", "512x512"])
    @pytest.mark.parametrize("order", [2, 4])
    def test_half_gram_matches_general_path(self, size, order):
        # the plain eigh of the order-4 Gram at 512 nodes strays 1.9e-11 from
        # the exact minimizer (checked by refining with a long-double
        # residual), the split 3.1e-12; two refinement steps land on it
        m, n = size
        g, dx, dy, spec = spectral_system(m, n, m // 2, n // 2, order, gram_basis)
        system = assemble(g, dx, dy, spec)
        want = self.heights(spec, general_solve(system, refine=2))
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

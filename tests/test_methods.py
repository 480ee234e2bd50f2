import dataclasses

import numpy as np
import pytest

from surfrec import (
    CovarianceSet, DiffMatrix, DimensionError, Dirichlet, Gls, GradientField, LCurveTikhonov,
    SingularSystemError, Spectral, Surface, SylvesterSystem, Tikhonov, Weighted, apply_dx,
    apply_dy, assemble, build_cache, cosine_basis, diff_matrix, evaluate, gradient_misfit,
    gram_basis, lcurve_reconstruct, make_basis, oracle_gls, reconstruct, solve, sym_sqrt,
    work_estimate,
)
from surfrec import methods
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


def square_problem(n=16, h=0.7, order=2):
    """Random gradient on a square grid with equal spacing on both axes."""
    rng = np.random.default_rng(22)
    g = GradientField(rng.standard_normal((n, n)), rng.standard_normal((n, n)), hx=h, hy=h)
    dx, dy = g.operators(order)
    return g, dx, dy


# degree 0 shares at any (lam, mu), degrees 1 and 2 only at lam = mu
SHARED_BLOCK_SPECS = [
    Gls(), Tikhonov(lam=0.4), Tikhonov(lam=0.3, mu=0.6), Tikhonov(lam=0.4, mu=0.4, degree=1),
    Tikhonov(lam=0.4, degree=2),
    Tikhonov(lam=0.4, degree=2, reference=np.linspace(-1, 1, 256).reshape(16, 16)),
    Dirichlet(np.linspace(0, 1, 256).reshape(16, 16)),
]
SHARED_BLOCK_IDS = ["gls", "tikhonov-0", "tikhonov-0-unequal", "tikhonov-1", "tikhonov-2",
                    "tikhonov-2-reference", "dirichlet"]


def kron_tikhonov_minnorm(g, dx, dy, spec):
    """Oracle: minimum-norm least squares of the Tikhonov cost

        |Z Dx.T - Zx|^2 + |Dy Z - Zy|^2
        + lam^2 |(Z - Z0) Lx.T|^2 + mu^2 |Ly (Z - Z0)|^2,

    with Z0 the spec's reference (zero when it has none) and L = D^degree,
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
    z0 = np.zeros(m * n) if spec.reference is None else spec.reference.ravel(order="F")
    rhs = np.concatenate([g.zx.ravel(order="F"), g.zy.ravel(order="F"), pen @ z0])
    sol, *_ = np.linalg.lstsq(coeff, rhs, rcond=None)
    return sol.reshape((m, n), order="F")


def kron_weighted_minnorm(g, dx, dy, cov):
    """Oracle: the covariance-weighted gradient misfit

        |Wxy^-1/2 (Z Dx.T - Zx) Wxx^-1/2|^2 + |Wyy^-1/2 (Dy Z - Zy) Wyx^-1/2|^2

    as one dense Kronecker-structured least-squares problem, with vec
    stacking columns.  Each weight is the inverse of a Cholesky factor,
    which gives the same norm as the symmetric inverse root, and the
    minimum-norm solution is shifted to the pin 1.T Wxy^-1 Z Wyx^-1 1 = 0.
    """
    m, n = g.m, g.n
    assert m * n <= ORACLE_MAX_CELLS
    wxx, wxy, wyx, wyy = (np.linalg.inv(np.linalg.cholesky(c))
                          for c in (cov.xx, cov.xy, cov.yx, cov.yy))
    # vec(L E R.T) = kron(R, L) vec(E)
    tx, ty = np.kron(wxx, wxy), np.kron(wyx, wyy)
    coeff = np.vstack([tx @ np.kron(dx.entries, np.eye(m)),
                       ty @ np.kron(np.eye(n), dy.entries)])
    rhs = np.concatenate([tx @ g.zx.ravel(order="F"), ty @ g.zy.ravel(order="F")])
    sol, *_ = np.linalg.lstsq(coeff, rhs, rcond=None)
    z = sol.reshape((m, n), order="F")
    pu, pv = np.linalg.solve(cov.xy, np.ones(m)), np.linalg.solve(cov.yx, np.ones(n))
    return z - (pu @ z @ pv) / (pu.sum() * pv.sum())


def kron_gls_rows(g, dx, dy):
    """The GLS misfit |Z Dx.T - Zx|^2 + |Dy Z - Zy|^2 as one dense
    Kronecker-structured least-squares matrix and right-hand side, with vec
    stacking columns."""
    m, n = g.m, g.n
    assert m * n <= ORACLE_MAX_CELLS
    coeff = np.vstack([np.kron(dx.entries, np.eye(m)), np.kron(np.eye(n), dy.entries)])
    return coeff, np.concatenate([g.zx.ravel(order="F"), g.zy.ravel(order="F")])


def kron_spectral_minnorm(g, dx, dy, by, bx):
    """Oracle: the GLS misfit over surfaces Z = By C Bx.T, solved for the
    minimum-norm coefficients C.  With both constant columns present the
    constant pair's coefficient is the null direction, so it comes back
    zero, as the solver pins it."""
    coeff, rhs = kron_gls_rows(g, dx, dy)
    t = np.kron(bx.entries, by.entries)  # vec(By C Bx.T) = kron(Bx, By) vec(C)
    c, *_ = np.linalg.lstsq(coeff @ t, rhs, rcond=None)
    return (t @ c).reshape((g.m, g.n), order="F")


def kron_dirichlet(g, dx, dy, zb):
    """Oracle: the GLS misfit over the interior heights, with the frame of
    zb held fixed and its interior as the starting surface."""
    coeff, rhs = kron_gls_rows(g, dx, dy)
    inner = np.zeros((g.m, g.n), dtype=bool)
    inner[1:-1, 1:-1] = True
    sel = inner.ravel(order="F")
    sol, *_ = np.linalg.lstsq(coeff[:, sel], rhs - coeff @ zb.ravel(order="F"), rcond=None)
    z = zb.copy()
    z[1:-1, 1:-1] += sol.reshape((g.m - 2, g.n - 2), order="F")
    return z


# shapes from 3 to 12 nodes per side, square and not
ORACLE_SHAPES = sorted({(m, n) for m in range(3, 13)
                        for n in (max(m - 1, 3), m, min(m + 2, 12))} | {(4, 8), (8, 4)})


def random_covariance(rng, k, kind):
    """A diagonal or a dense SPD k-by-k covariance."""
    if kind == "diagonal":
        return np.diag(rng.uniform(0.2, 3.0, k))
    a = rng.standard_normal((k, k))
    return np.diag(rng.uniform(0.5, 2.0, k)) + 0.3 * (a @ a.T) / k


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

    def test_degree_zero_tikhonov_is_shifted_gls(self):
        g, dx, dy = noisy_problem()
        for lam, mu in ((0.5, 0.5), (0.8, 0.2), (0.6, 0.0), (0.0, 0.0)):
            system = assemble(g, dx, dy, Tikhonov(lam=lam, mu=mu))
            assert system.a.shape == (g.m, g.m) and system.b.shape == (g.n, g.n)
            assert np.array_equal(system.a, dy.entries)
            assert np.array_equal(system.b, dx.entries)
            assert np.array_equal(system.f, g.zy) and np.array_equal(system.g, g.zx)
            assert system.shift == lam**2 + mu**2
        assert assemble(g, dx, dy, Gls()).shift == 0.0
        assert assemble(g, dx, dy, Tikhonov(lam=0.5, degree=2)).shift == 0.0

    def test_degree_one_tikhonov_is_rescaled_gls(self):
        g, dx, dy = noisy_problem(order=4)
        rng = np.random.default_rng(22)
        for lam, mu in ((0.5, 0.5), (0.8, 0.2), (0.6, 0.0), (0.0, 0.0)):
            system = assemble(g, dx, dy, Tikhonov(lam=lam, mu=mu, degree=1))
            sy, sx = np.sqrt(1.0 + mu * mu), np.sqrt(1.0 + lam * lam)
            assert system.a.shape == (g.m, g.m) and system.b.shape == (g.n, g.n)
            assert np.array_equal(system.a, sy * dy.entries)
            assert np.array_equal(system.b, sx * dx.entries)
            assert np.array_equal(system.f, g.zy / sy) and np.array_equal(system.g, g.zx / sx)
            assert system.shift == 0.0
            # parity with the stacked [D; lam D] system: the same solution,
            # and a cost that differs by a constant
            stacked = SylvesterSystem(
                a=np.vstack([dy.entries, mu * dy.entries]),
                b=np.vstack([dx.entries, lam * dx.entries]),
                f=np.vstack([g.zy, np.zeros((g.m, g.n))]),
                g=np.hstack([g.zx, np.zeros((g.m, g.n))]),
                u=np.ones(g.m), v=np.ones(g.n),
            )
            want = solve(stacked)
            assert np.linalg.norm(solve(system) - want) <= 1e-12 * np.linalg.norm(want)
            const = (mu * mu / (1 + mu * mu) * np.linalg.norm(g.zy) ** 2
                     + lam * lam / (1 + lam * lam) * np.linalg.norm(g.zx) ** 2)
            for phi in (want, rng.standard_normal((g.m, g.n))):
                gap = stacked.cost(phi) - system.cost(phi)
                assert abs(gap - const) <= 1e-12 * stacked.cost(phi)

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

    @pytest.mark.parametrize("build", [cosine_basis, gram_basis], ids=["cosine", "gram"])
    def test_spectral_block_of_the_constant_alone_is_exactly_null(self, build):
        # D times the constant is rounding alone; written as exact zeros, it
        # satisfies the declared null pair however small the block's norm is
        rng = np.random.default_rng(25)
        g = GradientField(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
        dx, dy = g.operators(2)
        spec = Spectral(build(3, 1), build(4, 2))
        assert not np.any(assemble(g, dx, dy, spec).a)
        by, bx = spec.basis_y.entries, spec.basis_x.entries
        # the one free coefficient fits G = by.T Zx against D_x times column 1
        slope = dx.left_product(bx)[:, 1]
        want = ((by.T @ g.zx @ slope)[0] / (slope @ slope)) * np.outer(by[:, 0], bx[:, 1])
        got = reconstruct(g, dx, dy, spec).heights
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_spectral_axes_with_equal_spacing_and_basis_share_one_block(self):
        rng = np.random.default_rng(23)
        g = GradientField(rng.standard_normal((16, 16)), rng.standard_normal((16, 16)),
                          hx=0.7, hy=0.7)
        dx, dy = g.operators(2)
        system = assemble(g, dx, dy, Spectral(cosine_basis(16, 8), cosine_basis(16, 8)))
        assert system.b is system.a
        want = dy.left_product(cosine_basis(16, 8).entries)
        want[:, 0] = 0.0  # D times the constant, written as exact zeros
        assert np.array_equal(system.a, want)

    @pytest.mark.parametrize("hy,bx", [(0.8, cosine_basis(16, 8)), (0.7, gram_basis(16, 8)),
                                       (0.7, cosine_basis(16, 9).drop([0]))])
    def test_spectral_axes_that_differ_keep_their_own_blocks(self, hy, bx):
        rng = np.random.default_rng(24)
        g = GradientField(rng.standard_normal((16, 16)), rng.standard_normal((16, 16)),
                          hx=0.7, hy=hy)
        dx, dy = g.operators(2)
        system = assemble(g, dx, dy, Spectral(cosine_basis(16, 8), bx))
        assert system.b is not system.a
        want = dx.left_product(bx.entries)
        if 0 in bx.columns:
            want[:, bx.columns.index(0)] = 0.0  # D times the constant, written as exact zeros
        assert np.array_equal(system.b, want)

    @pytest.mark.parametrize("spec", SHARED_BLOCK_SPECS, ids=SHARED_BLOCK_IDS)
    def test_equal_axes_share_one_block(self, spec):
        g, dx, dy = square_problem()
        system, to_surface = methods._build(g, dx, dy, spec)
        assert system.b is system.a
        # the same surface as two blocks that are equal but apart
        apart = dataclasses.replace(system, b=system.a.copy())
        assert np.array_equal(reconstruct(g, dx, dy, spec).heights, to_surface(solve(apart)))

    @pytest.mark.parametrize("spec", SHARED_BLOCK_SPECS, ids=SHARED_BLOCK_IDS)
    @pytest.mark.parametrize("shape,hx,hy,order_y", [
        ((16, 16), 0.7, 0.8, 2), ((16, 17), 0.7, 0.7, 2), ((16, 16), 0.7, 0.7, 4),
    ], ids=["spacing", "size", "order"])
    def test_axes_that_differ_keep_their_own_blocks(self, spec, shape, hx, hy, order_y):
        rng = np.random.default_rng(25)
        g = GradientField(rng.standard_normal(shape), rng.standard_normal(shape), hx=hx, hy=hy)
        dx = g.operators(2)[0]
        dy = g.operators(order_y)[1]
        if isinstance(spec, Dirichlet):
            spec = Dirichlet(rng.standard_normal(shape))
        elif getattr(spec, "reference", None) is not None:
            spec = dataclasses.replace(spec, reference=rng.standard_normal(shape))
        system = assemble(g, dx, dy, spec)
        assert system.b is not system.a

    @pytest.mark.parametrize("degree", [1, 2])
    def test_unequal_penalties_keep_their_own_blocks(self, degree):
        g, dx, dy = square_problem()
        system = assemble(g, dx, dy, Tikhonov(lam=0.3, mu=0.6, degree=degree))
        assert system.b is not system.a

    @pytest.mark.parametrize("spec", SHARED_BLOCK_SPECS + [
        Tikhonov(lam=0.3, mu=0.6, degree=1), Tikhonov(lam=0.3, mu=0.6, degree=2),
    ], ids=SHARED_BLOCK_IDS + ["tikhonov-1-unequal", "tikhonov-2-unequal"])
    @pytest.mark.parametrize("shape,hx,hy,order_y", [
        ((16, 16), 0.7, 0.7, 2), ((16, 16), 0.7, 0.8, 2), ((16, 17), 0.7, 0.7, 2),
        ((16, 16), 0.7, 0.7, 4),
    ], ids=["equal", "spacing", "size", "order"])
    def test_one_block_exactly_when_the_operators_are_equal(self, spec, shape, hx, hy, order_y):
        rng = np.random.default_rng(26)
        g = GradientField(rng.standard_normal(shape), rng.standard_normal(shape), hx=hx, hy=hy)
        # two separately built operators, one from numpy scalars: only
        # their values decide
        dx = DiffMatrix(shape[1], hx, 2)
        dy = DiffMatrix(np.int64(shape[0]), np.float64(hy), np.int64(order_y))
        if isinstance(spec, Dirichlet):
            spec = Dirichlet(rng.standard_normal(shape))
        elif getattr(spec, "reference", None) is not None:
            spec = dataclasses.replace(spec, reference=rng.standard_normal(shape))
        alike = not isinstance(spec, Tikhonov) or spec.degree == 0 or spec.lam == spec.mu_value
        system = assemble(g, dx, dy, spec)
        assert (system.b is system.a) == (dx == dy and alike)

    @pytest.mark.parametrize("spec,message", [
        (Spectral(cosine_basis(13, 3), cosine_basis(14, 3)), "y basis sampled on 13 nodes"),
        (Spectral(cosine_basis(12, 3), cosine_basis(15, 3)), "x basis sampled on 15 nodes"),
        (Weighted(CovarianceSet(xx=np.eye(14), xy=np.eye(13), yx=np.eye(14), yy=np.eye(12))),
         "row covariances must be m-by-m"),
        (Weighted(CovarianceSet(xx=np.eye(14), xy=np.eye(12), yx=np.eye(15), yy=np.eye(12))),
         "column covariances must be n-by-n"),
    ], ids=["spectral-y", "spectral-x", "weighted-rows", "weighted-columns"])
    def test_spec_sized_for_another_grid(self, spec, message):
        g, dx, dy = noisy_problem()  # 12x14
        with pytest.raises(DimensionError, match=message):
            assemble(g, dx, dy, spec)

    def test_covariance_validation(self):
        with pytest.raises(ValueError):
            CovarianceSet(xx=np.diag([1.0, 0.0]), xy=np.eye(3), yx=np.eye(2), yy=np.eye(3))
        with pytest.raises(ValueError):
            CovarianceSet(xx=np.array([[1.0, 0.5], [0.0, 1.0]]), xy=np.eye(3),
                          yx=np.eye(2), yy=np.eye(3))
        with pytest.raises(DimensionError, match=r"covariance xy must be square, got \(3, 2\)"):
            CovarianceSet(xx=np.eye(2), xy=np.ones((3, 2)), yx=np.eye(2), yy=np.eye(3))

    @pytest.mark.parametrize("name", ["xx", "xy", "yx", "yy"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_covariance_is_named(self, name, bad):
        blocks = dict(xx=np.eye(2), xy=np.eye(3), yx=np.eye(2), yy=np.eye(3))
        blocks[name] = blocks[name].copy()
        blocks[name][1, 0] = bad
        with pytest.raises(ValueError, match=f"^covariance {name} contains non-finite values$"):
            CovarianceSet(**blocks)

    @pytest.mark.parametrize("name", ["xx", "xy", "yx", "yy"])
    @pytest.mark.parametrize("shape", [(0, 0), (3,)], ids=["empty", "1-d"])
    def test_covariance_that_is_no_grid_is_named(self, name, shape):
        blocks = dict(xx=np.eye(2), xy=np.eye(3), yx=np.eye(2), yy=np.eye(3))
        blocks[name] = np.ones(shape)
        with pytest.raises(DimensionError, match=f"^covariance {name} must be a 2-d grid"):
            CovarianceSet(**blocks)

    def test_diagonal_covariance_roots_are_vectors(self):
        rng = np.random.default_rng(5)
        cov = CovarianceSet(xx=np.diag([4.0, 9.0]), xy=random_covariance(rng, 3, "dense"),
                            yx=np.eye(2), yy=np.eye(3))
        root, inv_root = cov.roots["xx"]
        assert np.array_equal(root, [2.0, 3.0]) and np.array_equal(inv_root, [0.5, 1 / 3])
        assert cov.roots["xy"][0].shape == (3, 3)

    @pytest.mark.parametrize("entries", [[1.0, 0.0, 2.0], [1.0, -0.5, 2.0], [0.0, 0.0, 0.0]])
    def test_bad_diagonal_refused_like_dense_route(self, entries):
        mat = np.diag(entries)
        with pytest.raises(SingularSystemError) as dense:
            sym_sqrt(mat)
        for name in ("xx", "yx"):
            covs = {"xx": np.eye(3), "xy": np.eye(4), "yx": np.eye(3), "yy": np.eye(4), name: mat}
            with pytest.raises(ValueError) as diag:
                CovarianceSet(**covs)
            assert type(diag.value) is ValueError
            assert str(diag.value) == f"covariance {name}: {dense.value}"

    def test_tikhonov_parameter_validation(self):
        with pytest.raises(ValueError):
            Tikhonov(lam=-1.0)
        with pytest.raises(ValueError):
            Tikhonov(lam=1.0, degree=3)
        with pytest.raises(ValueError, match="parameter lam "):
            Tikhonov(lam=True)
        for bad in (1.0, True):
            with pytest.raises(ValueError, match="degree must be an integer"):
                Tikhonov(lam=1.0, degree=bad)
        # numpy scalars are accepted and stored as given
        spec = Tikhonov(lam=np.float32(0.5), degree=np.int64(2))
        assert (spec.lam, spec.degree) == (np.float32(0.5), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_tikhonov_rejects_non_finite_parameters(self, bad):
        with pytest.raises(ValueError, match="parameter lam "):
            Tikhonov(lam=bad)
        with pytest.raises(ValueError, match="parameter mu "):
            Tikhonov(lam=1.0, mu=bad)


class TestGradientMisfit:
    @pytest.mark.parametrize("shape,order", [((9, 13), 2), ((24, 24), 4), ((65, 47), 4)])
    def test_equals_the_out_of_place_expression_bitwise(self, shape, order):
        rng = np.random.default_rng(26)
        g = GradientField(rng.standard_normal(shape), rng.standard_normal(shape), 0.7, 1.3)
        dx, dy = g.operators(order)
        z = rng.standard_normal(shape)
        want = float(np.linalg.norm(apply_dx(z, dx) - g.zx) ** 2
                     + np.linalg.norm(apply_dy(z, dy) - g.zy) ** 2)
        assert gradient_misfit(z, g, dx, dy) == want

    def test_leaves_its_inputs_alone(self):
        rng = np.random.default_rng(27)
        g = GradientField(rng.standard_normal((9, 13)), rng.standard_normal((9, 13)))
        dx, dy = g.operators(2)
        z = rng.standard_normal((9, 13))
        before = (z.copy(), g.zx.copy(), g.zy.copy())
        gradient_misfit(z, g, dx, dy)
        assert all(np.array_equal(a, b) for a, b in zip((z, g.zx, g.zy), before))


class TestOperatorsMatchTheGradient:
    """Every entry point that takes a gradient and its operators refuses
    operators of another node count or spacing: an operator at spacing 2
    on a gradient labelled 1 would return a surface scaled for the one and
    labelled with the other."""

    ENTRY_POINTS = {
        "assemble": lambda g, dx, dy, z: assemble(g, dx, dy, Gls()),
        "reconstruct": lambda g, dx, dy, z: reconstruct(g, dx, dy, Gls()),
        "build_cache": lambda g, dx, dy, z: build_cache(g, dx, dy),
        "lcurve_reconstruct": lambda g, dx, dy, z: lcurve_reconstruct(g, dx, dy, LCurveTikhonov()),
        "oracle_gls": lambda g, dx, dy, z: oracle_gls(g, dx, dy),
        "gradient_misfit": lambda g, dx, dy, z: gradient_misfit(z, g, dx, dy),
        "evaluate": lambda g, dx, dy, z: evaluate(z, z, g, dx, dy),
    }

    @staticmethod
    def problem():
        rng = np.random.default_rng(28)
        g = GradientField(rng.standard_normal((8, 9)), rng.standard_normal((8, 9)), 1.0, 1.0)
        return g, Surface(rng.standard_normal((8, 9)))

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("hx,hy", [(2.0, 2.0), (2.0, 1.0), (1.0, 1.0 + 2.0**-52)],
                             ids=["both", "x", "y-one-ulp"])
    def test_other_spacing_refused(self, entry, hx, hy):
        g, z = self.problem()
        with pytest.raises(DimensionError, match="spacings"):
            self.ENTRY_POINTS[entry](g, diff_matrix(9, hx), diff_matrix(8, hy), z)

    def test_refusal_prints_the_spacings_in_full(self):
        # 2/49 and the step of linspace(-1, 1, 50) differ in the sixteenth
        # significant digit, so six digits would print the two alike
        rng = np.random.default_rng(29)
        g = GradientField(rng.standard_normal((50, 50)), rng.standard_normal((50, 50)),
                          2 / 49, 2 / 49)
        x = np.linspace(-1, 1, 50)
        d = diff_matrix(50, x[1] - x[0])
        want = ("operator spacings (x 0.04081632653061229, y 0.04081632653061229) differ from "
                "the gradient's (hx 0.04081632653061224, hy 0.04081632653061224)")
        with pytest.raises(DimensionError) as exc:
            reconstruct(g, d, d, Gls())
        assert str(exc.value) == want

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_other_node_count_refused(self, entry):
        g, z = self.problem()
        dx, dy = g.operators(2)
        with pytest.raises(DimensionError, match="x operator has 8 nodes"):
            self.ENTRY_POINTS[entry](g, dy, dy, z)
        with pytest.raises(DimensionError, match="y operator has 9 nodes"):
            self.ENTRY_POINTS[entry](g, dx, dx, z)


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

    @pytest.mark.parametrize("lam", [1e-10, 1e-7, 1e-5])
    def test_tiny_degree_zero_parameter_is_solved_near_gls(self, lam):
        # the shift lifts the constant's zero divisor to 2 lam^2, far below
        # the pencil's rounding; the pinned solve keeps that constant at zero
        g, dx, dy = noisy_problem(m=20, n=24, seed=40)
        z_gls = reconstruct(g, dx, dy, Gls()).heights
        z_t = reconstruct(g, dx, dy, Tikhonov(lam=lam)).heights
        scale = np.linalg.norm(z_gls)
        assert abs(z_t.mean()) <= 1e-14 * scale
        assert np.linalg.norm(z_t - z_gls) <= 10 * lam * lam * scale + 1e-12 * scale

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

    @pytest.mark.parametrize("with_reference", [False, True])
    def test_equal_degree_one_parameters_shrink_gls_toward_reference(self, with_reference):
        g, dx, dy = noisy_problem(m=11, n=13, seed=42, order=4)
        rng = np.random.default_rng(43)
        z0 = 3.0 + rng.standard_normal((g.m, g.n)) if with_reference else np.zeros((g.m, g.n))
        c = z0 - z0.mean()
        z_gls = reconstruct(g, dx, dy, Gls()).heights
        for lam in (0.3, 1.0, 4.0):
            spec = Tikhonov(lam=lam, degree=1, reference=z0 if with_reference else None)
            got = reconstruct(g, dx, dy, spec).heights
            want = c + (z_gls - c) / (1 + lam * lam)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), lam
            # parity with the dense oracle of the stacked cost
            oracle = kron_tikhonov_minnorm(g, dx, dy, Tikhonov(lam=lam, degree=1, reference=z0))
            oracle -= oracle.mean()
            assert np.linalg.norm(got - oracle) <= 1e-10 * np.linalg.norm(oracle), lam

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

    def test_unknown_spec_refused(self):
        g, dx, dy = noisy_problem()
        with pytest.raises(TypeError, match="unknown method spec"):
            reconstruct(g, dx, dy, "gls")

    def test_dirichlet_needs_interior(self):
        # a 2-row grid has no interior: no operator on its two nodes exists
        g = GradientField(np.zeros((2, 5)), np.zeros((2, 5)))
        with pytest.raises(DimensionError):
            reconstruct(g, *g.operators(2), Dirichlet(np.zeros((2, 5))))


class TestWeightedOracle:
    @pytest.mark.parametrize("kinds", [
        ("diagonal",) * 4,
        ("dense",) * 4,
        ("diagonal", "dense", "dense", "diagonal"),
        ("dense", "diagonal", "diagonal", "dense"),
    ])
    @pytest.mark.parametrize("order", [2, 4])
    def test_matches_dense_oracle(self, order, kinds):
        rng = np.random.default_rng(80 + 3 * order + len(set(kinds)))
        for m, n in ((3, 4), (5, 7), (9, 6), (12, 12)):
            if min(m, n) < order + 1:
                continue
            g = GradientField(rng.standard_normal((m, n)), rng.standard_normal((m, n)),
                              hx=0.7, hy=1.3)
            dx, dy = g.operators(order)
            sizes = {"xx": n, "xy": m, "yx": n, "yy": m}
            cov = CovarianceSet(**{name: random_covariance(rng, sizes[name], kind)
                                   for name, kind in zip(("xx", "xy", "yx", "yy"), kinds)})
            got = reconstruct(g, dx, dy, Weighted(cov)).heights
            want = kron_weighted_minnorm(g, dx, dy, cov)
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err <= 1e-10, (m, n, err)


class TestSpectralOracle:
    @pytest.mark.parametrize("spacing", [(0.7, 1.3), (1.3, 0.7)])
    @pytest.mark.parametrize("family", ["cosine", "gram", "haar"])
    @pytest.mark.parametrize("order", [2, 4])
    def test_matches_dense_oracle(self, order, family, spacing):
        rng = np.random.default_rng(90 + 3 * order + len(family))
        checked = 0
        for m, n in ORACLE_SHAPES:
            if min(m, n) < order + 1:
                continue
            if family == "haar" and (m & (m - 1) or n & (n - 1)):
                continue
            g = GradientField(rng.standard_normal((m, n)), rng.standard_normal((m, n)),
                              hx=spacing[0], hy=spacing[1])
            dx, dy = g.operators(order)
            full_y, full_x = make_basis(family, m, m), make_basis(family, n, n)
            half_y, half_x = (make_basis(family, m, (m + 1) // 2),
                              make_basis(family, n, (n + 1) // 2))
            # complete, half-truncated, and band-pass (no constant column,
            # so no null vectors)
            for by, bx in ((full_y, full_x), (half_y, half_x),
                           (full_y.drop([0]), full_x.drop([0]))):
                got = reconstruct(g, dx, dy, Spectral(by, bx)).heights
                want = kron_spectral_minnorm(g, dx, dy, by, bx)
                err = np.linalg.norm(got - want) / np.linalg.norm(want)
                assert err <= 1e-10, (m, n, by.p, bx.p, err)
                checked += 1
        assert checked >= 3  # one shape of each kind at least


class TestDirichletOracle:
    @pytest.mark.parametrize("spacing", [(0.7, 1.3), (1.3, 0.7)])
    @pytest.mark.parametrize("order", [2, 4])
    def test_matches_dense_oracle(self, order, spacing):
        rng = np.random.default_rng(95 + order)
        for m, n in ORACLE_SHAPES:
            if min(m, n) < order + 1:
                continue
            g = GradientField(rng.standard_normal((m, n)), rng.standard_normal((m, n)),
                              hx=spacing[0], hy=spacing[1])
            dx, dy = g.operators(order)
            zb = rng.standard_normal((m, n))  # a frame and a nonzero interior
            got = reconstruct(g, dx, dy, Dirichlet(zb)).heights
            want = kron_dirichlet(g, dx, dy, zb)
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err <= 1e-10, (m, n, err)


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

    @pytest.mark.parametrize("problem", [noisy_problem, square_problem], ids=["12x14", "16x16"])
    @pytest.mark.parametrize("spec", [Gls(), Tikhonov(lam=0.7, mu=0.3),
                                      Tikhonov(lam=0.7, mu=0.3, degree=2),
                                      Tikhonov(lam=0.7, degree=2)],
                             ids=["gls", "tikhonov-0", "tikhonov-2", "tikhonov-2-equal"])
    def test_no_reference_passes_the_data_uncopied(self, problem, spec):
        # the stacked penalty rows of degree 2 carry no data, so no degree pads it
        g, dx, dy = problem()
        system = assemble(g, dx, dy, spec)
        assert system.f is g.zy and system.g is g.zx
        assert system.f.shape == system.g.shape == (g.m, g.n)

    def test_reference_shape_mismatch(self):
        g, dx, dy = noisy_problem()
        with pytest.raises(DimensionError):
            reconstruct(g, dx, dy, Tikhonov(lam=1.0, reference=np.zeros((g.m, g.n + 1))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_non_finite_reference_refused(self, degree, bad):
        g, dx, dy = noisy_problem()
        z0 = np.ones((g.m, g.n))
        z0[2, 3] = bad
        with pytest.raises(ValueError, match="reference surface contains non-finite values"):
            assemble(g, dx, dy, Tikhonov(lam=0.5, degree=degree, reference=z0))


class TestDirichletBoundary:
    def test_missing_boundary_refused(self):
        g, dx, dy = noisy_problem()
        with pytest.raises(DimensionError, match="needs a boundary grid"):
            reconstruct(g, dx, dy, Dirichlet(None))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cell", [(0, 0), (4, 5)])  # on the frame, in the interior
    def test_non_finite_boundary_refused(self, cell, bad):
        g, dx, dy = noisy_problem()
        zb = np.zeros((g.m, g.n))
        zb[cell] = bad
        with pytest.raises(ValueError, match="boundary grid contains non-finite values"):
            reconstruct(g, dx, dy, Dirichlet(zb))


def covariance_set(rng, m, n, kind):
    """Covariances (xx, xy, yx, yy) for an m-by-n grid, all diagonal or all dense."""
    return CovarianceSet(*(random_covariance(rng, k, kind) for k in (n, m, n, m)))


# every shared-block spec, each spectral family, and diagonal and dense WLS
OPERATOR_PART_SPECS = SHARED_BLOCK_SPECS + [
    Spectral(make_basis(family, 16, 8), make_basis(family, 16, 8))
    for family in ("cosine", "gram", "haar")
] + [Weighted(covariance_set(np.random.default_rng(26), 16, 16, kind))
     for kind in ("diagonal", "dense")]
OPERATOR_PART_IDS = SHARED_BLOCK_IDS + ["cosine", "gram", "haar", "wls-diagonal", "wls-dense"]


class TestOperatorPart:
    """A method's operator part is built from the spec and the operators
    alone, so one part serves every gradient on its grid."""

    @pytest.mark.parametrize("spec", OPERATOR_PART_SPECS, ids=OPERATOR_PART_IDS)
    @pytest.mark.parametrize("hy", [0.7, 0.8], ids=["equal-axes", "unequal-spacing"])
    def test_one_part_serves_two_gradients(self, spec, hy):
        rng = np.random.default_rng(27)
        grads = [GradientField(rng.standard_normal((16, 16)), rng.standard_normal((16, 16)),
                               hx=0.7, hy=hy) for _ in range(2)]
        dx, dy = grads[0].operators(2)
        part = methods._operator_part(dx, dy, spec)
        systems = [part.system(g, dx, dy) for g in grads]
        for g, system in zip(grads, systems):
            fresh = assemble(g, dx, dy, spec)
            for name in ("a", "b", "f", "g"):
                assert np.array_equal(getattr(system, name), getattr(fresh, name))
            for name in ("u", "v"):
                want = getattr(fresh, name)
                assert (getattr(system, name) is None if want is None
                        else np.array_equal(getattr(system, name), want))
            assert (system.shift, system.b is system.a) == (fresh.shift, fresh.b is fresh.a)
            assert np.array_equal(part.to_surface(solve(system)),
                                  reconstruct(g, dx, dy, spec).heights)
        first, second = systems
        assert not np.array_equal(first.f, second.f)
        # the blocks and null vectors are the part's own, not rebuilt per gradient
        assert first.a is second.a is part.a and first.b is second.b is part.b
        for name in ("u", "v"):
            vec = getattr(part, name)
            assert all(getattr(s, name) is None if vec is None
                       else np.shares_memory(getattr(s, name), vec) for s in systems)


def hook_specs(g, rng):
    """One spec of each kind a reconstruct can take, sized for g's grid."""
    m, n = g.m, g.n
    return {
        "gls": Gls(), "tikhonov-0": Tikhonov(lam=0.3), "tikhonov-1": Tikhonov(lam=0.3, degree=1),
        "tikhonov-2": Tikhonov(lam=0.3, mu=0.5, degree=2),
        "tikhonov-reference": Tikhonov(lam=0.3, reference=rng.standard_normal((m, n))),
        "dirichlet": Dirichlet(rng.standard_normal((m, n))),
        "spectral": Spectral(cosine_basis(m, m // 2), cosine_basis(n, n // 2)),
        "wls-diagonal": Weighted(covariance_set(rng, m, n, "diagonal")),
        "wls-dense": Weighted(covariance_set(rng, m, n, "dense")),
    }


@pytest.mark.parametrize("name", ["gls", "tikhonov-0", "tikhonov-1", "tikhonov-2",
                                  "tikhonov-reference", "dirichlet", "spectral", "wls-diagonal",
                                  "wls-dense"])
@pytest.mark.parametrize("shape,order", [((16, 20), 2), ((33, 31), 2), ((64, 64), 2),
                                         ((16, 20), 4), ((33, 31), 4), ((64, 64), 4)])
def test_reconstruct_solves_through_the_hooked_name(monkeypatch, name, shape, order):
    # the benchmark times each method's solve by wrapping methods.solve, so
    # every reconstruct must call it exactly once, with the system it solves;
    # it scores that solve from phi_shape, u, rhs() and residual(phi) alone
    rng = np.random.default_rng(28)
    g = GradientField(rng.standard_normal(shape), rng.standard_normal(shape), hx=0.3, hy=0.4)
    dx, dy = g.operators(order)
    spec = hook_specs(g, rng)[name]
    calls = []

    def recorder(system):
        calls.append((system, solve(system)))
        return calls[-1][1]

    monkeypatch.setattr(methods, "solve", recorder)
    reconstruct(g, dx, dy, spec)
    assert len(calls) == 1
    system, phi = calls[0]
    assert isinstance(system, SylvesterSystem)
    assert system.phi_shape == phi.shape and work_estimate(*system.phi_shape) > 0
    assert system.u is None or system.u.shape == phi.shape[:1]
    assert system.residual(phi) <= 1e-10 * np.linalg.norm(system.rhs())

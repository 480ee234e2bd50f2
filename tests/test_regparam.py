import numpy as np
import pytest

from surfrec import (
    DimensionError, Factorization, Gls, GradientField, LCurveTikhonov,
    SingularSystemError, SpectralCache, Surface, Tikhonov, build_cache, bump_surface, corner,
    default_bump_spec, default_lambda_grid, diff_matrix, evaluate, filter_factors,
    gradient_misfit, l_curve, lcurve_reconstruct, read_grid, reconstruct,
    reconstruct_from_cache, regparam, tikhonov_coefficients, write_grid,
)
from surfrec.cli import main
from surfrec.simulate import NoiseSpec, add_noise, run_method, trial_seed
from surfrec.sylvester import SylvesterSystem, factor, solve


def noisy_problem(m=16, n=20, seed=41, level=0.2, order=2):
    z_true, g = bump_surface(default_bump_spec(m, n))
    g = add_noise(g, NoiseSpec("iid", level, seed))
    dx, dy = g.operators(order)
    return z_true, g, dx, dy


def tiny_cache(alpha, beta, p, q):
    """Hand-built cache for exercising the entrywise formulas directly.

    alpha and beta stand for the singular values of the x and y operators:
    the eigenvalues are beta_i^2 and alpha_j^2, and the transformed
    right-hand side is beta_i p_ij + alpha_j q_ij.
    """
    alpha = np.atleast_1d(np.asarray(alpha, float))
    beta = np.atleast_1d(np.asarray(beta, float))
    factors = Factorization(lp=beta**2, up=np.eye(beta.size),
                            lq=alpha**2, uq=np.eye(alpha.size))
    rhs_t = (beta[:, None] * np.atleast_2d(np.asarray(p, float))
             + alpha[None, :] * np.atleast_2d(np.asarray(q, float)))
    return SpectralCache(factors=factors, rhs_t=rhs_t, misfit0=0.0)


def gcv_pick(cache, points):
    """Oracle: the grid parameter of least generalized cross-validation,
    rho^2 / (2mn - sum f_ij)^2 (Golub, Heath & Wahba, Technometrics 21, 1979)."""
    size = 2 * cache.rhs_t.size
    scores = [rho**2 / (size - np.sum(filter_factors(cache, lam))) ** 2
              for lam, rho, _ in points]
    return points[int(np.argmin(scores))][0]


def per_point_l_curve(cache, grid):
    """Reference: each L-curve point from tikhonov_coefficients and
    Factorization.divide, with fresh arrays at every parameter."""
    points = []
    for lam in grid:
        shift = 2.0 * lam * lam
        coeffs = tikhonov_coefficients(cache, lam)
        excess = shift * shift * np.sum(cache.factors.divide(coeffs * coeffs))
        rho_sq = cache.misfit0 + excess
        eta_sq = np.linalg.norm(coeffs) ** 2
        points.append((float(lam), float(np.sqrt(rho_sq)), float(np.sqrt(eta_sq))))
    return points


def assert_points_close(got, want, rtol=1e-13):
    """Same parameters; rho and eta within rtol, relative."""
    assert len(got) == len(want)
    for (lam, rho, eta), (lam_w, rho_w, eta_w) in zip(got, want):
        assert lam == lam_w
        assert abs(rho - rho_w) <= rtol * rho_w
        assert abs(eta - eta_w) <= rtol * eta_w


def kron_tikhonov_minnorm(g, dx, dy, lam):
    """Oracle: minimum-norm least squares of the stacked degree-0 Tikhonov
    system, eliminated as one dense Kronecker-structured matrix."""
    m, n = g.m, g.n
    coeff = np.vstack([
        np.kron(np.eye(n), dy.entries),
        np.kron(dx.entries, np.eye(m)),
        lam * np.eye(m * n),
        lam * np.eye(m * n),
    ])
    rhs = np.concatenate([g.zy.ravel(order="F"), g.zx.ravel(order="F"), np.zeros(2 * m * n)])
    sol, *_ = np.linalg.lstsq(coeff, rhs, rcond=None)
    return sol.reshape((m, n), order="F")


class TestBuildCache:
    def test_exactly_one_zero_singular_value_per_operator(self):
        _, g, dx, dy = noisy_problem()
        cache = build_cache(g, dx, dy)
        fac = cache.factors
        for evals, vecs in ((fac.lp, fac.up), (fac.lq, fac.uq)):
            # eigenvalues of D.T D are the squared singular values of D
            assert np.all(np.diff(evals) >= 0)
            assert evals[0] >= -1e-12 * evals[-1]
            assert np.count_nonzero(evals <= 1e-12 * evals[-1]) == 1
            k = vecs.shape[0]
            assert np.max(np.abs(vecs.T @ vecs - np.eye(k))) <= 1e-10
        assert fac.pinned

    def test_zero_gradient_transforms_to_zero(self):
        g = GradientField(np.zeros((8, 8)), np.zeros((8, 8)))
        cache = build_cache(g, *g.operators(2))
        assert np.max(np.abs(cache.rhs_t)) == 0.0
        assert cache.misfit0 == 0.0

    def test_operator_grid_mismatch(self):
        _, g, dx, dy = noisy_problem()
        with pytest.raises(DimensionError, match="x operator"):
            build_cache(g, dy, dy)
        with pytest.raises(DimensionError, match="y operator"):
            build_cache(g, dx, dx)

    def test_rank_deficient_operator_refused(self):
        # a block with a two-dimensional null space leaves the surface
        # undetermined beyond its constant; factor, which the cache and the
        # GLS reconstruction both go through, refuses it, and so does solve
        d = diff_matrix(6, 1.0, 2).entries
        extra = np.arange(6.0) - 2.5
        d = d @ (np.eye(6) - np.outer(extra, extra) / (extra @ extra))
        rng = np.random.default_rng(45)
        system = SylvesterSystem(a=d, b=d, f=rng.standard_normal((6, 6)),
                                 g=rng.standard_normal((6, 6)), u=np.ones(6), v=np.ones(6))
        for call in (factor, solve):
            with pytest.raises(SingularSystemError, match="null space is larger than one"):
                call(system)

    def test_zero_parameter_reproduces_gls(self):
        _, g, dx, dy = noisy_problem(seed=42)
        cache = build_cache(g, dx, dy)
        z_cache = reconstruct_from_cache(cache, 0.0)
        z_gls = reconstruct(g, dx, dy, Gls())
        assert np.max(np.abs(z_cache.heights - z_gls.heights)) <= 1e-8


class TestCoefficients:
    def test_hand_value(self):
        cache = tiny_cache(3.0, 4.0, 1.0, 2.0)
        got = tikhonov_coefficients(cache, 1.0)[0, 0]
        assert got == pytest.approx(10.0 / 27.0, abs=1e-15)

    def test_large_parameter_drives_coefficients_to_zero(self):
        _, g, dx, dy = noisy_problem(seed=43)
        cache = build_cache(g, dx, dy)
        small = tikhonov_coefficients(cache, 1e8)
        assert np.max(np.abs(small)) <= 1e-10

    def test_zero_parameter_is_plain_quotient(self):
        cache = tiny_cache(3.0, 4.0, 1.0, 2.0)
        got = tikhonov_coefficients(cache, 0.0)[0, 0]
        assert got == pytest.approx(10.0 / 25.0, abs=1e-15)

    def test_rejects_negative_parameter(self):
        cache = tiny_cache(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            tikhonov_coefficients(cache, -0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_parameter(self, bad):
        cache = tiny_cache(1.0, 1.0, 1.0, 1.0)
        for call in (tikhonov_coefficients, filter_factors, reconstruct_from_cache):
            with pytest.raises(ValueError, match="lam"):
                call(cache, bad)
        with pytest.raises(ValueError, match="lam"):
            l_curve(cache, [0.5, bad])


class TestFilterFactors:
    def test_all_ones_at_zero(self):
        _, g, dx, dy = noisy_problem(seed=44)
        cache = build_cache(g, dx, dy)
        factors = filter_factors(cache, 0.0)
        mu_sq = cache.operator_eigenvalues()
        live = mu_sq > 1e-10 * mu_sq.max()
        assert np.max(np.abs(factors[live] - 1.0)) <= 1e-10

    def test_half_at_matching_parameter(self):
        cache = tiny_cache(3.0, 4.0, 1.0, 1.0)
        lam = np.sqrt((3.0**2 + 4.0**2) / 2.0)
        assert filter_factors(cache, lam)[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_monotone_in_parameter_and_bounded(self):
        _, g, dx, dy = noisy_problem(seed=45)
        cache = build_cache(g, dx, dy)
        previous = filter_factors(cache, 0.0)
        for lam in np.geomspace(1e-3, 1e3, 13):
            current = filter_factors(cache, lam)
            assert np.all(current <= previous + 1e-14)
            assert np.all(current >= 0.0) and np.all(current <= 1.0)
            previous = current


class TestLCurve:
    def test_monotone_residual_and_penalty(self):
        _, g, dx, dy = noisy_problem(seed=46)
        cache = build_cache(g, dx, dy)
        pts = l_curve(cache, default_lambda_grid(cache))
        rho = [p[1] for p in pts]
        eta = [p[2] for p in pts]
        assert all(b >= a - 1e-12 * (1 + a) for a, b in zip(rho, rho[1:]))
        assert all(b <= a + 1e-12 * (1 + a) for a, b in zip(eta, eta[1:]))

    def test_penalty_vanishes_for_huge_parameter(self):
        _, g, dx, dy = noisy_problem(seed=47)
        cache = build_cache(g, dx, dy)
        (_, _, eta), = l_curve(cache, [1e9])
        assert eta <= 1e-8

    def test_small_parameter_matches_direct_gls_residual(self):
        _, g, dx, dy = noisy_problem(seed=48)
        cache = build_cache(g, dx, dy)
        (_, rho, _), = l_curve(cache, [1e-9])
        z_gls = reconstruct(g, dx, dy, Gls())
        direct = np.sqrt(gradient_misfit(z_gls, g, dx, dy))
        assert abs(rho - direct) <= 1e-8 * max(1.0, direct)

    def test_transformed_residual_equals_direct_residual(self):
        _, g, dx, dy = noisy_problem(seed=49)
        cache = build_cache(g, dx, dy)
        for lam in (1e-2, 0.5, 3.0):
            (_, rho, _), = l_curve(cache, [lam])
            direct = np.sqrt(gradient_misfit(reconstruct_from_cache(cache, lam), g, dx, dy))
            assert abs(rho - direct) <= 1e-9 * max(1.0, direct)

    @pytest.mark.parametrize("shape,order", [((16, 20), 2), ((33, 24), 4), ((24, 24), 2)])
    def test_points_agree_with_the_per_point_formula(self, shape, order):
        # the sweep sums in blocks, so only rounding separates it from the
        # per-point recipe, and the corner it picks is the same
        _, g, dx, dy = noisy_problem(*shape, seed=50, order=order)
        cache = build_cache(g, dx, dy)
        grid = default_lambda_grid(cache, 12)
        got, want = l_curve(cache, grid), per_point_l_curve(cache, grid)
        assert_points_close(got, want)
        assert corner(got) == corner(want)

    @pytest.mark.parametrize("cells", [None, 100], ids=["default-block", "block-of-5"])
    @pytest.mark.parametrize("data", ["clean", "iid-1%", "iid-5%", "outliers-2%"])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("shape", [(9, 13), (65, 47), (129, 97)],
                             ids=["9x13", "65x47", "129x97"])
    def test_blocked_sweep_picks_the_per_point_corner(self, monkeypatch, shape, order, data,
                                                      cells):
        # pencils of 117, 3055 and 12513 entries; the default block of 3276
        # entries leaves one partial block, one partial block, and three full
        # blocks and a partial one, and blocks of 5 end partial on two of them
        if cells is not None:
            monkeypatch.setattr(regparam, "_SWEEP_CELLS", cells)
        _, g = bump_surface(default_bump_spec(*shape))
        if data != "clean":
            kind, level = data.split("-")
            noise = "iid" if kind == "iid" else "outliers"
            g = add_noise(g, NoiseSpec(noise, float(level[:-1]) / 100, 57))
        dx, dy = g.operators(order)
        cache = build_cache(g, dx, dy)
        grid = default_lambda_grid(cache, 20)
        got, want = l_curve(cache, grid), per_point_l_curve(cache, grid)
        assert_points_close(got, want)
        assert corner(got) == corner(want)

    def test_grid_validation(self):
        cache = tiny_cache(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            l_curve(cache, [])
        with pytest.raises(ValueError):
            l_curve(cache, [1.0, 0.5])
        with pytest.raises(ValueError):
            l_curve(cache, [-1.0, 1.0])


class TestDefaultGrid:
    @pytest.mark.parametrize("count", [3.0, 2.5, "5", True], ids=["integral-float", "fraction",
                                                                  "string", "bool"])
    def test_count_must_be_an_integer(self, count):
        cache = build_cache(*noisy_problem(seed=58)[1:])
        with pytest.raises(ValueError, match="must be an integer"):
            default_lambda_grid(cache, count)

    def test_numpy_integer_count_is_accepted(self):
        cache = build_cache(*noisy_problem(seed=58)[1:])
        grid = default_lambda_grid(cache, np.int64(7))
        assert np.array_equal(grid, default_lambda_grid(cache, 7))

    def test_too_few_points_refused(self):
        cache = build_cache(*noisy_problem(seed=58)[1:])
        with pytest.raises(ValueError, match="at least two"):
            default_lambda_grid(cache, 1)


class TestCorner:
    def test_sharp_knee_polyline(self):
        # an L with arms along the axes of the log-log plane
        points = []
        for i in range(8):
            points.append((10.0 ** (i - 10), 1.0, 10.0 ** (8 - i)))
        for i in range(8):
            points.append((10.0 ** (i - 2), 10.0 ** (1 + i), 1.0))
        assert corner(points) == points[7][0]

    def test_straight_line_returns_smallest(self):
        points = [(10.0 ** (-3 + 0.3 * i), 10.0 ** (0.2 * i), 10.0 ** (-0.3 * i))
                  for i in range(12)]
        assert corner(points) == points[0][0]

    def test_concave_bend_is_no_corner(self):
        # the knee turns clockwise: flat arm first, steep arm second
        points = []
        for i in range(8):
            points.append((10.0 ** (i - 10), 10.0 ** (1 + i), 10.0 ** 8))
        for i in range(8):
            points.append((10.0 ** (i - 2), 10.0 ** 9, 10.0 ** (7 - i)))
        assert corner(points) == points[0][0]

    @pytest.mark.parametrize("order,level", [(2, 0.0), (4, 0.0), (4, 0.05)])
    def test_pick_matches_gcv_oracle(self, order, level):
        # noise-free gradients give an L-curve without a noise-driven knee;
        # its concave bends are no corner and must not be picked
        z_true, g = bump_surface(default_bump_spec(150, 150))
        g = add_noise(g, NoiseSpec("iid", level, 3))
        dx, dy = g.operators(order)
        cache = build_cache(g, dx, dy)
        points = l_curve(cache, default_lambda_grid(cache))

        def err(lam):
            return evaluate(reconstruct_from_cache(cache, lam), z_true, g, dx, dy).rel_error
        assert err(corner(points)) <= 1.05 * err(gcv_pick(cache, points))

    @pytest.mark.filterwarnings("error")
    def test_zero_gradient_returns_smallest(self):
        g = GradientField(np.zeros((40, 30)), np.zeros((40, 30)))
        dx, dy = g.operators(4)
        cache = build_cache(g, dx, dy)
        grid = default_lambda_grid(cache)
        points = l_curve(cache, grid)
        assert all(rho == eta == 0.0 for _, rho, eta in points)
        assert corner(points) == grid[0]

    def test_needs_five_points(self):
        with pytest.raises(ValueError):
            corner([(1.0, 1.0, 1.0)] * 4)

    def test_monte_carlo_beats_plain_least_squares(self):
        # a surface with most of its energy away from the lowest modes, so
        # damping pays; the corner parameter must do at least as well as the
        # unregularized solve in at least 80 percent of trials
        n = 48
        x = np.linspace(-1, 1, n)
        xg, yg = np.meshgrid(x, x)
        k = 5 * np.pi
        z_true = Surface(np.cos(k * xg) * np.cos(k * yg), x[1] - x[0], x[1] - x[0])
        g0 = GradientField(-k * np.sin(k * xg) * np.cos(k * yg),
                           -k * np.cos(k * xg) * np.sin(k * yg),
                           x[1] - x[0], x[1] - x[0])
        dx, dy = g0.operators(4)
        wins = 0
        trials = 50
        for t in range(trials):
            g = add_noise(g0, NoiseSpec("iid", 0.1, trial_seed(7500, 0, t)))
            cache = build_cache(g, dx, dy)
            lam = corner(l_curve(cache, default_lambda_grid(cache)))
            err_t = evaluate(reconstruct_from_cache(cache, lam), z_true, g, dx, dy).rel_error
            err_g = evaluate(reconstruct_from_cache(cache, 0.0), z_true, g, dx, dy).rel_error
            wins += (err_t <= err_g)
        assert wins >= 0.8 * trials


class TestPathEquivalence:
    @pytest.mark.parametrize("lam", [0.0, 1e-3, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("order", [2, 4])
    def test_cache_path_matches_dense_oracle(self, order, lam):
        rng = np.random.default_rng(52 + order)
        for m, n in ((3, 4), (5, 7), (8, 6), (11, 12), (12, 12)):
            if min(m, n) < order + 1:
                continue
            for hx, hy in ((0.7, 1.3), (1.3, 0.7)):
                g = GradientField(rng.standard_normal((m, n)), rng.standard_normal((m, n)), hx, hy)
                dx, dy = g.operators(order)
                cache = build_cache(g, dx, dy)
                got = reconstruct_from_cache(cache, lam).heights
                # D 1 = 0, so the exact solution is mean free at every lam;
                # the oracle's mean is its rounding divided by 2 lam^2 and
                # is left out of the comparison
                want = kron_tikhonov_minnorm(g, dx, dy, lam)
                want -= want.mean()
                scale = np.linalg.norm(want)
                assert abs(got.mean()) <= 1e-13 * scale
                err = np.linalg.norm(got - want) / scale
                assert err <= 1e-10, (m, n, hx, hy, err)
                if lam > 0:
                    (_, rho, eta), = l_curve(cache, [lam])
                    rho_want = np.sqrt(gradient_misfit(want, g, dx, dy))
                    assert rho == pytest.approx(rho_want, rel=1e-10)
                    assert eta == pytest.approx(scale, rel=1e-10)

    @pytest.mark.parametrize("lam", [1e-3, 1e-1, 1.0, 10.0])
    def test_cache_path_matches_stacked_path(self, lam):
        # both routes divide through the one factorization and project out
        # the null pair in its back-map
        rng = np.random.default_rng(50)
        g = GradientField(rng.standard_normal((18, 18)), rng.standard_normal((18, 18)))
        dx, dy = g.operators(2)
        cache = build_cache(g, dx, dy)
        z_fast = reconstruct_from_cache(cache, lam)
        z_stacked = reconstruct(g, dx, dy, Tikhonov(lam=lam))
        rel = np.linalg.norm(z_fast.heights - z_stacked.heights)
        rel /= max(np.linalg.norm(z_stacked.heights), 1e-30)
        assert rel <= 1e-8

    @pytest.mark.parametrize("lam", [1e-3, 0.5, 10.0])
    @pytest.mark.parametrize("shape,hx,hy,order", [
        ((24, 24), 1.0, 1.0, 4), ((20, 31), 0.7, 1.3, 2),
    ], ids=["square-equal", "20x31-anisotropic"])
    def test_cache_surface_is_the_degree0_surface_bitwise(self, shape, hx, hy, order, lam):
        # the same factorization, divisor and back-map, null projection
        # included, so the two routes do the same arithmetic
        rng = np.random.default_rng(53)
        g = GradientField(rng.standard_normal(shape), rng.standard_normal(shape), hx, hy)
        dx, dy = g.operators(order)
        got = reconstruct_from_cache(build_cache(g, dx, dy), lam).heights
        assert np.array_equal(got, reconstruct(g, dx, dy, Tikhonov(lam=lam)).heights)

    def test_zero_and_tiny_parameter_agree(self):
        _, g, dx, dy = noisy_problem(seed=51)
        cache = build_cache(g, dx, dy)
        z0 = reconstruct_from_cache(cache, 0.0).heights
        z_eps = reconstruct_from_cache(cache, 1e-12).heights
        assert np.linalg.norm(z_eps - z0) <= 1e-9 * max(np.linalg.norm(z0), 1.0)


def gradient_files(tmp_path, g):
    zx, zy = tmp_path / "zx.g2s", tmp_path / "zy.g2s"
    write_grid(zx, g.zx, g.hx, g.hy)
    write_grid(zy, g.zy, g.hx, g.hy)
    return str(zx), str(zy)


class TestLCurveRoute:
    """lcurve_reconstruct is the one L-curve route every caller takes."""

    STEPS = ("lcurve_reconstruct", "build_cache", "default_lambda_grid", "l_curve", "corner",
             "reconstruct_from_cache")

    @pytest.mark.parametrize("points", [5, 7, 20])
    def test_callers_match_the_explicit_recipe(self, tmp_path, capsys, points):
        _, g, dx, dy = noisy_problem(seed=53, order=4)
        cache = build_cache(g, dx, dy)
        lam_want = corner(l_curve(cache, default_lambda_grid(cache, points)))
        z_want = reconstruct_from_cache(cache, lam_want).heights
        lam, z = lcurve_reconstruct(g, dx, dy, LCurveTikhonov(points))
        assert lam == lam_want and np.array_equal(z.heights, z_want)
        assert np.array_equal(run_method(g, dx, dy, LCurveTikhonov(points)).heights, z_want)
        zx, zy = gradient_files(tmp_path, g)
        out = tmp_path / "z.g2s"
        assert main(["tikhonov", zx, zy, "--lcurve", "--points", str(points), "--order", "4",
                     "--out", str(out)]) == 0
        assert f"lambda {lam_want:.17e}\n" in capsys.readouterr().out
        assert np.array_equal(read_grid(out).values, z_want)

    @pytest.mark.parametrize("caller", ["run_method", "cli"])
    def test_each_step_runs_once(self, tmp_path, monkeypatch, caller):
        # the steps are looked up on the module, where the benchmark hooks them
        calls = []
        for name in self.STEPS:
            def counted(*args, _fn=getattr(regparam, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(regparam, name, counted)
        _, g, dx, dy = noisy_problem(seed=54)
        if caller == "run_method":
            run_method(g, dx, dy, LCurveTikhonov(7))
        else:
            zx, zy = gradient_files(tmp_path, g)
            assert main(["tikhonov", zx, zy, "--lcurve", "--points", "7",
                         "--out", str(tmp_path / "z.g2s")]) == 0
        assert calls == list(self.STEPS)

import dataclasses
import math

import numpy as np
import pytest
import scipy.stats

from surfrec import (
    BumpSurfaceSpec, DimensionError, Dirichlet, GaussianBump, Gls,
    GradientField, LCurveTikhonov, NoiseSpec, SizeGuardError, Surface,
    Tikhonov, add_noise, apply_dx, apply_dy, boundary_frame, bump_surface,
    default_bump_spec, evaluate, monte_carlo, oracle_gls,
    radial_covariance_set, reconstruct,
)
from surfrec import simulate
from surfrec.simulate import _KNOT_STRIDE, CellStats, _ks_distance, cell_gradient, trial_seed


def concatenated_evaluate(z, z_true, g, dx, dy):
    """Reference: evaluate's scores with fresh arrays, the residual
    components concatenated and standardized out of place."""
    zxr = apply_dx(z, dx) - g.zx
    zyr = apply_dy(z, dy) - g.zy
    cost = float(np.linalg.norm(zxr) ** 2 + np.linalg.norm(zyr) ** 2)
    za = z.heights - z.heights.mean()
    ta = z_true.heights - z_true.heights.mean()
    denom = np.linalg.norm(ta)
    rel = float(np.linalg.norm(za - ta) / (denom if denom > 0 else 1.0))
    res = np.concatenate([zxr.ravel(), zyr.ravel()])
    sd = res.std()
    ks = _ks_distance((res - res.mean()) / sd) if sd > 0 else 0.0
    return simulate.TrialMetrics(cost_residual=cost, rel_error=rel, ks_statistic=ks)


class TestBumpSurface:
    def test_gradient_vanishes_at_bump_centre(self):
        spec = BumpSurfaceSpec(
            bumps=(GaussianBump(1.0, (0.0, 0.0), np.eye(2) * 0.1),),
            rows=21, cols=21,
        )
        _, g = bump_surface(spec)
        assert abs(g.zx[10, 10]) <= 1e-14
        assert abs(g.zy[10, 10]) <= 1e-14

    def test_default_dims(self):
        z, g = bump_surface(default_bump_spec())
        assert z.heights.shape == (150, 150)
        assert g.zx.shape == (150, 150)

    def test_analytic_gradient_tracks_numerical(self):
        z, g = bump_surface(default_bump_spec(64, 64))
        dx, dy = g.operators(4)
        num_x = apply_dx(z.heights, dx)
        num_y = apply_dy(z.heights, dy)
        scale = max(np.max(np.abs(g.zx)), np.max(np.abs(g.zy)))
        assert np.max(np.abs(num_x - g.zx)) <= 1e-3 * scale
        assert np.max(np.abs(num_y - g.zy)) <= 1e-3 * scale

    def test_shape_matrix_validation(self):
        with pytest.raises(ValueError):
            GaussianBump(1.0, (0, 0), np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        with pytest.raises(ValueError):
            GaussianBump(1.0, (0, 0), np.array([[1.0, 0.1], [0.0, 1.0]]))  # asymmetric
        for amplitude, shape in ((np.inf, np.eye(2)), (1.0, np.diag([np.nan, 1.0]))):
            with pytest.raises(ValueError, match="bump parameters must be finite"):
                GaussianBump(amplitude, (0, 0), shape)


class TestAddNoise:
    def test_zero_level_is_identity(self):
        _, g = bump_surface(default_bump_spec(16, 16))
        out = add_noise(g, NoiseSpec("iid", 0.0, 99))
        assert np.array_equal(out.zx, g.zx)
        assert np.array_equal(out.zy, g.zy)

    def test_iid_standard_deviation(self):
        _, g = bump_surface(default_bump_spec(150, 150))
        out = add_noise(g, NoiseSpec("iid", 0.1, 7))
        for comp_in, comp_out in ((g.zx, out.zx), (g.zy, out.zy)):
            sigma = 0.1 * np.max(np.abs(comp_in))
            sample = (comp_out - comp_in).std()
            assert abs(sample - sigma) <= 0.05 * sigma

    def test_iid_noise_is_unbiased(self):
        _, g = bump_surface(default_bump_spec(150, 150))
        out = add_noise(g, NoiseSpec("iid", 0.1, 8))
        sigma = 0.1 * np.max(np.abs(g.zx))
        assert abs((out.zx - g.zx).mean()) <= 3 * sigma / 150

    def test_radial_ramp_grows_outwards(self):
        _, g = bump_surface(default_bump_spec(101, 101))
        deltas = []
        for seed in range(5):
            out = add_noise(g, NoiseSpec("heteroscedastic_radial", 0.2, seed))
            deltas.append(out.zx - g.zx)
        deltas = np.array(deltas)
        centre = np.abs(deltas[:, 45:56, 45:56]).mean()
        corner = np.abs(deltas[:, :8, :8]).mean()
        assert corner > 3 * centre

    def test_outliers_saturate_exact_count(self):
        # grid with distinct entries whose maximum sits at a known position
        values = np.arange(100.0).reshape(10, 10)
        g = GradientField(values.copy(), values[::-1].copy())
        out = add_noise(g, NoiseSpec("outliers", 0.05, 12))
        k = int(0.05 * 100)
        for comp_in, comp_out in ((g.zx, out.zx), (g.zy, out.zy)):
            changed = comp_out != comp_in
            assert changed.sum() == k
            assert np.all(comp_out[changed] == comp_in.max())

    def test_determinism(self):
        _, g = bump_surface(default_bump_spec(32, 32))
        a = add_noise(g, NoiseSpec("iid", 0.1, 5))
        b = add_noise(g, NoiseSpec("iid", 0.1, 5))
        assert np.array_equal(a.zx, b.zx) and np.array_equal(a.zy, b.zy)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("salt", 0.1)
        with pytest.raises(ValueError):
            NoiseSpec("iid", -0.1)
        with pytest.raises(ValueError):
            NoiseSpec("outliers", 1.5)
        for bad in (np.nan, np.inf, -np.inf, True):
            with pytest.raises(ValueError, match="noise level"):
                NoiseSpec("iid", bad)
        for bad in (-1, 1.5):
            with pytest.raises(ValueError, match="noise seed"):
                NoiseSpec("iid", 0.1, bad)
        assert NoiseSpec("iid", np.float32(0.1), np.int64(3)).seed == 3
        with pytest.raises(ValueError, match="rows must be an integer"):
            BumpSurfaceSpec(default_bump_spec().bumps, rows=10.5)
        with pytest.raises(DimensionError, match="at least a 2x2 grid"):
            BumpSurfaceSpec(default_bump_spec().bumps, cols=1)
        with pytest.raises(ValueError, match="extent must be increasing"):
            BumpSurfaceSpec(default_bump_spec().bumps, extent=(1.0, -1.0, -1.0, 1.0))
        with pytest.raises(ValueError, match="trials must be an integer"):
            monte_carlo([("gls", Gls())], "iid", [0.1], trials=True,
                        base_seed=0, surface_spec=default_bump_spec(16, 16), order=2)


class TestOracle:
    def test_noiseless_plane(self):
        n = 8
        x = np.arange(float(n))
        xg, yg = np.meshgrid(x, x)
        g = GradientField(np.full((n, n), 2.0), np.full((n, n), -1.0))
        dx, dy = g.operators(2)
        z = oracle_gls(g, dx, dy)
        want = 2 * xg - yg
        assert np.max(np.abs(z.heights - (want - want.mean()))) <= 1e-9

    def test_zero_gradient(self):
        g = GradientField(np.zeros((6, 5)), np.zeros((6, 5)))
        z = oracle_gls(g, *g.operators(2))
        assert np.max(np.abs(z.heights)) <= 1e-12

    def test_matches_deflated_solver(self):
        rng = np.random.default_rng(60)
        g = GradientField(rng.standard_normal((8, 10)), rng.standard_normal((8, 10)))
        dx, dy = g.operators(2)
        z_oracle = oracle_gls(g, dx, dy)
        z_fast = reconstruct(g, dx, dy, Gls())
        a = z_oracle.heights - z_oracle.heights.mean()
        b = z_fast.heights - z_fast.heights.mean()
        assert np.max(np.abs(a - b)) <= 1e-7

    def test_size_guard(self):
        g = GradientField(np.zeros((65, 65)), np.zeros((65, 65)))
        with pytest.raises(SizeGuardError):
            oracle_gls(g, *g.operators(2))


class TestEvaluate:
    def test_exact_recovery_scores_zero(self):
        z, _ = bump_surface(default_bump_spec(24, 24))
        dx, dy = GradientField(np.zeros((24, 24)), np.zeros((24, 24)),
                               z.hx, z.hy).operators(2)
        g = GradientField(apply_dx(z.heights, dx), apply_dy(z.heights, dy), z.hx, z.hy)
        metrics = evaluate(z, z, g, dx, dy)
        assert metrics.rel_error <= 1e-10
        assert metrics.cost_residual <= 1e-18
        assert metrics.ks_statistic >= 0.0

    @pytest.mark.parametrize("shape,hx,hy,order", [
        ((9, 13), 1.0, 1.0, 2), ((24, 24), 0.7, 0.7, 4), ((65, 47), 0.7, 1.3, 4),
        ((128, 96), 1.3, 0.7, 2),
    ])
    @pytest.mark.parametrize("level", [0.0, 0.01, 0.2])
    def test_metrics_equal_the_concatenated_recipe_bitwise(self, shape, hx, hy, order, level):
        z_true, g = bump_surface(default_bump_spec(*shape))
        g = add_noise(GradientField(g.zx, g.zy, hx, hy), NoiseSpec("iid", level, 59))
        z_true = Surface(z_true.heights, hx, hy)
        dx, dy = g.operators(order)
        for z in (reconstruct(g, dx, dy, Gls()), z_true):
            assert evaluate(z, z_true, g, dx, dy) == concatenated_evaluate(z, z_true, g, dx, dy)

    def test_zero_residual_scores_zero_like_the_recipe(self):
        # a plane differentiates exactly at order 2, so every residual is 0
        # and its standard deviation too
        z = Surface(np.add.outer(0.5 * np.arange(9.0), np.arange(12.0)))
        g = GradientField(np.ones((9, 12)), np.full((9, 12), 0.5))
        dx, dy = g.operators(2)
        metrics = evaluate(z, z, g, dx, dy)
        assert metrics == concatenated_evaluate(z, z, g, dx, dy)
        assert metrics == simulate.TrialMetrics(0.0, 0.0, 0.0)

    def test_dimension_check(self):
        z = Surface(np.zeros((4, 4)))
        g = GradientField(np.zeros((5, 5)), np.zeros((5, 5)))
        with pytest.raises(DimensionError):
            evaluate(z, z, g, *g.operators(2))


class TestKsDistance:
    @pytest.mark.parametrize("n", [1, 2, 3, 100, 8192])
    @pytest.mark.parametrize("kind", ["normal", "heavy_tailed", "tied"])
    def test_matches_scipy_statistic(self, n, kind):
        rng = np.random.default_rng(n)
        if kind == "normal":
            x = rng.standard_normal(n)
        elif kind == "heavy_tailed":
            x = rng.standard_t(2, n)
        else:
            x = np.round(rng.standard_normal(n), 1)
        ref = scipy.stats.kstest(x, "norm").statistic
        assert abs(_ks_distance(x) - ref) <= 1e-15

    @pytest.mark.parametrize("kind", [
        "normal", "stride_edges", "ties_across_knots", "constant", "tails", "interior_max",
    ])
    def test_bitwise_equal_to_direct_evaluation(self, kind):
        for x in _ks_samples(kind):
            assert _ks_distance(x) == _direct_ks(x), (kind, x.size)

    def test_interior_max_case_peaks_between_knots(self):
        for x in _ks_samples("interior_max"):
            peak = int(np.argmax(_direct_gaps(x)))
            assert peak % _KNOT_STRIDE != 0 and peak != x.size - 1

    @pytest.mark.parametrize("value", [-1.0, 1.0])
    def test_constant_sample_is_scored_from_its_knots(self, monkeypatch, value):
        # every block bound falls 1/n short of the maximum, which a knot
        # attains, so Phi is evaluated at the knots alone
        n = 3 * _KNOT_STRIDE + 5
        calls = []
        monkeypatch.setattr(simulate, "_erfc", _counting(calls, math.erfc))
        assert _ks_distance(np.full(n, value)) == _direct_ks(np.full(n, value))
        assert sum(calls) == len(range(0, n - 1, _KNOT_STRIDE)) + 1

    def test_slack_covers_non_monotone_erfc(self, monkeypatch):
        # a Phi that dips by 5e-13 inside the first block: the largest gap
        # sits at that block's last interior point, one knot sits 2.5e-13
        # below it, and only the slack keeps the block from being pruned
        s = _KNOT_STRIDE
        n = 3 * s
        top, dip = 0.25, 5e-13
        phi = (np.arange(1, n + 1) / n) - top + 1e-3
        phi[:s] = s / n - top + dip
        phi[s - 1] = s / n - top
        phi[2 * s] = (2 * s + 1) / n - top + dip / 2
        x, erfc = _tabulated(monkeypatch, phi)
        expected = _direct_ks(x, erfc)
        assert expected == s / n - phi[s - 1]
        assert _ks_distance(x) == expected

    def test_max_just_after_a_knot(self, monkeypatch):
        # a tie from the first point after knot s to knot 2s makes the block
        # bound Phi_b - (a+1)/n exact; a knot sits half a step 1/n below it
        s = _KNOT_STRIDE
        n = 3 * s
        top = 0.25
        phi = (np.arange(n) + 0.5) / n
        phi[s + 1:2 * s + 1] = top + (s + 1) / n
        phi[s] = top + (s - 0.5) / n
        x, erfc = _tabulated(monkeypatch, phi)
        expected = _direct_ks(x, erfc)
        assert expected == phi[s + 1] - (s + 1) / n
        assert _ks_distance(x) == expected

    def test_prunes_most_points_of_a_large_sample(self, monkeypatch):
        calls = []
        monkeypatch.setattr(simulate, "_erfc", _counting(calls, math.erfc))
        x = np.random.default_rng(6).standard_normal(2**16)
        assert _ks_distance(x) == _direct_ks(x)
        assert sum(calls) <= 0.1 * x.size


def _direct_gaps(x, erfc=math.erfc):
    """The plain O(n) route: both KS gaps at every sorted point."""
    x = np.sort(np.ravel(x))
    n = x.size
    cdf = 0.5 * np.array([erfc(v) for v in x * -math.sqrt(0.5)])
    return np.maximum(np.arange(1, n + 1) / n - cdf, cdf - np.arange(n) / n)


def _direct_ks(x, erfc=math.erfc):
    return float(np.max(_direct_gaps(x, erfc)))


def _tabulated(monkeypatch, phi):
    """Sample 0, 1, ..., n-1 and an erfc that gives it the CDF values phi."""
    x = np.arange(len(phi), dtype=float)
    erfc = dict(zip(x * -math.sqrt(0.5), 2.0 * phi)).__getitem__
    monkeypatch.setattr(simulate, "_erfc", np.frompyfunc(erfc, 1, 1))
    return x, erfc


def _counting(calls, erfc):
    ufunc = np.frompyfunc(erfc, 1, 1)

    def counted(v):
        calls.append(np.size(v))
        return ufunc(v)
    return counted


def _ks_samples(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    s = _KNOT_STRIDE
    if kind == "normal":
        return [rng.standard_normal(n) for n in range(1, 131)]
    if kind == "stride_edges":
        sizes = [k * s + d for k in (1, 2, 3, 16) for d in (-1, 0, 1)]
        return [rng.standard_normal(n) * w + c
                for n in sizes for w, c in ((1.0, 0.0), (0.3, 0.5), (4.0, -1.0))]
    if kind == "ties_across_knots":
        out = [np.round(rng.standard_normal(n), 1) for n in (2 * s, 5 * s + 3, 4096)]
        for start in (s - 3, s - 1, s, 2 * s - 2):
            x = np.sort(rng.standard_normal(4 * s + 1))
            x[start:start + s + 2] = x[start]
            out.append(x)
        return out
    if kind == "constant":
        return [np.full(n, v) for n in (1, 2, s, s + 1, 3 * s + 7) for v in (-2.0, 0.0, 0.7)]
    if kind == "tails":
        # Phi rounds to 0 (erfc to 0) below about -38.5 and to 1 (erfc to 2)
        # above about 8.3
        out = []
        for n in (3, s + 1, 5 * s):
            x = rng.standard_normal(n)
            x[: n // 3] = -40.0 - rng.random(n // 3)
            x[-(n // 3):] = 30.0 + rng.random(n // 3)
            out += [x, np.full(n, -40.0), np.full(n, 40.0)]
        return out
    # a sample that puts the largest gap strictly between two knots
    out = []
    for n in (3 * s, 8 * s + 11):
        x = rng.standard_normal(n)
        x[: n // 4] -= 0.4
        out.append(x)
    return out


class TestRadialCovariance:
    def test_matrices_are_spd_diagonal(self):
        _, g = bump_surface(default_bump_spec(20, 24))
        cov = radial_covariance_set(g)
        for mat, k in ((cov.xy, 20), (cov.yy, 20), (cov.xx, 24), (cov.yx, 24)):
            assert mat.shape == (k, k)
            assert np.count_nonzero(mat - np.diag(np.diag(mat))) == 0
            assert np.min(np.diag(mat)) > 0

    def test_variance_profile_matches_ramp(self):
        # product of the diagonal factors approximates the radial variance field
        _, g = bump_surface(default_bump_spec(31, 31))
        cov = radial_covariance_set(g)
        model = np.outer(np.diag(cov.xy), np.diag(cov.xx))
        amp = np.max(np.abs(g.zx))
        dy = np.arange(31) - 15.0
        actual = amp**2 * (dy[:, None] ** 2 + dy[None, :] ** 2) / (2 * 15.0**2)
        # rank-one surrogate of a non-separable field: right scale, same trend
        assert model[0, 0] > model[15, 15]
        assert 0.2 <= model.mean() / actual.mean() <= 5.0


class TestBoundaryFrame:
    def test_frame_only(self):
        z = np.arange(20.0).reshape(4, 5)
        frame = boundary_frame(z)
        assert np.array_equal(frame[0, :], z[0, :])
        assert np.array_equal(frame[:, -1], z[:, -1])
        assert np.all(frame[1:-1, 1:-1] == 0)

    @pytest.mark.parametrize("shape", [(1, 6), (5, 1), (2, 2), (1, 1), (4, 5)])
    def test_thin_grids_match_an_edge_by_edge_copy(self, shape):
        z = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        expected = np.zeros_like(z)
        for edge in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
            expected[edge] = z[edge]
        surface = Surface(z.copy())
        assert np.array_equal(boundary_frame(surface), expected)
        assert np.array_equal(surface.heights, z)  # the input's interior is kept


class TestLCurveTikhonov:
    @pytest.mark.parametrize("points", [4, 1, 0, -3, 20.0, 7.5])
    def test_too_few_points_refused_before_any_solve(self, monkeypatch, points):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        with pytest.raises(ValueError, match="at least 5 points"):
            LCurveTikhonov(points=points)
        assert calls == []

    def test_numpy_integer_count_accepted(self):
        assert LCurveTikhonov(points=np.int64(5)).points == 5

    def test_five_points_run(self):
        rng = np.random.default_rng(12)
        g = GradientField(rng.standard_normal((10, 12)), rng.standard_normal((10, 12)))
        dx, dy = g.operators(2)
        z = simulate.run_method(g, dx, dy, LCurveTikhonov(points=5))
        assert z.heights.shape == (10, 12) and np.all(np.isfinite(z.heights))


class TestMonteCarlo:
    def test_deterministic_tables(self):
        methods = [("gls", Gls()), ("tik", Tikhonov(lam=0.5))]
        kwargs = dict(kind="iid", levels=[0.05, 0.1], trials=3,
                      base_seed=314, surface_spec=default_bump_spec(16, 16), order=2)
        a = monte_carlo(methods, **kwargs)
        b = monte_carlo(methods, **kwargs)
        assert a.to_csv() == b.to_csv()
        assert a == b

    def test_noiseless_level_hits_discretization_floor(self):
        # with the analytic gradient of a non-polynomial surface, the
        # residual floor is the truncation error of the fourth-order
        # operators, far below the noisy-trial errors but not zero
        z_true, _ = bump_surface(default_bump_spec(48, 48))
        methods = [("gls", Gls()),
                   ("dirichlet", Dirichlet(boundary_frame(z_true)))]
        result = monte_carlo(methods, "iid", levels=[0.0], trials=1,
                             base_seed=1, surface_spec=default_bump_spec(48, 48), order=4)
        for cell in result.cells:
            assert cell.rel_error_mean <= 1e-4

    def test_gls_cost_is_lower_bound(self):
        z_true, g_true = bump_surface(default_bump_spec(24, 24))
        methods = [
            ("gls", Gls()),
            ("tik", Tikhonov(lam=0.3)),
            ("lcurve", LCurveTikhonov()),
        ]
        result = monte_carlo(methods, "iid", levels=[0.1], trials=5,
                             base_seed=11, surface_spec=default_bump_spec(24, 24), order=2)
        costs = {}
        for rec in result.trials:
            costs.setdefault(rec.trial, {})[rec.method] = rec.metrics.cost_residual
        for per_method in costs.values():
            assert per_method["gls"] <= per_method["tik"] + 1e-9
            assert per_method["gls"] <= per_method["lcurve"] + 1e-9

    @pytest.mark.parametrize("kind,levels,methods,message", [
        ("iid", [0.1, 0.1], [("gls", Gls())], r"noise levels repeated: \[0\.1\]"),
        ("iid", [0.1], [("m", Gls()), ("m", Tikhonov(lam=0.5))],
         r"method labels repeated: \['m'\]"),
        ("iid", [0.1, -1], [("gls", Gls())], "noise level must be a finite"),
        ("iid", [0.1, "0.1"], [("gls", Gls())], "noise level must be a finite"),
        ("salt", [0.1], [("gls", Gls())], "noise kind must be one of"),
        ("outliers", [0.1, 1.5], [("gls", Gls())], "outlier fraction cannot exceed 1"),
        ("iid", [], [("gls", Gls())], "needs at least one noise level"),
        ("iid", [0.1], [], "needs at least one method label"),
    ], ids=["level", "label", "negative-level", "string-level", "unknown-kind",
            "outlier-fraction", "no-levels", "no-methods"])
    def test_repeats_refused_before_any_trial(self, monkeypatch, kind, levels, methods, message):
        # a repeated level or label would pool the trials of two cells, a bad
        # level after a good one must not cost the good level's trials, and
        # an empty grid would return a table of no cells
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(simulate, "run_method", no_trial)
        with pytest.raises(ValueError, match=message):
            monte_carlo(methods, kind, levels=levels, trials=2,
                        base_seed=5, surface_spec=default_bump_spec(16, 16), order=2)

    @pytest.mark.parametrize("wrap", [iter, lambda pairs: (p for p in pairs)],
                             ids=["iterator", "generator"])
    def test_one_shot_methods_give_the_list_table(self, wrap):
        # the pairs are read by the label checks, the trials and the cells
        methods = [("gls", Gls()), ("tik", Tikhonov(lam=0.5))]
        kwargs = dict(kind="iid", levels=[0.1], trials=2, base_seed=0,
                      surface_spec=default_bump_spec(12, 12), order=2)
        want = monte_carlo(methods, **kwargs)
        got = monte_carlo(wrap(methods), **kwargs)
        assert len(want.cells) == 2 and len(want.trials) == 4
        assert got == want and got.to_csv() == want.to_csv()

    def test_csv_layout(self):
        result = monte_carlo([("gls", Gls())], "iid", levels=[0.1],
                             trials=2, base_seed=5,
                             surface_spec=default_bump_spec(12, 12), order=2)
        lines = result.to_csv().strip().splitlines()
        assert lines[0].split(",") == [
            "method", "level", "cost_mean", "cost_std",
            "rel_error_mean", "rel_error_std", "ks_mean", "ks_std",
        ]
        assert len(lines) == 2
        assert lines[1].startswith("gls,")

    def test_csv_columns_are_the_cell_fields(self):
        result = monte_carlo([("gls", Gls()), ("tik", Tikhonov(lam=0.5))],
                             "iid", levels=[0.05, 0.1], trials=2,
                             base_seed=5, surface_spec=default_bump_spec(12, 12), order=2)
        header, *rows = [line.split(",") for line in result.to_csv().splitlines()]
        assert header == [f.name for f in dataclasses.fields(CellStats)]
        for row, cell in zip(rows, result.cells, strict=True):
            # the method name, then every number, reading back bit for bit
            assert row[0] == cell.method
            assert [float(v) for v in row[1:]] == list(dataclasses.astuple(cell)[1:])

    def test_every_method_of_a_cell_sees_cell_gradient(self):
        spec = default_bump_spec(16, 16)
        z_true, g_true = bump_surface(spec)
        dx, dy = g_true.operators(2)
        result = monte_carlo([("gls", Gls()), ("tik", Tikhonov(lam=0.5))],
                             "outliers", levels=[0.02, 0.05], trials=2,
                             base_seed=17, surface_spec=spec, order=2)
        for rec in result.trials:
            g = cell_gradient(g_true, "outliers", rec.level, 17,
                              [0.02, 0.05].index(rec.level), rec.trial)
            method = Gls() if rec.method == "gls" else Tikhonov(lam=0.5)
            z = reconstruct(g, dx, dy, method)
            assert rec.metrics == evaluate(z, z_true, g, dx, dy)

    @pytest.mark.parametrize("kind", ["iid", "heteroscedastic_radial", "outliers"])
    def test_cell_gradient_is_the_seeded_noise_model(self, kind):
        _, g = bump_surface(default_bump_spec(12, 14))
        got = cell_gradient(g, kind, 0.1, 3, 1, 4)
        want = add_noise(g, NoiseSpec(kind, 0.1, trial_seed(3, 1, 4)))
        assert np.array_equal(got.zx, want.zx) and np.array_equal(got.zy, want.zy)
        assert not np.array_equal(got.zx, cell_gradient(g, kind, 0.1, 3, 4, 1).zx)

    def test_seed_derivation_is_stable(self):
        assert trial_seed(123, 0, 0) == trial_seed(123, 0, 0)
        assert trial_seed(123, 0, 1) != trial_seed(123, 1, 0)

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines as they complete).
"""

import time

import numpy as np
import scipy.stats

from surfrec import (
    CovarianceSet, Dirichlet, Gls, GradientField, LCurveTikhonov, NoiseSpec,
    Spectral, Tikhonov, Weighted, add_noise, assemble, boundary_frame,
    bump_surface, build_cache, cosine_basis, default_bump_spec, evaluate,
    gradient_misfit, monte_carlo, oracle_gls, radial_covariance_set,
    reconstruct, reconstruct_from_cache, solve, work_estimate,
)
from surfrec.simulate import run_method, trial_seed


def report(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def mean_free(grid):
    return grid - grid.mean()


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for m in range(3, 11):
        for n in {max(m - 1, 3), m, min(m + 2, 12)}:
            g = GradientField(rng.standard_normal((m, n)), rng.standard_normal((m, n)),
                              hx=0.7, hy=1.3)
            dx, dy = g.operators(2)
            fast = reconstruct(g, dx, dy, Gls()).heights
            slow = oracle_gls(g, dx, dy).heights
            worst = max(worst, float(np.max(np.abs(mean_free(fast) - mean_free(slow)))))
            cases += 1
    elapsed = time.perf_counter() - start
    report(1, "oracle equivalence", cases >= 20 and worst <= 1e-7 and elapsed < 5.0,
           f"({cases} fields, max dev {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_polynomial_exactness():
    n = 32
    x = np.linspace(-1.0, 1.0, n)
    xg, yg = np.meshgrid(x, x)
    h = x[1] - x[0]
    cases = {
        2: (
            0.8 * xg**2 - 0.5 * xg * yg + 0.3 * yg**2 + 2 * xg - yg,
            1.6 * xg - 0.5 * yg + 2.0,
            -0.5 * xg + 0.6 * yg - 1.0,
        ),
        4: (
            xg**4 - 2 * xg**2 * yg**2 + yg**4 + 0.5 * xg**3 * yg,
            4 * xg**3 - 4 * xg * yg**2 + 1.5 * xg**2 * yg,
            -4 * xg**2 * yg + 4 * yg**3 + 0.5 * xg**3,
        ),
    }
    worst = 0.0
    for order, (z, zx, zy) in cases.items():
        g = GradientField(zx, zy, h, h)
        dx, dy = g.operators(order)
        got = reconstruct(g, dx, dy, Gls()).heights
        err = np.linalg.norm(mean_free(got) - mean_free(z)) / np.linalg.norm(mean_free(z))
        worst = max(worst, float(err))
    report(2, "polynomial exactness", worst <= 1e-9, f"(worst rel err {worst:.2e})")


def test_criterion_03_method_degeneracies():
    rng = np.random.default_rng(1003)
    g = GradientField(rng.standard_normal((20, 22)), rng.standard_normal((20, 22)),
                      hx=0.4, hy=0.6)
    dx, dy = g.operators(2)
    z_gls = reconstruct(g, dx, dy, Gls()).heights

    spec_full = Spectral(cosine_basis(20, 20), cosine_basis(22, 22))
    dev_spec = np.max(np.abs(reconstruct(g, dx, dy, spec_full).heights - z_gls))
    dev_tik = np.max(np.abs(reconstruct(g, dx, dy, Tikhonov(lam=0.0)).heights - z_gls))
    dev_wls = np.max(np.abs(
        reconstruct(g, dx, dy, Weighted(CovarianceSet.identity(20, 22))).heights - z_gls))

    n = 32
    x = np.linspace(-1.0, 1.0, n)
    xg, yg = np.meshgrid(x, x)
    z_quad = xg**2 + 0.5 * xg * yg + yg**2
    gq = GradientField(2 * xg + 0.5 * yg, 0.5 * xg + 2 * yg, x[1] - x[0], x[1] - x[0])
    dxq, dyq = gq.operators(2)
    z_dir = reconstruct(gq, dxq, dyq, Dirichlet(boundary_frame(z_quad))).heights
    dev_dir = np.max(np.abs(z_dir - z_quad))

    ok = dev_spec <= 1e-8 and dev_tik <= 1e-8 and dev_wls <= 1e-9 and dev_dir <= 1e-8
    report(3, "method degeneracies", ok,
           f"(spectral {dev_spec:.1e}, tikhonov {dev_tik:.1e}, "
           f"weighted {dev_wls:.1e}, dirichlet {dev_dir:.1e})")


def test_criterion_04_dual_path_tikhonov():
    # unit node spacing keeps the direct solve's rounding floor far below
    # the comparison tolerance even at the smallest parameter
    rng = np.random.default_rng(1004)
    g = GradientField(rng.standard_normal((24, 24)), rng.standard_normal((24, 24)))
    dx, dy = g.operators(2)
    cache = build_cache(g, dx, dy)
    worst = 0.0
    for lam in (1e-3, 1e-1, 1.0, 10.0):
        fast = reconstruct_from_cache(cache, lam).heights
        direct = reconstruct(g, dx, dy, Tikhonov(lam=lam)).heights
        rel = np.linalg.norm(fast - direct) / np.linalg.norm(direct)
        worst = max(worst, float(rel))
    report(4, "dual-path penalized solves", worst <= 1e-8, f"(worst rel {worst:.2e})")


def _standard_roster(z_true, g_true):
    m, n = g_true.m, g_true.n
    return [
        ("gls", Gls()),
        ("spectral_half", Spectral(cosine_basis(m, (m + 1) // 2),
                                   cosine_basis(n, (n + 1) // 2))),
        ("tikhonov_lcurve", LCurveTikhonov()),
        ("tikhonov_deg2", Tikhonov(lam=0.05, degree=2)),
        ("dirichlet_true", Dirichlet(boundary_frame(z_true))),
        ("weighted_radial", Weighted(radial_covariance_set(g_true))),
    ]


def test_criterion_05_cost_lower_bound():
    spec = default_bump_spec(64, 64)
    z_true, g_true = bump_surface(spec)
    methods = _standard_roster(z_true, g_true)
    result = monte_carlo(methods, "iid", levels=[0.1], trials=50,
                         base_seed=20240, surface_spec=spec, order=4)
    per_trial = {}
    for rec in result.trials:
        per_trial.setdefault(rec.trial, {})[rec.method] = rec.metrics.cost_residual
    violations = 0
    margin = np.inf
    for costs in per_trial.values():
        base = costs["gls"]
        others = [v for k, v in costs.items() if k != "gls"]
        margin = min(margin, min(others) - base)
        violations += sum(v < base for v in others)
    report(5, "least-squares cost lower bound", violations == 0,
           f"(50 trials x {len(methods) - 1} methods, min margin {margin:.3e})")


def test_criterion_06_residual_normality():
    spec = default_bump_spec(64, 64)
    z_true, g_true = bump_surface(spec)
    dx, dy = g_true.operators(4)
    n_samples = 2 * 64 * 64
    passes = 0
    for t in range(100):
        g = add_noise(g_true, NoiseSpec("iid", 0.1, trial_seed(123, 0, t)))
        z = reconstruct(g, dx, dy, Gls())
        stat = evaluate(z, z_true, g, dx, dy).ks_statistic
        if scipy.stats.kstwo.sf(stat, n_samples) > 0.01:
            passes += 1
    report(6, "gls residual normality", passes >= 95, f"({passes}/100 trials pass)")


def test_criterion_07_outlier_robustness_ordering():
    spec = default_bump_spec(64, 64)
    z_true, g_true = bump_surface(spec)
    methods = _standard_roster(z_true, g_true)
    result = monte_carlo(methods, "outliers", levels=[0.1],
                         trials=25, base_seed=20247, surface_spec=spec, order=4)
    means = {c.method: c.rel_error_mean for c in result.cells}
    best = min(means, key=means.get)
    report(7, "outlier robustness ordering", best == "dirichlet_true",
           "(" + ", ".join(f"{k}={v:.3f}" for k, v in sorted(means.items())) + ")")


def test_criterion_08_complexity_scaling():
    # Minimum over interleaved repeats estimates the clean-run cost: machine
    # noise only ever inflates a wall-clock sample, so the mins converge
    # downward onto the algorithmic truth.  Sampling stops early once both
    # scaling bounds hold, and gives up after a fixed budget.
    rng = np.random.default_rng(1008)
    sizes = (256, 512)
    specs = {}
    grids = {}
    for size in sizes:
        g = GradientField(rng.standard_normal((size, size)),
                          rng.standard_normal((size, size)))
        grids[size] = (g, *g.operators(2))
        half = size // 2
        specs[size] = {
            "gls": Gls(),
            "spectral": Spectral(cosine_basis(size, half), cosine_basis(size, half)),
        }
    best = {}
    for size in sizes:
        g, dx, dy = grids[size]
        for name, spec in specs[size].items():
            run_method(g, dx, dy, spec)  # warm-up
            best[(name, size)] = np.inf
    ratio = speedup = np.nan
    for round_no in range(40):
        for size in sizes:
            g, dx, dy = grids[size]
            for name, spec in specs[size].items():
                start = time.perf_counter()
                run_method(g, dx, dy, spec)
                best[(name, size)] = min(best[(name, size)], time.perf_counter() - start)
        ratio = best[("gls", 512)] / best[("gls", 256)]
        speedup = best[("gls", 512)] / best[("spectral", 512)]
        if round_no >= 4 and 4.0 <= ratio <= 16.0 and speedup >= 3.0:
            break
    ok = 4.0 <= ratio <= 16.0 and speedup >= 3.0
    report(8, "complexity scaling", ok,
           f"(gls 512/256 ratio {ratio:.2f}, spectral speedup {speedup:.2f}x; minima in ms: "
           f"gls 256 {best[('gls', 256)] * 1e3:.1f}, gls 512 {best[('gls', 512)] * 1e3:.1f}, "
           f"spectral 512 {best[('spectral', 512)] * 1e3:.1f})")


def test_criterion_09_work_models():
    m, n = 2, 2
    hs_expected = (5.0 * m**3) / 3.0 + 10.0 * n**3 + 5.0 * m**2 * n + (5.0 * m * n**2) / 2.0
    ok = work_estimate(2, 2, "sylvester") == hs_expected
    ok = ok and work_estimate(2, 2, "vectorized") == 41.0 * 2**3 * 2**3
    ok = ok and work_estimate(7, 5, "vectorized") == 41.0 * 7**3 * 5**3
    for k in (1, 2, 3):
        ratio = work_estimate(96, 80, "spectral", truncation_level=k) / work_estimate(96, 80, "sylvester")
        ok = ok and ratio == 2.0 ** (-3 * k)
    report(9, "work-model formulas", ok,
           f"(sylvester(2,2)={work_estimate(2, 2, 'sylvester'):.6f}, vec(2,2)={work_estimate(2, 2, 'vectorized'):.0f})")


def test_criterion_10_stationarity():
    spec = default_bump_spec(24, 24)
    z_true, g_true = bump_surface(spec)
    g = add_noise(g_true, NoiseSpec("iid", 0.1, trial_seed(1010, 0, 0)))
    dx, dy = g.operators(2)
    methods = [
        Gls(),
        Spectral(cosine_basis(24, 12), cosine_basis(24, 12)),
        Tikhonov(lam=0.5),
        Tikhonov(lam=0.05, degree=2),
        Dirichlet(boundary_frame(z_true)),
        Weighted(radial_covariance_set(g_true)),
    ]
    rng = np.random.default_rng(1010)
    worst = 0.0
    for spec_m in methods:
        system = assemble(g, dx, dy, spec_m)
        phi = solve(system)
        scale = np.linalg.norm(system.f) ** 2 + np.linalg.norm(system.g) ** 2
        step = 1e-4 * max(1.0, float(np.max(np.abs(phi))))
        for _ in range(20):
            i = rng.integers(0, phi.shape[0])
            j = rng.integers(0, phi.shape[1])
            bump = np.zeros_like(phi)
            bump[i, j] = step
            diff = (system.cost(phi + bump) - system.cost(phi - bump)) / (2 * step)
            worst = max(worst, abs(diff) / scale)
    report(10, "stationarity of returned solutions", worst <= 1e-5,
           f"(worst directional slope {worst:.2e} of cost scale)")


def test_gradient_misfit_definition_consistency():
    # the reported cost is the plain quadratic misfit used by every criterion
    rng = np.random.default_rng(77)
    g = GradientField(rng.standard_normal((10, 10)), rng.standard_normal((10, 10)))
    dx, dy = g.operators(2)
    z = run_method(g, dx, dy, Gls())
    direct = (np.linalg.norm(z.heights @ dx.entries.T - g.zx) ** 2
              + np.linalg.norm(dy.entries @ z.heights - g.zy) ** 2)
    assert abs(gradient_misfit(z, g, dx, dy) - direct) <= 1e-12 * max(1.0, direct)

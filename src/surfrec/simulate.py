"""Synthetic ground truth, noise models, metrics, and Monte-Carlo driver.

The test surface is a sum of anisotropic Gaussian bumps whose gradient is
available in closed form, so reconstructions can be scored against exact
samples.  Three noise models corrupt the gradient: i.i.d. Gaussian,
heteroscedastic Gaussian with radially growing amplitude, and gross outliers
that saturate random pixels at the component maximum.

Each reconstruction is scored by its gradient misfit, its mean-aligned
error against the truth, and the Kolmogorov-Smirnov distance of its
standardized gradient residuals to the standard normal.  The KS distance is
computed directly from the sorted residuals, with the normal CDF evaluated
only where a monotonicity bound says the maximum can lie (a few percent of
the points), yet bit for bit equal to evaluating it everywhere; no p-value
is computed, so numpy is the only dependency.

All randomness flows through numpy's PCG64 generator seeded from explicit
integers, so every table is reproducible bit for bit from its base seed.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from collections import Counter
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import regparam
from .diffops import DiffMatrix, GradientField, Surface, apply_dx, apply_dy
from .errors import DimensionError, SizeGuardError, finite_real, whole_number
from .methods import CovarianceSet, MethodSpec, gradient_misfit, reconstruct
from .regparam import LCurveTikhonov

ORACLE_MAX_CELLS = 4096


@dataclass(frozen=True)
class GaussianBump:
    amplitude: float
    center: tuple[float, float]
    shape: np.ndarray  # 2x2 SPD spread matrix

    def __post_init__(self):
        mat = np.asarray(self.shape, dtype=float)
        if mat.shape != (2, 2) or abs(mat[0, 1] - mat[1, 0]) > 1e-12 * max(1.0, np.max(np.abs(mat))):
            raise ValueError("bump shape must be a symmetric 2x2 matrix")
        if mat[0, 0] <= 0 or np.linalg.det(mat) <= 0:
            raise ValueError("bump shape matrix must be positive definite")
        if not np.all(np.isfinite(mat)) or not np.isfinite(self.amplitude):
            raise ValueError("bump parameters must be finite")
        object.__setattr__(self, "shape", mat)


@dataclass(frozen=True)
class BumpSurfaceSpec:
    bumps: tuple[GaussianBump, ...]
    rows: int = 150
    cols: int = 150
    extent: tuple[float, float, float, float] = (-1.0, 1.0, -1.0, 1.0)  # x0, x1, y0, y1

    def __post_init__(self):
        if whole_number("rows", self.rows) < 2 or whole_number("cols", self.cols) < 2:
            raise DimensionError("bump surface needs at least a 2x2 grid")
        x0, x1, y0, y1 = self.extent
        if not (x1 > x0 and y1 > y0):
            raise ValueError("extent must be increasing in both directions")


def default_bump_spec(rows: int = 150, cols: int = 150) -> BumpSurfaceSpec:
    """Three-bump configuration used throughout the harness.

    The amplitudes, centers, and spreads are fixed documented constants; the
    bumps are wide enough that fourth-order numerical differentiation of the
    sampled surface tracks the analytic gradient to about 1e-4 relative on
    grids of 64 nodes per side and finer.
    """
    bumps = (
        GaussianBump(1.0, (-0.35, -0.30), np.array([[0.120, 0.030], [0.030, 0.080]])),
        GaussianBump(-0.8, (0.40, -0.20), np.array([[0.090, -0.025], [-0.025, 0.070]])),
        GaussianBump(0.6, (0.00, 0.45), np.array([[0.070, 0.015], [0.015, 0.110]])),
    )
    return BumpSurfaceSpec(bumps=bumps, rows=rows, cols=cols)


def bump_surface(spec: BumpSurfaceSpec) -> tuple[Surface, GradientField]:
    """Sample the bump surface and its closed-form gradient on the grid."""
    x0, x1, y0, y1 = spec.extent
    x = np.linspace(x0, x1, spec.cols)
    y = np.linspace(y0, y1, spec.rows)
    xg, yg = np.meshgrid(x, y)
    z = np.zeros_like(xg)
    gx = np.zeros_like(xg)
    gy = np.zeros_like(xg)
    for bump in spec.bumps:
        a, b, c = bump.shape[0, 0], bump.shape[0, 1], bump.shape[1, 1]
        det = a * c - b * b
        ia, ib, ic = c / det, -b / det, a / det
        dxc = xg - bump.center[0]
        dyc = yg - bump.center[1]
        quad = ia * dxc * dxc + 2.0 * ib * dxc * dyc + ic * dyc * dyc
        e = bump.amplitude * np.exp(-0.5 * quad)
        z += e
        gx -= e * (ia * dxc + ib * dyc)
        gy -= e * (ib * dxc + ic * dyc)
    hx = (x1 - x0) / (spec.cols - 1)
    hy = (y1 - y0) / (spec.rows - 1)
    return Surface(z, hx, hy), GradientField(gx, gy, hx, hy)


_NOISE_KINDS = ("iid", "heteroscedastic_radial", "outliers")


@dataclass(frozen=True)
class NoiseSpec:
    """Noise model: kind, level (sigma fraction or outlier fraction), seed."""

    kind: str
    level: float
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            raise ValueError(f"noise kind must be one of {_NOISE_KINDS}, got {self.kind!r}")
        finite_real("noise level", self.level)
        whole_number("noise seed", self.seed, 0)
        if self.kind == "outliers" and self.level > 1:
            raise ValueError("outlier fraction cannot exceed 1")


def _radial_profile(m: int, n: int) -> np.ndarray:
    """Distance from the grid center in index units, normalized to 1 at the corners."""
    dy = np.arange(m) - (m - 1) / 2.0
    dx = np.arange(n) - (n - 1) / 2.0
    r = np.sqrt(dy[:, None] ** 2 + dx[None, :] ** 2)
    rmax = r.max()
    return r / rmax if rmax > 0 else r


def add_noise(g: GradientField, spec: NoiseSpec) -> GradientField:
    """Corrupt a gradient field; deterministic given the spec's seed.

    iid: adds zero-mean Gaussian noise with sigma = level * max|component|,
    per component.  heteroscedastic_radial: the same but with sigma ramping
    linearly from 0 at the grid center to its full value at the farthest
    corner.  outliers: overwrites floor(level * m * n) pixel positions per
    component (sampled without replacement, independently per component)
    with that component's maximum value.
    """
    if spec.level == 0:
        return g
    rng = np.random.default_rng(spec.seed)
    amp_x = float(np.max(np.abs(g.zx)))
    amp_y = float(np.max(np.abs(g.zy)))
    if spec.kind == "iid":
        zx = g.zx + rng.normal(0.0, spec.level * amp_x, g.zx.shape)
        zy = g.zy + rng.normal(0.0, spec.level * amp_y, g.zy.shape)
    elif spec.kind == "heteroscedastic_radial":
        ramp = _radial_profile(g.m, g.n)
        zx = g.zx + rng.normal(size=g.zx.shape) * (spec.level * amp_x * ramp)
        zy = g.zy + rng.normal(size=g.zy.shape) * (spec.level * amp_y * ramp)
    else:
        count = int(spec.level * g.m * g.n)
        zx = g.zx.copy()
        zy = g.zy.copy()
        flat_x = rng.choice(g.m * g.n, size=count, replace=False)
        flat_y = rng.choice(g.m * g.n, size=count, replace=False)
        zx.flat[flat_x] = np.max(g.zx)
        zy.flat[flat_y] = np.max(g.zy)
    return GradientField(zx, zy, g.hx, g.hy)


def radial_covariance_set(g: GradientField) -> CovarianceSet:
    """Diagonal covariances approximating the radial noise ramp.

    The radial variance field v_ij = (dy_i^2 + dx_j^2) / r_max^2 is not
    separable; its best rank-one surrogate (row means times column means over
    the grand mean) gives per-row and per-column diagonal factors whose
    product matches the marginal profiles.  The overall scale is irrelevant
    to the weighted solution, so only the x/y component amplitudes enter.
    """
    dy = np.arange(g.m) - (g.m - 1) / 2.0
    dx = np.arange(g.n) - (g.n - 1) / 2.0
    r_sq_max = dy.max() ** 2 + dx.max() ** 2
    row = (dy**2 + np.mean(dx**2)) / r_sq_max
    col = (np.mean(dy**2) + dx**2) / r_sq_max
    grand = np.sqrt((np.mean(dy**2) + np.mean(dx**2)) / r_sq_max)
    amp_x = float(np.max(np.abs(g.zx))) or 1.0
    amp_y = float(np.max(np.abs(g.zy))) or 1.0
    return CovarianceSet(
        xy=np.diag(amp_x * row / grand),
        xx=np.diag(amp_x * col / grand),
        yy=np.diag(amp_y * row / grand),
        yx=np.diag(amp_y * col / grand),
    )


def boundary_frame(z) -> np.ndarray:
    """A copy of z with its interior zeroed, leaving the boundary frame.

    The usual input for a boundary-constrained reconstruction when the true
    edge heights are known.
    """
    heights = z.heights if isinstance(z, Surface) else np.asarray(z, dtype=float)
    frame = heights.copy()
    frame[1:-1, 1:-1] = 0.0
    return frame


def oracle_gls(g: GradientField, dx: DiffMatrix, dy: DiffMatrix) -> Surface:
    """Brute-force least-squares reconstruction via the stacked dense system.

    Builds the full 2mn-by-mn Kronecker coefficient matrix and returns the
    minimum-norm solution, mean-aligned.  This is the O((mn)^3) reference
    implementation; it refuses grids beyond the size guard rather than grind
    for hours.
    """
    if g.m * g.n > ORACLE_MAX_CELLS:
        raise SizeGuardError(
            f"oracle limited to {ORACLE_MAX_CELLS} cells, got {g.m}x{g.n}"
        )
    if dx.n != g.n or dy.n != g.m:
        raise DimensionError("operator sizes must match the gradient grid")
    eye_m = np.eye(g.m)
    eye_n = np.eye(g.n)
    coeff = np.vstack([np.kron(dx.entries, eye_m), np.kron(eye_n, dy.entries)])
    rhs = np.concatenate([g.zx.ravel(order="F"), g.zy.ravel(order="F")])
    sol, _, _, _ = np.linalg.lstsq(coeff, rhs, rcond=None)
    z = sol.reshape((g.m, g.n), order="F")
    return Surface(z - z.mean(), g.hx, g.hy)


@dataclass(frozen=True)
class TrialMetrics:
    """Scores of one reconstruction against truth and measured data."""

    cost_residual: float
    rel_error: float
    ks_statistic: float


_erfc = np.frompyfunc(math.erfc, 1, 1)
_KNOT_STRIDE = 64
# covers any ulp-level non-monotonicity of libm's erfc in the block bound
_BOUND_SLACK = 1e-12


def _phi(x: np.ndarray) -> np.ndarray:
    """Phi(x) = erfc(-x/sqrt 2)/2, which keeps the lower tail accurate."""
    return 0.5 * _erfc(x * -math.sqrt(0.5)).astype(float)


def _ks_distance(sample: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov distance between a sample and N(0, 1).

    sup |F_n - Phi| is attained at a sample point, just before or at its
    step: with 0-based i over the sorted x_i, the max of (i+1)/n - Phi_i and
    Phi_i - i/n.  Phi is evaluated exactly at knots, every
    ``_KNOT_STRIDE``-th index and the last one.  Phi is monotone, so for i
    strictly between knots a and b, (i+1)/n - Phi_i <= b/n - Phi_a and
    Phi_i - i/n <= Phi_b - (a+1)/n; Phi is evaluated inside a block only
    when that bound, plus ``_BOUND_SLACK``, reaches the maximum over the
    knots.  Every candidate is computed with the same arithmetic as the
    plain O(n) formula, a pruned point cannot exceed the maximum, and max is
    exact, so the result equals that formula bit for bit.
    """
    x = np.sort(np.ravel(sample))
    n = x.size
    knots = np.append(np.arange(0, n - 1, _KNOT_STRIDE), n - 1)
    phi = _phi(x[knots])
    d = max(np.max((knots + 1) / n - phi), np.max(phi - knots / n))
    a, b = knots[:-1], knots[1:]
    bound = np.maximum(b / n - phi[:-1], phi[1:] - (a + 1) / n) + _BOUND_SLACK
    inside = np.repeat(bound >= d, b - a)
    inside[a] = False
    i = np.flatnonzero(inside)
    if i.size:
        phi = _phi(x[i])
        d = max(d, np.max((i + 1) / n - phi), np.max(phi - i / n))
    return float(d)


def evaluate(z: Surface, z_true: Surface, g_meas: GradientField,
             dx: DiffMatrix, dy: DiffMatrix) -> TrialMetrics:
    """Cost residual, mean-aligned relative error, and residual normality.

    The KS statistic is the distance between the empirical distribution of
    the standardized gradient residuals (both components pooled) and the
    standard normal.  It is computed directly from the sorted sample; no
    p-value is computed.  Both residual components are written into one
    2mn buffer, which is centred and scaled in place, with the arithmetic
    of ``(res - res.mean()) / res.std()`` on the pooled sample.
    """
    if z.heights.shape != z_true.heights.shape or z.heights.shape != (g_meas.m, g_meas.n):
        raise DimensionError("surface, truth, and gradient dimensions must agree")
    cost = gradient_misfit(z, g_meas, dx, dy)
    za = z.heights - z.heights.mean()
    ta = z_true.heights - z_true.heights.mean()
    denom = np.linalg.norm(ta)
    za -= ta
    rel = float(np.linalg.norm(za) / (denom if denom > 0 else 1.0))
    del za, ta
    res = np.empty((2, g_meas.m, g_meas.n))
    np.subtract(apply_dx(z, dx), g_meas.zx, out=res[0])
    np.subtract(apply_dy(z, dy), g_meas.zy, out=res[1])
    res = res.reshape(-1)
    res -= res.mean()
    # res.std() is the root of the mean square of exactly these centred values
    sd = math.sqrt(np.square(res).sum() / res.size)
    ks = _ks_distance(np.divide(res, sd, out=res)) if sd > 0 else 0.0
    return TrialMetrics(cost_residual=float(cost), rel_error=rel, ks_statistic=ks)


def run_method(g: GradientField, dx: DiffMatrix, dy: DiffMatrix,
               spec: MethodSpec | LCurveTikhonov) -> Surface:
    """Reconstruct with a static method spec, or with an L-curve spec by
    :func:`~surfrec.regparam.lcurve_reconstruct`, the one L-curve route."""
    if isinstance(spec, LCurveTikhonov):
        return regparam.lcurve_reconstruct(g, dx, dy, spec)[1]
    return reconstruct(g, dx, dy, spec)


@dataclass(frozen=True)
class TrialRecord:
    method: str
    level: float
    trial: int
    metrics: TrialMetrics


@dataclass(frozen=True)
class CellStats:
    """Per-(method, level) aggregate over trials."""

    method: str
    level: float
    cost_mean: float
    cost_std: float
    rel_error_mean: float
    rel_error_std: float
    ks_mean: float
    ks_std: float


@dataclass(frozen=True)
class MonteCarloResult:
    cells: tuple[CellStats, ...]
    trials: tuple[TrialRecord, ...]

    def to_csv(self) -> str:
        """One row per cell under the ``CellStats`` field names; numbers by repr."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(f.name for f in fields(CellStats))
        writer.writerows([cell.method, *map(repr, astuple(cell)[1:])] for cell in self.cells)
        return buf.getvalue()


def trial_seed(base_seed: int, level_index: int, trial_index: int) -> int:
    """Derived 64-bit seed for one (level, trial) cell, shared by all methods."""
    seq = np.random.SeedSequence([int(base_seed), int(level_index), int(trial_index)])
    return int(seq.generate_state(1, np.uint64)[0])


def cell_gradient(g_true: GradientField, kind: str, level: float, base_seed: int,
                  level_index: int, trial_index: int) -> GradientField:
    """One (level, trial) cell's gradient: ``g_true`` with ``kind`` noise at
    ``level``, seeded by :func:`trial_seed`.  Every method of the cell in
    :func:`monte_carlo` sees it; ``surfrec simulate --dump`` writes cell (0, 0)'s."""
    seed = trial_seed(base_seed, level_index, trial_index)
    return add_noise(g_true, NoiseSpec(kind, level, seed))


def monte_carlo(methods, noise: NoiseSpec, levels, trials: int, base_seed: int,
                surface_spec: BumpSurfaceSpec | None = None,
                order: int = 4) -> MonteCarloResult:
    """Run the full (method, level, trial) grid and aggregate metrics.

    ``methods`` is a sequence of (label, spec) pairs; ``noise`` supplies the
    model kind (its level and seed are overridden per cell).  All methods in
    a cell see the same noisy data, :func:`cell_gradient`, drawn from a seed
    derived from (base_seed, level index, trial index), so runs are
    reproducible and methods directly comparable.  The default fourth-order
    operators keep the discretization error of the non-polynomial test
    surface well below the injected noise.  A repeated level or label is refused: its cells would
    pool each other's trials.
    """
    trials = whole_number("trials", trials, 1)
    whole_number("base seed", base_seed, 0)
    # every level meets the noise model's rules before any trial runs
    levels = [float(NoiseSpec(noise.kind, v).level) for v in levels]
    for name, values in (("noise levels", levels),
                         ("method labels", [label for label, _ in methods])):
        repeated = sorted(v for v, k in Counter(values).items() if k > 1)
        if repeated:
            raise ValueError(f"{name} repeated: {repeated}")
    spec = surface_spec if surface_spec is not None else default_bump_spec()
    z_true, g_true = bump_surface(spec)
    dx, dy = g_true.operators(order)
    records: list[TrialRecord] = []
    for li, level in enumerate(levels):
        for ti in range(trials):
            g_noisy = cell_gradient(g_true, noise.kind, level, base_seed, li, ti)
            for label, method in methods:
                z = run_method(g_noisy, dx, dy, method)
                records.append(TrialRecord(
                    method=label, level=level, trial=ti,
                    metrics=evaluate(z, z_true, g_noisy, dx, dy),
                ))
    cells = []
    for label, _ in methods:
        for level in levels:
            sample = [r.metrics for r in records
                      if r.method == label and r.level == level]
            cells.append(CellStats(
                method=label, level=level,
                cost_mean=statistics.fmean(m.cost_residual for m in sample),
                cost_std=_std([m.cost_residual for m in sample]),
                rel_error_mean=statistics.fmean(m.rel_error for m in sample),
                rel_error_std=_std([m.rel_error for m in sample]),
                ks_mean=statistics.fmean(m.ks_statistic for m in sample),
                ks_std=_std([m.ks_statistic for m in sample]),
            ))
    return MonteCarloResult(cells=tuple(cells), trials=tuple(records))


def _std(values) -> float:
    return float(np.std(np.asarray(values)))

"""Seeded inputs for the benchmark: a closed-form surface, noise, op sequences.

Everything here is the benchmark's own code.  The program under test only
ever receives the arrays and files produced here, so a change to
``surfrec.simulate`` cannot change what the benchmark feeds it or the truth
it scores against.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# (amplitude, centre (x, y), 2x2 SPD spread); wide enough that fourth-order
# differences track the analytic gradient closely on grids of 256 nodes and up
_BUMPS = (
    (1.0, (-0.35, -0.30), ((0.120, 0.030), (0.030, 0.080))),
    (-0.8, (0.40, -0.20), ((0.090, -0.025), (-0.025, 0.070))),
    (0.6, (0.00, 0.45), ((0.070, 0.015), (0.015, 0.110))),
)

# method variants the workloads run; the family names the surfrec spec class
FAMILY = {
    "gls": "gls", "spectral-cosine": "spectral", "spectral-gram": "spectral",
    "spectral-haar": "spectral", "tikhonov-0": "tikhonov", "tikhonov-2": "tikhonov",
    "dirichlet": "dirichlet", "wls": "weighted", "lcurve": "lcurve",
}
TIKHONOV_LAM0 = 1.0


@dataclass(frozen=True)
class Problem:
    """One reconstruction request: method variant, grid and noise draw."""

    method: str
    m: int
    n: int
    order: int
    extent: tuple[float, float, float, float]  # x0, x1, y0, y1
    noise_seed: int
    noise_level: float = 0.01
    outliers: int = 0

    @property
    def hx(self) -> float:
        return (self.extent[1] - self.extent[0]) / (self.n - 1)

    @property
    def hy(self) -> float:
        return (self.extent[3] - self.extent[2]) / (self.m - 1)

    @property
    def lam(self) -> float | None:
        """Fixed Tikhonov parameter; degree 2 scales with the spacing so the
        curvature penalty stays comparable to the data term."""
        if self.method == "tikhonov-0":
            return TIKHONOV_LAM0
        if self.method == "tikhonov-2":
            return 0.5 * min(self.hx, self.hy)
        return None


@dataclass(frozen=True)
class Inputs:
    """Arrays handed to the program, plus the truth they were made from."""

    z: np.ndarray
    zx: np.ndarray
    zy: np.ndarray
    hx: float
    hy: float
    boundary: np.ndarray
    cov: dict  # name -> diagonal of the covariance (xx, xy, yx, yy)


def truth(m: int, n: int, extent) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Heights and exact gradient of the bump surface on an m-by-n grid."""
    x0, x1, y0, y1 = extent
    xg, yg = np.meshgrid(np.linspace(x0, x1, n), np.linspace(y0, y1, m))
    z = np.zeros((m, n))
    gx = np.zeros((m, n))
    gy = np.zeros((m, n))
    for amp, (cx, cy), ((a, b), (_, c)) in _BUMPS:
        det = a * c - b * b
        ia, ib, ic = c / det, -b / det, a / det
        dx, dy = xg - cx, yg - cy
        e = amp * np.exp(-0.5 * (ia * dx * dx + 2.0 * ib * dx * dy + ic * dy * dy))
        z += e
        gx -= e * (ia * dx + ib * dy)
        gy -= e * (ib * dx + ic * dy)
    return z, gx, gy


def radial_diagonals(m: int, n: int) -> dict:
    """Diagonal covariances whose product ramps up away from the grid centre."""
    dy = (np.arange(m) - (m - 1) / 2.0) ** 2
    dx = (np.arange(n) - (n - 1) / 2.0) ** 2
    r2 = dy.max() + dx.max()
    row = (dy + dx.mean()) / r2
    col = (dy.mean() + dx) / r2
    return {"xy": row, "xx": col, "yy": 1.5 * row, "yx": 1.5 * col}


def frame(z: np.ndarray) -> np.ndarray:
    """z's boundary frame with a zero interior."""
    out = np.zeros_like(z)
    out[[0, -1], :] = z[[0, -1], :]
    out[:, [0, -1]] = z[:, [0, -1]]
    return out


def make_inputs(p: Problem) -> Inputs:
    """Noisy gradient for p: i.i.d. Gaussian noise at noise_level times each
    component's peak, then p.outliers pixels per component saturated."""
    z, gx, gy = truth(p.m, p.n, p.extent)
    rng = np.random.default_rng(p.noise_seed)
    zx = gx + rng.normal(0.0, p.noise_level * np.abs(gx).max(), gx.shape)
    zy = gy + rng.normal(0.0, p.noise_level * np.abs(gy).max(), gy.shape)
    for comp, clean in ((zx, gx), (zy, gy)) if p.outliers else ():
        idx = rng.choice(comp.size, size=p.outliers, replace=False)
        comp.flat[idx] = clean.max()
    cov = radial_diagonals(p.m, p.n) if p.method == "wls" else {}
    return Inputs(z, zx, zy, p.hx, p.hy, frame(z), cov)


def _seeds(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *key]))


# mixed-shapes: one round runs every slot once, each on a fresh grid
# (method, nominal rows, nominal columns, order); haar needs powers of two.
# On a 2-core box the op times fall into three light slots (about 0.13 s),
# five middle ones (0.25-0.4 s) and three heavy ones (0.7 s: wls and two
# megapixel GLS solves, the scale the paper promises).  With these counts
# the median of a run's op times falls inside the middle tier and p90
# inside the heavy one, not on a gap between two clusters of times.
MIXED_SLOTS = (
    ("lcurve", 256, 448, 4),
    ("spectral-haar", 512, 1024, 2),
    ("spectral-cosine", 896, 640, 2),
    ("gls", 768, 512, 2),
    ("dirichlet", 768, 640, 4),
    ("spectral-gram", 640, 1024, 4),
    ("tikhonov-0", 640, 896, 2),
    ("tikhonov-2", 512, 768, 4),
    ("wls", 512, 768, 2),
    ("gls", 1008, 960, 4),
    ("gls", 960, 1008, 2),
)
_JITTER = 8


def mixed_round(seed: int, round_index: int) -> list[Problem]:
    """The slots of one round, in slot order, with jittered sides and extents.

    The extents differ per op, so every op has its own node spacings and no
    two ops share a differentiation operator, even at equal sizes.  The
    extents vary by only 3% so that the height error of a slot stays steady.
    """
    rng = _seeds(seed, 1, round_index)
    out = []
    for method, m, n, order in MIXED_SLOTS:
        if method != "spectral-haar":
            m = int(np.clip(m + rng.integers(-_JITTER, _JITTER + 1), 256, 1024))
            n = int(np.clip(n + rng.integers(-_JITTER, _JITTER + 1), 256, 1024))
        wx, wy = rng.uniform(0.97, 1.03, size=2)
        out.append(Problem(method, m, n, order, (-wx, wx, -wy, wy),
                           int(rng.integers(2**63))))
    return out


def warmup_problem(workload: str) -> Problem:
    """The warm-up op of an in-process workload's set-up.

    It does not depend on the run's seed: the cost of a frame's scoring
    varies with its data (the KS p-value inside simulate.evaluate), and a
    seed-dependent warm-up would make set-up time vary from seed to seed.
    """
    if workload == "frame-stream":
        return frame_problem(0, 0)
    return next(p for p in mixed_round(0, 2**31) if p.method == "gls")


FRAME_SIDE = 512
FRAME_EXTENT = (-1.0, 1.0, -1.0, 1.0)


def frame_problem(seed: int, index: int) -> Problem:
    """Frame index of the stream: same grid and surface, fresh noise."""
    rng = _seeds(seed, 2, index)
    return Problem("gls", FRAME_SIDE, FRAME_SIDE, 4, FRAME_EXTENT,
                   int(rng.integers(2**63)), noise_level=0.01, outliers=8)


CLI_SIDE = 256
CLI_EXTENT = (-1.0, 1.0, -0.9, 0.9)
CLI_CYCLE = ("gls", "spectral", "tikhonov-lambda", "tikhonov-lcurve", "dirichlet", "wls")
CLI_BASES = ("cosine", "gram", "haar")


CLI_SETS = 5  # coprime to the cycle length, so each subcommand meets every set


def cli_problem(seed: int, k: int = 0) -> Problem:
    """Input set k of the cli-cold ops: one 256x256 grid, fresh noise per set."""
    rng = _seeds(seed, 3, k)
    return Problem("wls", CLI_SIDE, CLI_SIDE, 4, CLI_EXTENT, int(rng.integers(2**63)))


def cli_op(i: int) -> tuple[str, str]:
    """(subcommand variant, spectral basis family) of op i."""
    return CLI_CYCLE[i % len(CLI_CYCLE)], CLI_BASES[(i // len(CLI_CYCLE)) % len(CLI_BASES)]


def cli_method(variant: str, basis: str) -> str:
    """The Problem method variant a CLI op solves."""
    return {"gls": "gls", "spectral": f"spectral-{basis}", "tikhonov-lambda": "tikhonov-0",
            "tikhonov-lcurve": "lcurve", "dirichlet": "dirichlet", "wls": "wls"}[variant]


def as_method(p: Problem, method: str) -> Problem:
    return replace(p, method=method)


_G2S = struct.Struct("<4sIIdd")


def write_g2s(path: Path, values: np.ndarray, hx: float, hy: float) -> None:
    m, n = values.shape
    path.write_bytes(_G2S.pack(b"G2S1", m, n, hx, hy) + values.astype("<f8").tobytes())


def read_g2s(path: Path) -> tuple[np.ndarray, float, float]:
    raw = Path(path).read_bytes()
    magic, m, n, hx, hy = _G2S.unpack_from(raw)
    if magic != b"G2S1" or len(raw) != _G2S.size + 8 * m * n:
        raise ValueError(f"{path}: not a well-formed G2S1 grid")
    return np.frombuffer(raw, "<f8", offset=_G2S.size).reshape(m, n).copy(), hx, hy


def write_cli_inputs(workdir: Path, inp: Inputs, tag: str = "") -> dict:
    """Write the cli-cold input files; returns name -> path.

    Grid files carry the tag; the covariances depend only on the grid shape,
    so input sets of one shape share them.
    """
    files = {"zx": workdir / f"zx{tag}.g2s", "zy": workdir / f"zy{tag}.g2s",
             "boundary": workdir / f"boundary{tag}.g2s"}
    write_g2s(files["zx"], inp.zx, inp.hx, inp.hy)
    write_g2s(files["zy"], inp.zy, inp.hx, inp.hy)
    write_g2s(files["boundary"], inp.boundary, inp.hx, inp.hy)
    for name, diag in inp.cov.items():
        files[f"cov_{name}"] = path = workdir / f"cov_{name}.csv"
        if path.exists():
            continue
        rows = (",".join(repr(float(v)) for v in row) for row in np.diag(diag))
        path.write_text("\n".join(rows) + "\n")
    return {k: str(v) for k, v in files.items()}


def rel_error(z: np.ndarray, z_true: np.ndarray) -> float:
    """Relative height error after removing both means."""
    za = z - z.mean()
    ta = z_true - z_true.mean()
    return float(np.linalg.norm(za - ta) / np.linalg.norm(ta))


def half(k: int) -> int:
    return math.ceil(k / 2)

"""Command-line front end.

Subcommands: one per reconstruction method (gls, spectral, tikhonov,
dirichlet, wls), an L-curve sweep (lcurve), the Monte-Carlo driver
(simulate), and a timing benchmark (bench).  Gradient grids are read from
binary or CSV files (see gridio); surfaces and CSV tables are written
atomically.  Every failure class exits nonzero with a one-line diagnostic.

A subcommand imports only the modules it runs: ``regparam`` and
``simulate`` are loaded inside the subcommands that call them, and ``csv``
by the first CSV write, so a reconstruction process never pays for them.
``run_and_exit`` is the process entry point (``python -m surfrec.cli`` and
the installed ``surfrec`` command); ``main`` returns the exit code for
in-process callers.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
import time

import numpy as np

from .basis import BasisSet, make_basis
from .diffops import GradientField, Surface
from .errors import DimensionError, FormatError, SingularSystemError, SizeGuardError, whole_number
from .gridio import _csv_text, atomic_write, read_grid, write_grid
from .methods import (
    CovarianceSet, Dirichlet, Gls, Spectral, Tikhonov, Weighted,
    gradient_misfit, reconstruct,
)

_NOISE_FLAGS = {"iid": "iid", "radial": "heteroscedastic_radial", "outliers": "outliers"}


def _load_gradient(args, others=()) -> GradientField:
    """The gradient in ``args.zx`` and ``args.zy``, at the spacings of the binary
    grids among them and the (path, GridData) pairs ``others``, which must all
    agree; ``--hx/--hy`` apply only when none of these grids is binary."""
    gx, gy = read_grid(args.zx), read_grid(args.zy)
    if gx.values.shape != gy.values.shape:
        raise DimensionError(
            f"gradient grids disagree: {gx.values.shape} vs {gy.values.shape}"
        )
    binary = [(path, (d.hx, d.hy)) for path, d in ((args.zx, gx), (args.zy, gy), *others)
              if d.hx is not None]
    for path, spacings in binary[1:]:
        if spacings != binary[0][1]:
            raise DimensionError(f"node spacings (hx, hy) differ: {binary[0][1]!r} in "
                                 f"{binary[0][0]}, {spacings!r} in {path}")
    hx, hy = binary[0][1] if binary else (args.hx, args.hy)
    return GradientField(gx.values, gy.values, hx, hy)


def _reconstruct_and_report(args, spec_of, solve=reconstruct, others=()) -> int:
    """Read the gradient as :func:`_load_gradient` does, solve it with the spec
    ``spec_of(gradient)``, write the surface and print its ``cost`` line.  The spec
    is made after the operators, so a grid too small for the order is refused first."""
    g = _load_gradient(args, others)
    dx, dy = g.operators(args.order)
    z = solve(g, dx, dy, spec_of(g))
    write_grid(args.out, z.heights, z.hx, z.hy)
    print(f"cost {gradient_misfit(z, g, dx, dy):.17e}")
    return 0


def _cmd_gls(args) -> int:
    return _reconstruct_and_report(args, lambda g: Gls())


def _parse_list(text: str, kind) -> list:
    """The comma-separated values of ``text`` converted by ``kind``; blanks are skipped."""
    return [kind(v) for v in text.split(",") if v.strip() != ""]


def _basis_pair(family: str, m: int, n: int, p=None, q=None) -> tuple[BasisSet, BasisSet]:
    """(y, x) bases of ``family`` on an m-by-n grid, p and q wide (default ceil(m/2), ceil(n/2));
    one object serves both axes when (m, p) == (n, q)."""
    p = math.ceil(m / 2) if p is None else p
    q = math.ceil(n / 2) if q is None else q
    by = make_basis(family, m, p)
    return by, by if (n, q) == (m, p) else make_basis(family, n, q)


def _cmd_spectral(args) -> int:
    def spec_of(g: GradientField) -> Spectral:
        by, bx = _basis_pair(args.basis, g.m, g.n, args.p, args.q)
        if args.drop_cols:
            dropped = _parse_list(args.drop_cols, int)
            widest = max(by.p, bx.p)
            if any(c >= widest for c in dropped):
                raise ValueError(f"--drop-cols index out of range 0..{widest - 1} on both axes")
            by = by.drop([c for c in dropped if c < by.p])
            bx = bx.drop([c for c in dropped if c < bx.p])
        return Spectral(basis_y=by, basis_x=bx)

    return _reconstruct_and_report(args, spec_of)


def _cmd_tikhonov(args) -> int:
    if args.lcurve == (args.lam is not None):
        raise ValueError("give exactly one of --lambda or --lcurve")
    if args.lcurve and (args.mu is not None or args.degree != 0):
        raise ValueError("--lcurve sweeps degree 0 with mu = lambda; drop --mu and --degree")
    if args.points is not None and not args.lcurve:
        raise ValueError("--points sizes the --lcurve sweep; drop it or add --lcurve")
    if not args.lcurve:
        return _reconstruct_and_report(
            args, lambda g: Tikhonov(lam=args.lam, mu=args.mu, degree=args.degree))
    from .regparam import LCurveTikhonov, lcurve_reconstruct

    # built before any grid is read, so a bad --points fails first
    lcurve = LCurveTikhonov() if args.points is None else LCurveTikhonov(args.points)

    def solve(g, dx, dy, spec) -> Surface:
        lam, z = lcurve_reconstruct(g, dx, dy, spec)
        print(f"lambda {lam:.17e}")
        return z

    return _reconstruct_and_report(args, lambda g: lcurve, solve)


def _cmd_dirichlet(args) -> int:
    boundary = read_grid(args.boundary)
    return _reconstruct_and_report(args, lambda g: Dirichlet(boundary=boundary.values),
                                   others=[(args.boundary, boundary)])


def _cmd_wls(args) -> int:
    cov = CovarianceSet(
        xx=read_grid(args.cov_xx).values,
        xy=read_grid(args.cov_xy).values,
        yx=read_grid(args.cov_yx).values,
        yy=read_grid(args.cov_yy).values,
    )
    return _reconstruct_and_report(args, lambda g: Weighted(covariance=cov))


def _cmd_lcurve(args) -> int:
    from . import regparam

    whole_number("--points", args.points, 2)  # refused before any grid is read
    g = _load_gradient(args)
    dx, dy = g.operators(args.order)
    cache = regparam.build_cache(g, dx, dy)
    grid = regparam.default_lambda_grid(cache, args.points)
    points = regparam.l_curve(cache, grid)
    atomic_write(args.out, _csv_text([("lambda", "rho", "eta"), *points]).encode())
    return 0


def _cmd_simulate(args) -> int:
    from . import regparam, simulate

    spec = simulate.default_bump_spec(args.rows, args.cols)
    z_true, g_true = simulate.bump_surface(spec)
    levels = _parse_list(args.levels, float)
    methods = [
        ("gls", Gls()),
        ("spectral_half", Spectral(*_basis_pair(args.basis, g_true.m, g_true.n))),
        ("tikhonov_lcurve", regparam.LCurveTikhonov()),
        ("dirichlet_true", Dirichlet(boundary=simulate.boundary_frame(z_true))),
        ("weighted_radial", Weighted(covariance=simulate.radial_covariance_set(g_true))),
    ]
    kind = _NOISE_FLAGS[args.noise]
    result = simulate.monte_carlo(methods, kind, levels, args.trials, args.seed,
                                  surface_spec=spec, order=args.order)
    if args.dump:
        # written after monte_carlo, which refuses a bad trial count or order,
        # and before the metrics, so a bad prefix leaves no metrics file
        g0 = simulate.cell_gradient(g_true, kind, levels[0], args.seed, 0, 0)
        write_grid(f"{args.dump}_zx.g2s", g0.zx, g0.hx, g0.hy)
        write_grid(f"{args.dump}_zy.g2s", g0.zy, g0.hx, g0.hy)
        write_grid(f"{args.dump}_ztrue.g2s", z_true.heights, z_true.hx, z_true.hy)
    atomic_write(args.out, result.to_csv().encode())
    return 0


_BENCH_METHODS = ("gls", "spectral", "tikhonov", "dirichlet", "weighted", "tikhonov_lcurve")


def _bench_spec(name: str, g: GradientField):
    m, n = g.m, g.n
    if name == "gls":
        return Gls()
    if name == "spectral":
        return Spectral(*_basis_pair("cosine", m, n))
    if name == "tikhonov":
        return Tikhonov(lam=1.0)
    if name == "dirichlet":
        return Dirichlet(boundary=np.zeros((m, n)))
    if name == "weighted":
        return Weighted(covariance=CovarianceSet.identity(m, n))
    from .regparam import LCurveTikhonov  # the last name, "tikhonov_lcurve"
    return LCurveTikhonov()


def run_bench(sizes, repeats: int = 10, seed: int = 0, order: int = 2) -> list[dict]:
    """Time each method on square random gradients; returns one row per cell.

    Direct solvers run in data-independent time, so random input is as good
    as any.  Each cell reports the mean of `repeats` runs after a warm-up.
    """
    from .simulate import run_method

    whole_number("repeats", repeats, 1)
    whole_number("seed", seed, 0)
    sizes = list(sizes)
    if not sizes:
        raise ValueError("bench needs at least one grid size")
    for size in sizes:
        whole_number("grid size", size, 1)
    rng = np.random.default_rng(seed)
    rows = []
    for size in sizes:
        g = GradientField(rng.standard_normal((size, size)),
                          rng.standard_normal((size, size)))
        dx, dy = g.operators(order)
        for name in _BENCH_METHODS:
            spec = _bench_spec(name, g)
            run_method(g, dx, dy, spec)  # warm-up, untimed
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                run_method(g, dx, dy, spec)
                times.append(time.perf_counter() - start)
            # the min is the cleanest single-run estimate on a noisy machine;
            # the mean is what long-run throughput sees
            rows.append({"method": name, "size": size,
                         "seconds": sum(times) / repeats,
                         "seconds_min": min(times), "repeats": repeats})
    return rows


def _cmd_bench(args) -> int:
    sizes = _parse_list(args.sizes, int)
    rows = run_bench(sizes, repeats=args.repeats, seed=args.seed, order=args.order)
    # the columns are run_bench's row keys
    atomic_write(args.out, _csv_text([list(rows[0]), *(r.values() for r in rows)]).encode())
    return 0


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("zx", help="x-derivative grid file")
    p.add_argument("zy", help="y-derivative grid file")
    p.add_argument("--out", required=True, help="output surface grid file")
    p.add_argument("--order", type=int, choices=(2, 4), default=2,
                   help="derivative accuracy order (default 2)")
    p.add_argument("--hx", type=float, default=1.0,
                   help="x node spacing when no input grid is binary (binary grids carry theirs)")
    p.add_argument("--hy", type=float, default=1.0,
                   help="y node spacing when no input grid is binary")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfrec",
        description="Reconstruct a surface height grid from a measured gradient field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gls", help="global least-squares reconstruction")
    _add_grid_args(p)
    p.set_defaults(func=_cmd_gls)

    p = sub.add_parser("spectral", help="truncated orthonormal-basis reconstruction")
    _add_grid_args(p)
    p.add_argument("--basis", choices=("cosine", "gram", "haar"), default="cosine")
    p.add_argument("--p", type=int, default=None, help="basis count along y (default half)")
    p.add_argument("--q", type=int, default=None, help="basis count along x (default half)")
    p.add_argument("--drop-cols", default="", help="comma-separated basis columns to remove")
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("tikhonov", help="penalized least-squares reconstruction")
    _add_grid_args(p)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="regularization parameter")
    p.add_argument("--mu", type=float, default=None, help="y-penalty parameter (default: lambda)")
    p.add_argument("--degree", type=int, choices=(0, 1, 2), default=0)
    p.add_argument("--lcurve", action="store_true",
                   help="pick the parameter at the corner of an L-curve sweep")
    p.add_argument("--points", type=int, default=None,
                   help="L-curve sweep size (default 20; needs --lcurve)")
    p.set_defaults(func=_cmd_tikhonov)

    p = sub.add_parser("dirichlet", help="reconstruction with prescribed boundary heights")
    _add_grid_args(p)
    p.add_argument("--boundary", required=True, help="boundary-value grid file")
    p.set_defaults(func=_cmd_dirichlet)

    p = sub.add_parser("wls", help="covariance-weighted reconstruction")
    _add_grid_args(p)
    p.add_argument("--cov-xx", required=True, help="x-derivative column covariance (n x n)")
    p.add_argument("--cov-xy", required=True, help="x-derivative row covariance (m x m)")
    p.add_argument("--cov-yx", required=True, help="y-derivative column covariance (n x n)")
    p.add_argument("--cov-yy", required=True, help="y-derivative row covariance (m x m)")
    p.set_defaults(func=_cmd_wls)

    p = sub.add_parser("lcurve", help="emit an L-curve sweep as CSV")
    _add_grid_args(p)
    p.add_argument("--points", type=int, default=20)
    p.set_defaults(func=_cmd_lcurve)

    p = sub.add_parser("simulate", help="Monte-Carlo noise study; writes a metrics CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--noise", choices=tuple(_NOISE_FLAGS), default="iid")
    p.add_argument("--levels", default="0.1", help="comma-separated noise levels")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rows", type=int, default=150)
    p.add_argument("--cols", type=int, default=150)
    p.add_argument("--order", type=int, choices=(2, 4), default=4)
    p.add_argument("--basis", choices=("cosine", "gram", "haar"), default="cosine")
    p.add_argument("--dump", default="",
                   help="prefix: also write the first cell's gradient and the true surface")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bench", help="time the solvers across grid sizes; writes CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--sizes", default="128,256,512", help="comma-separated square sizes")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", type=int, choices=(2, 4), default=2)
    p.set_defaults(func=_cmd_bench)

    return parser


_FAILURE_CLASSES = (
    (FormatError, "format error"),
    (DimensionError, "dimension error"),
    (SingularSystemError, "singular system"),
    (SizeGuardError, "size guard"),
    (OSError, "i/o error"),
    (ValueError, "invalid argument"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in _FAILURE_CLASSES) as exc:
        for cls, label in _FAILURE_CLASSES:
            if isinstance(exc, cls):
                print(f"surfrec: {label}: {exc}", file=sys.stderr)
                break
        return 1


def run_and_exit() -> None:
    """Run main() on the command line and end the process with its code."""
    code = main()
    # the process ends here, so nothing it left alive needs collecting:
    # freezing those objects spares interpreter exit a cyclic-GC pass over
    # every object numpy and surfrec created
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run_and_exit()

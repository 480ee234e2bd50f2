"""The ops of the three workloads, as a user of surfrec would make them.

A timed op calls only stable entry points: ``surfrec.reconstruct``,
``simulate.run_method`` with ``LCurveTikhonov()``, ``simulate.evaluate``,
``make_basis``, ``CovarianceSet`` and the CLI module.  The traced replay of
a CLI op (``replay_cli``) also calls what the subcommand calls: ``read_grid``,
``write_grid``, ``gradient_misfit`` and the ``regparam`` sweep.  Spans are
opened around those calls; ``NULL`` makes them free.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

from surfrec import (
    CovarianceSet, Dirichlet, GradientField, Gls, Spectral, Surface, Tikhonov, Weighted,
    gradient_misfit, make_basis, read_grid, reconstruct, regparam, simulate, write_grid,
)

from inputs import FAMILY, Inputs, Problem, as_method, half

CLI_TIMEOUT_S = 120


def solve(p: Problem, inp: Inputs, tr, operators=None):
    """One reconstruction of p; returns (heights, spectral bases or None,
    operators)."""
    g = GradientField(inp.zx, inp.zy, inp.hx, inp.hy)
    if operators is None:
        with tr.span("diffops.operators"):
            operators = g.operators(p.order)
    dx, dy = operators
    family = FAMILY[p.method]
    bases = None
    if family == "lcurve":
        with tr.span("simulate.run_method"):
            z = simulate.run_method(g, dx, dy, simulate.LCurveTikhonov())
        return z.heights, bases, operators
    if family == "spectral":
        kind = p.method.split("-")[1]
        with tr.span(f"basis.make.{kind}"):
            by = make_basis(kind, p.m, half(p.m))
        with tr.span(f"basis.make.{kind}"):
            bx = make_basis(kind, p.n, half(p.n))
        spec = Spectral(basis_y=by, basis_x=bx)
        bases = (by.entries, bx.entries)
    elif family == "tikhonov":
        spec = Tikhonov(lam=p.lam, degree=int(p.method[-1]))
    elif family == "dirichlet":
        spec = Dirichlet(boundary=inp.boundary)
    elif family == "weighted":
        dense = {k: np.diag(v) for k, v in inp.cov.items()}
        with tr.span("methods.covariance"):
            spec = Weighted(covariance=CovarianceSet(**dense))
    else:
        spec = Gls()
    with tr.span(f"methods.reconstruct.{family}"):
        z = reconstruct(g, dx, dy, spec)
    return z.heights, bases, operators


def evaluate(z, inp: Inputs, operators, tr):
    """simulate.evaluate of heights z against the truth of inp."""
    g = GradientField(inp.zx, inp.zy, inp.hx, inp.hy)
    with tr.span("simulate.evaluate"):
        return simulate.evaluate(Surface(z, inp.hx, inp.hy), Surface(inp.z, inp.hx, inp.hy),
                                 g, *operators)


def frame_op(p: Problem, inp: Inputs, operators, tr):
    """One frame of the stream: GLS and L-curve Tikhonov, both scored."""
    zg = solve(p, inp, tr, operators)[0]
    zl = solve(as_method(p, "lcurve"), inp, tr, operators)[0]
    return zg, zl, evaluate(zg, inp, operators, tr), evaluate(zl, inp, operators, tr)


def cli_argv(variant: str, basis: str, files: dict, out: str, lam: float) -> list[str]:
    """The CLI invocation of one cli-cold op."""
    if variant == "spectral":
        extra = ["spectral", "--basis", basis]
    elif variant == "tikhonov-lambda":
        extra = ["tikhonov", "--lambda", repr(lam)]
    elif variant == "tikhonov-lcurve":
        extra = ["tikhonov", "--lcurve"]
    elif variant == "dirichlet":
        extra = ["dirichlet", "--boundary", files["boundary"]]
    elif variant == "wls":
        extra = ["wls"] + [a for k in ("xx", "xy", "yx", "yy")
                           for a in (f"--cov-{k}", files[f"cov_{k}"])]
    else:
        extra = [variant]
    return [sys.executable, "-m", "surfrec.cli", extra[0], files["zx"], files["zy"],
            "--out", out, "--order", "4", *extra[1:]]


def run_process(argv, env, cwd) -> tuple[float, subprocess.CompletedProcess]:
    """Run argv to completion; returns (wall seconds, completed process)."""
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S, check=False)
    return time.perf_counter() - start, done


def replay_cli(op: dict, tr) -> dict:
    """The library calls a CLI subcommand makes, spanned; for traced runs.

    Mirrors the subcommand: read both gradient grids (and the boundary or
    covariance files), build operators, solve, write the surface, report the
    misfit.  Returns bytes read and written.
    """
    io = {"read": 0, "write": 0}

    def read(path):
        kind = "csv" if path.endswith(".csv") else "g2s"
        with tr.span(f"gridio.read.{kind}"):
            values = read_grid(path)
        io["read"] += os.path.getsize(path)
        return values

    files, variant = op["files"], op["variant"]
    gx, gy = read(files["zx"]), read(files["zy"])
    g = GradientField(gx.values, gy.values, gx.hx, gx.hy)
    with tr.span("diffops.operators"):
        dx, dy = g.operators(op["order"])
    if variant == "tikhonov-lcurve":
        cache = regparam.build_cache(g, dx, dy)
        grid = regparam.default_lambda_grid(cache, 20)
        lam = regparam.corner(regparam.l_curve(cache, grid))
        z = regparam.reconstruct_from_cache(cache, lam)
    else:
        family = "weighted" if variant == "wls" else variant.split("-")[0]
        if variant == "gls":
            spec = Gls()
        elif variant == "spectral":
            kind = op["basis"]
            with tr.span(f"basis.make.{kind}"):
                by = make_basis(kind, g.m, half(g.m))
            with tr.span(f"basis.make.{kind}"):
                bx = make_basis(kind, g.n, half(g.n))
            spec = Spectral(basis_y=by, basis_x=bx)
        elif variant == "tikhonov-lambda":
            spec = Tikhonov(lam=op["lam"])
        elif variant == "dirichlet":
            spec = Dirichlet(boundary=read(files["boundary"]).values)
        else:
            covs = {k: read(files[f"cov_{k}"]).values for k in ("xx", "xy", "yx", "yy")}
            with tr.span("methods.covariance"):
                spec = Weighted(covariance=CovarianceSet(**covs))
        with tr.span(f"methods.reconstruct.{family}"):
            z = reconstruct(g, dx, dy, spec)
    with tr.span("gridio.write"):
        write_grid(op["out"], z.heights, z.hx, z.hy)
    io["write"] += os.path.getsize(op["out"])
    with tr.span("methods.misfit"):
        gradient_misfit(z, g, dx, dy)
    return io

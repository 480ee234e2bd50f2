"""Tests of the benchmark itself: seeded inputs, the output check, failure
counting and the refusal to run without the package sources."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from spans import NULL, Tracer, accounting_gap, self_times  # noqa: E402

EXTENT = (-1.0, 1.0, -0.8, 0.8)
VARIANTS = [(m, o) for m, _, _, o in inputs.MIXED_SLOTS]


def _bench(workload="mixed-shapes", seed=0):
    args = SimpleNamespace(workload=workload, seed=seed, seconds=1.0, trace=0)
    return bench.Bench(args, env={}, workdir=HERE)


def _small(method, order, seed=5):
    m, n = (16, 32) if method == "spectral-haar" else (18, 24)
    return inputs.Problem(method, m, n, order, EXTENT, seed)


def _digest(p):
    inp = inputs.make_inputs(p)
    return [a.tobytes() for a in (inp.z, inp.zx, inp.zy, inp.boundary)]


def test_same_seed_gives_same_ops_and_inputs():
    assert inputs.mixed_round(7, 3) == inputs.mixed_round(7, 3)
    assert inputs.frame_problem(7, 4) == inputs.frame_problem(7, 4)
    for p in inputs.mixed_round(7, 0)[:3] + [inputs.frame_problem(7, 1), inputs.cli_problem(7)]:
        assert _digest(p) == _digest(p)


def test_different_seed_gives_different_inputs():
    assert inputs.mixed_round(7, 0) != inputs.mixed_round(8, 0)
    assert _digest(inputs.frame_problem(7, 1)) != _digest(inputs.frame_problem(8, 1))
    assert _digest(inputs.cli_problem(7)) != _digest(inputs.cli_problem(8))


def test_cli_input_files_are_byte_identical_per_seed(tmp_path):
    trees = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        files = inputs.write_cli_inputs(tmp_path / name, inputs.make_inputs(inputs.cli_problem(seed)))
        trees[name] = {k: Path(v).read_bytes() for k, v in files.items()}
    assert trees["a"] == trees["b"]
    assert trees["a"]["zx"] != trees["c"]["zx"]
    assert trees["a"]["cov_xx"] == trees["c"]["cov_xx"]  # the covariances depend on the shape only


def test_mixed_rounds_never_share_operators():
    seen = set()
    for r in range(4):
        for p in inputs.mixed_round(3, r):
            for key in ((p.m, p.hy, p.order), (p.n, p.hx, p.order)):
                assert key not in seen
                seen.add(key)


@pytest.mark.parametrize("method,order", VARIANTS)
def test_results_pass_and_perturbed_surfaces_fail_the_check(method, order):
    p = _small(method, order)
    inp = inputs.make_inputs(p)
    z, bases, (dx, dy) = workloads.solve(p, inp, NULL)
    fails, _ = checks.check_surface(p, inp, z, dx.entries, dy.entries, p.lam, bases)
    assert fails == []
    bumped = z.copy()
    bumped[p.m // 2, p.n // 3] += 1e-6 * np.abs(z).max()
    fails, resid = checks.check_surface(p, inp, bumped, dx.entries, dy.entries, p.lam, bases)
    assert fails, f"perturbed {method} surface passed with residual {resid:.3e}"


def test_shape_and_finiteness_are_checked():
    p = _small("gls", 2)
    inp = inputs.make_inputs(p)
    z, _, (dx, dy) = workloads.solve(p, inp, NULL)
    assert checks.check_surface(p, inp, z[:, 1:], dx.entries, dy.entries)[0]
    z[0, 0] = np.nan
    assert checks.check_surface(p, inp, z, dx.entries, dy.entries)[0]


def test_every_variant_agrees_with_the_dense_solve():
    runner = _bench()
    runner.oracle_checks(VARIANTS)
    assert runner.attempted == len(VARIANTS)
    assert runner.failures == []


def test_cli_op_that_exits_nonzero_counts_as_failed(tmp_path):
    p = inputs.cli_problem(0)
    inp = inputs.make_inputs(p)
    files = {k: str(tmp_path / f"missing_{k}.g2s") for k in ("zx", "zy", "boundary")}
    out = str(tmp_path / "out.g2s")
    env = {"PYTHONPATH": str(bench.SRC), "PATH": "/usr/bin:/bin"}
    _, done = workloads.run_process(workloads.cli_argv("gls", "cosine", files, out, 1.0),
                                    env, tmp_path)
    assert done.returncode != 0
    runner = _bench("cli-cold")
    ops = workloads.GradientField(inp.zx, inp.zy, inp.hx, inp.hy).operators(p.order)
    fails = runner.check_cli("gls", p, inp, done, out, ops)
    runner.record("gls", fails)
    assert (runner.attempted, len(runner.failures)) == (1, 1)
    assert "exit code" in runner.failures[0]


def test_self_times_sum_to_the_op_root():
    tr = Tracer()
    tr.op = 1
    with tr.span("op"):
        with tr.span("a"):
            with tr.span("b"):
                pass
        with tr.span("c"):
            pass
    own = self_times(tr.spans)
    assert abs(sum(own) - (tr.spans[0][2] - tr.spans[0][1])) < 1e-12
    assert accounting_gap(tr.spans) < 1e-12


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mixed-shapes",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0
    assert done.stdout == ""

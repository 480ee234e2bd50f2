import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import surfrec.cli
from surfrec import (
    GradientField, Spectral, apply_dx, apply_dy, diff_matrix, make_basis, read_grid,
    reconstruct, write_grid,
)
from surfrec import simulate
from surfrec.cli import _BENCH_METHODS, _basis_pair, _parse_list, main, run_bench


def discrete_gradient_files(tmp_path, n=12, seed=80):
    """Write a discretely integrable gradient pair, so the misfit is zero."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)).cumsum(axis=0).cumsum(axis=1) / n
    dx = dy = diff_matrix(n, 1.0, 2)
    zx_path = tmp_path / "zx.g2s"
    zy_path = tmp_path / "zy.g2s"
    write_grid(zx_path, apply_dx(z, dx))
    write_grid(zy_path, apply_dy(z, dy))
    return z, str(zx_path), str(zy_path)


def printed_cost(capsys):
    out = capsys.readouterr().out
    match = re.search(r"^cost ([0-9eE.+-]+)$", out, re.MULTILINE)
    assert match, f"no cost line in output: {out!r}"
    return float(match.group(1))


class TestReconstructionCommands:
    def test_gls_on_integrable_data_has_zero_cost(self, tmp_path, capsys):
        z, zx, zy = discrete_gradient_files(tmp_path)
        out = tmp_path / "z.g2s"
        assert main(["gls", zx, zy, "--out", str(out)]) == 0
        assert printed_cost(capsys) <= 1e-15
        got = read_grid(out).values
        assert np.max(np.abs((got - got.mean()) - (z - z.mean()))) <= 1e-8

    def test_tikhonov_zero_lambda_matches_gls_files(self, tmp_path, capsys):
        _, zx, zy = discrete_gradient_files(tmp_path, seed=81)
        out_g = tmp_path / "g.g2s"
        out_t = tmp_path / "t.g2s"
        assert main(["gls", zx, zy, "--out", str(out_g)]) == 0
        assert main(["tikhonov", zx, zy, "--lambda", "0", "--out", str(out_t)]) == 0
        a = read_grid(out_g).values
        b = read_grid(out_t).values
        assert np.max(np.abs(a - b)) <= 1e-8

    @pytest.mark.parametrize("basis", ["cosine", "gram"])
    @pytest.mark.parametrize("drop", [[], ["--drop-cols=0"]], ids=["full", "band"])
    def test_square_spectral_builds_one_basis(self, tmp_path, capsys, monkeypatch, basis, drop):
        _, zx, zy = discrete_gradient_files(tmp_path, n=16, seed=92)
        built = []

        def counting(*args):
            built.append(args)
            return make_basis(*args)

        monkeypatch.setattr(surfrec.cli, "make_basis", counting)
        out = tmp_path / "z.g2s"
        assert main(["spectral", zx, zy, "--basis", basis, "--out", str(out)] + drop) == 0
        assert built == [(basis, 16, 8)]
        # the same surface as two separately built bases give
        g = GradientField(read_grid(zx).values, read_grid(zy).values)
        by, bx = make_basis(basis, 16, 8), make_basis(basis, 16, 8)
        if drop:
            by, bx = by.drop([0]), bx.drop([0])
        want = reconstruct(g, *g.operators(2), Spectral(basis_y=by, basis_x=bx)).heights
        assert np.array_equal(read_grid(out).values, want)

    def test_spectral_and_wls_and_dirichlet_run(self, tmp_path, capsys):
        z, zx, zy = discrete_gradient_files(tmp_path, seed=82)
        n = z.shape[0]
        out = tmp_path / "z.g2s"
        assert main(["spectral", zx, zy, "--basis", "cosine", "--out", str(out)]) == 0
        eye = tmp_path / "eye.csv"
        write_grid(eye, np.eye(n))
        assert main(["wls", zx, zy, "--out", str(out),
                     "--cov-xx", str(eye), "--cov-xy", str(eye),
                     "--cov-yx", str(eye), "--cov-yy", str(eye)]) == 0
        zb = tmp_path / "zb.g2s"
        frame = np.zeros_like(z)
        frame[0, :], frame[-1, :], frame[:, 0], frame[:, -1] = z[0], z[-1], z[:, 0], z[:, -1]
        write_grid(zb, frame)
        assert main(["dirichlet", zx, zy, "--boundary", str(zb), "--out", str(out)]) == 0
        got = read_grid(out).values
        assert np.max(np.abs(got - z)) <= 1e-6

    def test_tikhonov_lcurve_flag(self, tmp_path, capsys):
        _, zx, zy = discrete_gradient_files(tmp_path, seed=83)
        out = tmp_path / "z.g2s"
        assert main(["tikhonov", zx, zy, "--lcurve", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert re.search(r"^lambda [0-9eE.+-]+$", text, re.MULTILINE)

    def test_tikhonov_requires_exactly_one_parameter_source(self, tmp_path, capsys):
        _, zx, zy = discrete_gradient_files(tmp_path, seed=84)
        out = tmp_path / "z.g2s"
        assert main(["tikhonov", zx, zy, "--out", str(out)]) == 1
        assert main(["tikhonov", zx, zy, "--lambda", "1", "--lcurve",
                     "--out", str(out)]) == 1

    def test_csv_inputs_with_spacing_flags(self, tmp_path, capsys):
        n = 9
        x = np.linspace(0.0, 2.0, n)
        xg, yg = np.meshgrid(x, x)
        h = x[1] - x[0]
        zx = tmp_path / "zx.csv"
        zy = tmp_path / "zy.csv"
        write_grid(zx, 2 * xg)
        write_grid(zy, 2 * yg)
        out = tmp_path / "z.g2s"
        assert main(["gls", str(zx), str(zy), "--hx", str(h), "--hy", str(h),
                     "--out", str(out)]) == 0
        data = read_grid(out)
        want = xg**2 + yg**2
        assert np.max(np.abs((data.values - data.values.mean())
                             - (want - want.mean()))) <= 1e-9


def run_process(argv, **env_vars):
    """The CLI in a process of its own, as the installed command runs it,
    with env_vars added to its environment; -W error also fails on runpy's
    warning should the package import cli."""
    # the child must import this same package, installed or not
    src = str(Path(surfrec.cli.__file__).resolve().parents[1])
    env = {**os.environ, **env_vars,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    # buffered, the printed lines reach the pipe only if exit flushes them
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-W", "error", "-m", "surfrec.cli", *argv],
                          capture_output=True, text=True, env=env)


class TestProcess:
    """A CLI process exits through run_and_exit, which freezes the collector
    before the interpreter's exit; its files and lines match main()'s."""

    @pytest.mark.parametrize("command,printed", [
        (["gls"], ["cost"]),
        (["tikhonov", "--lcurve"], ["lambda", "cost"]),
    ], ids=["gls", "tikhonov-lcurve"])
    def test_matches_in_process_run(self, tmp_path, capsys, command, printed):
        _, zx, zy = discrete_gradient_files(tmp_path, n=24, seed=91)
        want, out = tmp_path / "want.g2s", tmp_path / "z.g2s"
        assert main([command[0], zx, zy, *command[1:], "--out", str(want)]) == 0
        lines = capsys.readouterr().out
        done = run_process([command[0], zx, zy, *command[1:], "--out", str(out)])
        assert (done.returncode, done.stderr) == (0, "")
        assert [line.split()[0] for line in lines.splitlines()] == printed
        assert done.stdout == lines  # flushed at exit, frozen objects or not
        assert out.read_bytes() == want.read_bytes()

    def test_simulate_is_byte_for_byte_at_one_blas_thread(self, tmp_path):
        # the BLAS thread count can move results by rounding, so the
        # byte-for-byte claim holds at a fixed count, set in the child alone
        one = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
        outs = [tmp_path / f"run{k}.csv" for k in range(2)]
        for out in outs:
            done = run_process(["simulate", "--rows", "24", "--cols", "24", "--levels", "0.05",
                                "--trials", "2", "--out", str(out)], **one)
            assert (done.returncode, done.stderr) == (0, "")
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_refused_input(self, tmp_path):
        _, zx, zy = discrete_gradient_files(tmp_path, seed=92)
        Path(zy).write_bytes(Path(zy).read_bytes()[:-8])
        out = tmp_path / "z.g2s"
        done = run_process(["gls", zx, zy, "--out", str(out)])
        assert (done.returncode, done.stdout) == (1, "")
        assert re.fullmatch(r"surfrec: format error: [^\n]*truncated payload[^\n]*\n", done.stderr)
        assert not out.exists()


class TestLCurveCommand:
    def test_emits_csv(self, tmp_path):
        _, zx, zy = discrete_gradient_files(tmp_path, seed=85)
        out = tmp_path / "lcurve.csv"
        assert main(["lcurve", zx, zy, "--points", "8", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,rho,eta"
        assert len(lines) == 9


class TestPointsRefusedUpFront:
    """A sweep too small for its command, or a sweep size without a sweep,
    fails before any grid is read."""

    @pytest.mark.parametrize("command", [
        ["tikhonov", "--lcurve", "--points", "4"],
        ["tikhonov", "--lcurve", "--points", "0"],
        ["lcurve", "--points", "1"],
        ["tikhonov", "--lambda", "0.5", "--points", "3"],
    ])
    def test_no_solve_and_no_output(self, tmp_path, capsys, monkeypatch, command):
        _, zx, zy = discrete_gradient_files(tmp_path, seed=86)
        out = tmp_path / "out"
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        assert main([command[0], zx, zy, *command[1:], "--out", str(out)]) == 1
        assert "surfrec: invalid argument: " in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("command", [
        ["tikhonov", "--lcurve", "--points", "4"], ["lcurve", "--points", "1"],
        ["tikhonov", "--lambda", "0.5", "--points", "3"],
    ])
    def test_refused_before_the_grids_are_read(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.g2s")
        assert main([command[0], missing, missing, *command[1:],
                     "--out", str(tmp_path / "out")]) == 1
        assert "surfrec: invalid argument: " in capsys.readouterr().err

    def test_smallest_sizes_still_run(self, tmp_path):
        _, zx, zy = discrete_gradient_files(tmp_path, seed=87)
        assert main(["tikhonov", zx, zy, "--lcurve", "--points", "5",
                     "--out", str(tmp_path / "z.g2s")]) == 0
        assert main(["lcurve", zx, zy, "--points", "2",
                     "--out", str(tmp_path / "l.csv")]) == 0


class TestSimulateCommand:
    def test_metrics_csv_and_determinism(self, tmp_path):
        args = ["simulate", "--rows", "16", "--cols", "16", "--trials", "2",
                "--levels", "0.1", "--seed", "9", "--order", "2"]
        out1 = tmp_path / "m1.csv"
        out2 = tmp_path / "m2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert len(lines) == 6  # header + five roster methods at one level

    def test_dump_writes_loadable_grids(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        prefix = tmp_path / "dump"
        assert main(["simulate", "--rows", "32", "--cols", "32", "--trials", "1",
                     "--levels", "0", "--seed", "3", "--order", "2",
                     "--out", str(out), "--dump", str(prefix)]) == 0
        zx = read_grid(f"{prefix}_zx.g2s")
        zy = read_grid(f"{prefix}_zy.g2s")
        zt = read_grid(f"{prefix}_ztrue.g2s")
        assert zx.values.shape == (32, 32)
        assert zt.values.shape == (32, 32)
        # the dumped gradient is analytic, so a noiseless reconstruction
        # bottoms out at the fourth-order truncation floor, not at zero
        z_out = tmp_path / "z.g2s"
        assert main(["gls", f"{prefix}_zx.g2s", f"{prefix}_zy.g2s",
                     "--order", "4", "--out", str(z_out)]) == 0
        cost = printed_cost(capsys)
        assert cost <= 1e-3

    def test_dump_is_the_first_cells_gradient(self, tmp_path):
        prefix = tmp_path / "dump"
        assert main(["simulate", "--rows", "20", "--cols", "18", "--trials", "1",
                     "--noise", "radial", "--levels", "0.05,0.1", "--seed", "7", "--order", "2",
                     "--out", str(tmp_path / "m.csv"), "--dump", str(prefix)]) == 0
        _, g_true = simulate.bump_surface(simulate.default_bump_spec(20, 18))
        g0 = simulate.cell_gradient(g_true, "heteroscedastic_radial", 0.05, 7, 0, 0)
        assert np.array_equal(read_grid(f"{prefix}_zx.g2s").values, g0.zx)
        assert np.array_equal(read_grid(f"{prefix}_zy.g2s").values, g0.zy)

    @pytest.mark.parametrize("flags,label", [
        (["--trials", "0", "--rows", "16", "--cols", "16"], "invalid argument"),
        (["--trials", "1", "--rows", "20", "--cols", "16", "--basis", "haar"], "invalid argument"),
        (["--trials", "1", "--rows", "4", "--cols", "16", "--order", "4"], "dimension error"),
        (["--trials", "1", "--rows", "16", "--cols", "16", "--levels", "0.1,0.1"],
         "invalid argument"),
    ], ids=["no-trials", "haar-not-power-of-two", "grid-below-stencil", "repeated-level"])
    def test_refused_run_leaves_no_dump(self, tmp_path, capsys, flags, label):
        out = tmp_path / "m.csv"
        prefix = tmp_path / "dump"
        # the last --levels wins, so a case's own levels follow the default
        assert main(["simulate", "--levels", "0.1", *flags,
                     "--out", str(out), "--dump", str(prefix)]) == 1
        assert f"surfrec: {label}: " in capsys.readouterr().err
        for name in ("zx", "zy", "ztrue"):
            assert not (tmp_path / f"dump_{name}.g2s").exists()
        assert not out.exists()


class TestHelpers:
    @pytest.mark.parametrize("m,n,p,q,widths", [
        (9, 9, None, None, (5, 5)), (9, 12, None, None, (5, 6)), (12, 9, 6, None, (6, 5)),
        (8, 8, 3, 5, (3, 5)), (8, 10, 4, 4, (4, 4)),
    ])
    def test_basis_pair_widths(self, m, n, p, q, widths):
        by, bx = _basis_pair("gram", m, n, p, q)
        assert (by.n, bx.n) == (m, n) and (by.p, bx.p) == widths
        assert np.array_equal(by.entries, make_basis("gram", m, widths[0]).entries)
        assert np.array_equal(bx.entries, make_basis("gram", n, widths[1]).entries)

    def test_basis_pair_shares_one_object_when_the_axes_match(self):
        by, bx = _basis_pair("cosine", 10, 10)
        assert by is bx
        by, bx = _basis_pair("cosine", 10, 10, 5, 6)
        assert by is not bx

    def test_parse_list(self):
        assert _parse_list("3, 1,,4 ,", int) == [3, 1, 4]
        assert _parse_list("0.5,1e-3", float) == [0.5, 1e-3]
        assert _parse_list(",", float) == []
        with pytest.raises(ValueError):
            _parse_list("1,x", int)


class TestBench:
    def test_rows_and_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "16,24", "--repeats", "1",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,size,seconds,seconds_min,repeats"
        assert len(lines) == 1 + 2 * 6  # two sizes, six methods

    def test_run_bench_subset(self):
        rows = run_bench([16], repeats=1)
        assert [r["method"] for r in rows] == list(_BENCH_METHODS)
        assert all(r["seconds"] > 0 for r in rows)
        for name, bad in (("repeats", True), ("seed", -1)):
            with pytest.raises(ValueError, match=name):
                run_bench([np.int64(16)], **{name: bad})


class TestFailureClasses:
    def test_missing_file(self, tmp_path, capsys):
        out = tmp_path / "z.g2s"
        assert main(["gls", "/nonexistent/zx", "/nonexistent/zy",
                     "--out", str(out)]) == 1
        assert "i/o error" in capsys.readouterr().err
        assert not out.exists()

    def test_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        out = tmp_path / "z.g2s"
        assert main(["gls", str(bad), str(bad), "--out", str(out)]) == 1
        assert "format error" in capsys.readouterr().err

    def test_dimension_error(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_grid(a, np.zeros((4, 5)))
        write_grid(b, np.zeros((5, 4)))
        out = tmp_path / "z.g2s"
        assert main(["gls", str(a), str(b), "--out", str(out)]) == 1
        assert "dimension error" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_argument(self, tmp_path, capsys):
        _, zx, zy = discrete_gradient_files(tmp_path, seed=86)
        out = tmp_path / "z.g2s"
        assert main(["tikhonov", zx, zy, "--lambda", "-2", "--out", str(out)]) == 1
        assert "invalid argument" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,name", [("--lambda", "lam"), ("--mu", "mu")])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_parameter(self, tmp_path, capsys, flag, name, bad):
        _, zx, zy = discrete_gradient_files(tmp_path, seed=87)
        out = tmp_path / "z.g2s"
        args = ["tikhonov", zx, zy, "--lambda", "1", "--out", str(out)]
        args += [flag, bad]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "invalid argument" in err and f"parameter {name} " in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--degree", "2"], ["--mu", "5"]])
    def test_lcurve_refuses_fixed_parameter_flags(self, tmp_path, capsys, flag):
        _, zx, zy = discrete_gradient_files(tmp_path, seed=89)
        out = tmp_path / "z.g2s"
        assert main(["tikhonov", zx, zy, "--lcurve", *flag, "--out", str(out)]) == 1
        assert "invalid argument" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_dump_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["simulate", "--rows", "16", "--cols", "16", "--trials", "1",
                     "--out", str(out), "--dump", str(tmp_path / "none" / "dump")]) == 1
        assert "i/o error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args,message", [
        (["bench", "--sizes", "16", "--repeats", "0"], "repeat"),
        (["simulate", "--rows", "16", "--cols", "16", "--levels", ""], "noise level"),
        (["bench", "--sizes", ","], "grid size"),
    ])
    def test_empty_run_request(self, tmp_path, capsys, args, message):
        out = tmp_path / "table.csv"
        assert main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "invalid argument" in err and message in err
        assert not out.exists()

    def test_negative_drop_column(self, tmp_path, capsys):
        _, zx, zy = discrete_gradient_files(tmp_path, seed=88)
        out = tmp_path / "z.g2s"
        assert main(["spectral", zx, zy, "--drop-cols=-1", "--out", str(out)]) == 1
        assert "invalid argument" in capsys.readouterr().err
        assert not out.exists()

    def test_drop_column_out_of_range_on_both_axes(self, tmp_path, capsys):
        _, zx, zy = discrete_gradient_files(tmp_path, seed=90)
        out = tmp_path / "z.g2s"
        assert main(["spectral", zx, zy, "--drop-cols=999", "--out", str(out)]) == 1
        assert "invalid argument" in capsys.readouterr().err
        assert not out.exists()
        # an index in range on one axis only still drops from that axis
        assert main(["spectral", zx, zy, "--p", "8", "--q", "4", "--drop-cols=6",
                     "--out", str(out)]) == 0
        dropped = printed_cost(capsys)
        assert main(["spectral", zx, zy, "--p", "8", "--q", "4", "--out", str(out)]) == 0
        assert printed_cost(capsys) != dropped

    @pytest.mark.parametrize("level", ["nan", "inf", "0.1,nan"])
    def test_non_finite_noise_level(self, tmp_path, capsys, level):
        out = tmp_path / "m.csv"
        assert main(["simulate", "--rows", "16", "--cols", "16", "--trials", "1",
                     "--levels", level, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "invalid argument" in err and "noise level" in err
        assert not out.exists()

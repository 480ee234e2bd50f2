"""The benchmark proper: set-up, the timed closed loop of each workload,
output checks, the traced run and the metrics.  ``run.py`` is the entry
point; it pins the BLAS threads before this module loads numpy.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from surfrec import make_basis, regparam, simulate

import checks
import envinfo
import inputs
import workloads
from spans import NULL, Tracer, accounting_gap, durations, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 3
WALL_CAP_S = 150  # stop starting rounds after this, to end inside 180 s
PROBE_SHAPE = (256, 192)
FAILURE_LOG = 20

FAMILIES = ("gls", "spectral", "tikhonov", "dirichlet", "weighted")
# the probe op that exercises a per-layer metric a workload never reaches
PROBES = {
    "basis.make_s.cosine": "spectral-cosine", "basis.make_s.gram": "spectral-gram",
    "basis.make_s.haar": "spectral-haar", "methods.covariance_s": "wls",
    **{f"{layer}.{f}": v for f, v in zip(FAMILIES, ("gls", "spectral-cosine", "tikhonov-0",
                                                     "dirichlet", "wls"))
       for layer in ("methods.assemble_s", "sylvester.solve_s")},
    **{k: "lcurve" for k in ("regparam.build_cache_s", "regparam.l_curve_s", "regparam.corner_s",
                             "regparam.from_cache_s", "regparam.points", "simulate.run_method_s",
                             "simulate.evaluate_s", "methods.misfit_s")},
    **{k: "gls" for k in ("diffops.operators_s", "methods.backmap_s", "sylvester.gflops",
                          "sylvester.deflated_frac", "sylvester.resid_rel")},
    **{k: "cli" for k in ("cli.overhead_s", "gridio.read_s.g2s", "gridio.read_s.csv",
                          "gridio.write_s", "gridio.read_mb", "gridio.write_mb")},
}


def percentile_report(times: list[float]) -> dict:
    """p50, p90 and the highest percentile with ten samples beyond it."""
    n = len(times)
    deciles = statistics.quantiles(times, n=10, method="inclusive") if n > 1 else times * 9
    supported = int(100 * (1 - 10 / n)) if n > 20 else None
    return {"samples": n, "p50": statistics.median(times), "p90": deciles[8],
            "supported_percentile": supported}


class Bench:
    def __init__(self, args, env, workdir: Path):
        self.args = args
        self.env = env
        self.workdir = workdir
        self.trace = bool(args.trace)
        self.start = time.perf_counter()
        self.times: list[float] = []  # untraced op walls
        self.spent = 0.0  # all op walls, traced ones too: the run's budget
        # [cells, seconds] per round: one op, or one mixed-shapes round of all slots
        self.rounds: list[list] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.rel = {"gls": [], "lcurve": []}
        self.crosschecked: set[str] = set()
        self.resid_max = 0.0
        # cli_wall and cli_inproc pair a real CLI op with its replay
        self.ext = {"import_numpy": [], "import_surfrec": [], "cli_wall": [], "cli_inproc": [],
                    "read_bytes": [], "write_bytes": [], "solves": [], "points": [],
                    "overhead": []}
        self.tr = None
        self.oracle = {}
        self.cli_bases = {}  # spectral bases the CLI checks need, by family

    # -- bookkeeping ---------------------------------------------------------------------

    def record(self, label: str, fails) -> None:
        self.attempted += 1
        if fails:
            self.failures.append(f"{label}: {'; '.join(fails)}")

    def add_time(self, wall: float, cells: int, new_round: bool = True) -> None:
        self.times.append(wall)
        self.spent += wall
        if new_round:
            self.rounds.append([0, 0.0])
        self.rounds[-1][0] += cells
        self.rounds[-1][1] += wall

    def budget_left(self) -> bool:
        return (self.spent < self.args.seconds
                and time.perf_counter() - self.start < WALL_CAP_S)

    def check(self, p, inp, z, operators, lam=None, bases=None, tracer=None,
              evaluated=None) -> list[str]:
        """Output check of one result; GLS and L-curve results are also scored
        against the truth, and the score is cross-checked with
        simulate.evaluate: every result the op itself scored, and otherwise
        the first result of each kind in the run."""
        dx, dy = operators
        fails, resid = checks.check_surface(p, inp, z, dx.entries, dy.entries,
                                            lam=p.lam if lam is None else lam, bases=bases)
        if resid < float("inf"):  # shape and finiteness held
            self.resid_max = max(self.resid_max, resid)
        if p.method in ("gls", "lcurve") and resid < float("inf"):
            own = inputs.rel_error(z, inp.z)
            self.rel[p.method].append(own)
            if evaluated is None and p.method not in self.crosschecked:
                self.crosschecked.add(p.method)
                evaluated = workloads.evaluate(z, inp, operators, tracer or NULL).rel_error
            if evaluated is not None and not abs(evaluated - own) <= 1e-9 * own:
                fails.append(f"simulate.evaluate rel_error {evaluated!r} differs from {own!r}")
        return fails

    # -- set-up ----------------------------------------------------------------------

    def setup_probe(self) -> float:
        """Wall time of a fresh interpreter that imports surfrec and runs one
        warm-up op; when tracing, also its import spans."""
        argv = [sys.executable, str(HERE / "replay.py"), "setup", self.args.workload]
        wall, done = workloads.run_process(argv, self.env, self.workdir)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
        spans = json.loads(done.stdout.splitlines()[-1])["spans"]
        for name, key in (("import.numpy", "import_numpy"), ("import.surfrec", "import_surfrec")):
            self.ext[key] += [e - s for n, s, e, *_ in spans if n == name]
        return wall

    def oracle_checks(self, variants) -> None:
        """Each variant on a small grid against the dense Kronecker solve."""
        for i, (method, order) in enumerate(variants):
            m, n = (16, 32) if method == "spectral-haar" else (18, 24)
            p = inputs.Problem(method, m, n, order, (-1.0, 1.0, -0.8, 0.8),
                               self.args.seed * 1000 + i)
            inp = inputs.make_inputs(p)
            try:
                z, bases, ops = workloads.solve(p, inp, NULL)
                dx, dy = ops
                g = workloads.GradientField(inp.zx, inp.zy, inp.hx, inp.hy)
                lam = p.lam
                if method == "gls":
                    ref = simulate.oracle_gls(g, dx, dy).heights
                else:
                    if method == "lcurve":
                        cache = regparam.build_cache(g, dx, dy)
                        lam = regparam.corner(regparam.l_curve(
                            cache, regparam.default_lambda_grid(cache, 20)))
                    ref = checks.oracle(p, inp, dx.entries, dy.entries, lam=lam, bases=bases)
                mismatch = checks.oracle_mismatch(z, ref)
                self.oracle[f"{method}/{order}"] = mismatch
                fails, _ = checks.check_surface(p, inp, z, dx.entries, dy.entries, lam, bases)
                if not mismatch <= checks.ORACLE_TOL:
                    fails.append(f"deviates {mismatch:.3e} from the dense solve")
            except Exception as exc:  # a failing op is counted, not fatal
                fails = [f"{type(exc).__name__}: {exc}"]
            self.record(f"oracle {method}/order {order}", fails)

    # -- traced extras -----------------------------------------------------------------

    def traced(self, fn, op_id):
        """Run fn(tracer) under an op root span; returns (wall, result)."""
        self.tr.op = op_id
        self.tr.install()
        try:
            start = time.perf_counter()
            with self.tr.span("op"):
                out = fn(self.tr)
            wall = time.perf_counter() - start
        finally:
            self.tr.uninstall()
        self.ext["solves"] += self.tr.take_solves()
        return wall, out

    def replay_cli(self, op: dict, op_id) -> float:
        """A CLI op replayed in a fresh interpreter; its spans join the trace
        under an op root covering the whole process."""
        argv = [sys.executable, str(HERE / "replay.py"), "cli", json.dumps(op)]
        wall, done = workloads.run_process(argv, self.env, self.workdir)
        if done.returncode != 0:
            raise RuntimeError(f"replay failed: {done.stderr.strip()[-400:]}")
        got = json.loads(done.stdout.splitlines()[-1])
        spans = got["spans"]
        inproc = spans[0][2] - spans[0][1]
        offset = wall - inproc  # interpreter start and exit, outside the replay
        root = self.tr.add("op", 0.0, wall, -1, op_id)
        self.tr.add("cli.startup", 0.0, offset, root, op_id)
        base = len(self.tr.spans)
        for name, s, e, parent, _ in spans:
            self.tr.add(name, s - spans[0][1] + offset, e - spans[0][1] + offset,
                        root if parent < 0 else base + parent, op_id)
        self.ext["cli_inproc"].append(inproc)
        self.ext["import_numpy"] += [e - s for n, s, e, *_ in spans if n == "import.numpy"]
        self.ext["import_surfrec"] += [e - s for n, s, e, *_ in spans if n == "import.surfrec"]
        self.ext["read_bytes"].append(got["io"]["read"])
        self.ext["write_bytes"].append(got["io"]["write"])
        self.ext["solves"] += got["solves"]
        self.ext["points"] += got["points"]
        return wall

    def layer_metrics(self) -> dict:
        spans = self.tr.spans
        ext = self.ext
        out = {
            "import.surfrec_s": median(ext["import_surfrec"]),
            "import.numpy_s": median(ext["import_numpy"]),
            "cli.interp_s": median(ext["interp"]),
            # what a CLI process spends beyond interpreter start and the
            # library calls the replay makes: argparse, the cli module, exit
            "cli.overhead_s": median([w - i - median(ext["interp"]) for w, i in
                                      zip(ext["cli_wall"], ext["cli_inproc"])]),
            "gridio.read_s.g2s": median(durations(spans, "gridio.read.g2s")),
            "gridio.read_s.csv": median(durations(spans, "gridio.read.csv")),
            "gridio.write_s": median(durations(spans, "gridio.write")),
            "gridio.read_mb": median([b / 1e6 for b in ext["read_bytes"]]),
            "gridio.write_mb": median([b / 1e6 for b in ext["write_bytes"]]),
            "diffops.operators_s": median(durations(spans, "diffops.operators")),
            "methods.covariance_s": median(durations(spans, "methods.covariance")),
            "methods.misfit_s": median(durations(spans, "methods.misfit")),
            "regparam.build_cache_s": median(durations(spans, "regparam.build_cache")),
            "regparam.l_curve_s": median(durations(spans, "regparam.l_curve")),
            "regparam.corner_s": median(durations(spans, "regparam.corner")),
            "regparam.from_cache_s": median(durations(spans, "regparam.from_cache")),
            "regparam.points": median(ext["points"] + self.tr.points),
            "simulate.run_method_s": median(durations(spans, "simulate.run_method")),
            "simulate.evaluate_s": median(durations(spans, "simulate.evaluate")),
            "machine.gemm_gflops": ext.get("machine", {}).get("gemm_gflops"),
            "machine.eigh_s": ext.get("machine", {}).get("eigh_s"),
        }
        for kind in ("cosine", "gram", "haar"):
            out[f"basis.make_s.{kind}"] = median(durations(spans, f"basis.make.{kind}"))
        # assemble is the part of a reconstruct call before its solve starts,
        # the back-map the part after the solve ends
        backmap = []
        for family in FAMILIES:
            assemble, solve = [], []
            for i, s in enumerate(spans):
                if s[0] != f"methods.reconstruct.{family}":
                    continue
                kids = [c for c in spans[i + 1:] if c[3] == i and c[0] == "sylvester.solve"]
                if len(kids) == 1:
                    assemble.append(kids[0][1] - s[1])
                    solve.append(kids[0][2] - kids[0][1])
                    backmap.append(s[2] - kids[0][2])
            out[f"methods.assemble_s.{family}"] = median(assemble)
            out[f"sylvester.solve_s.{family}"] = median(solve)
        out["methods.backmap_s"] = median(backmap)
        solves = ext["solves"]
        if solves:
            out["sylvester.gflops"] = sum(s[0] for s in solves) / sum(s[1] for s in solves) / 1e9
            out["sylvester.deflated_frac"] = sum(1 for s in solves if s[3]) / len(solves)
            out["sylvester.resid_rel"] = max(s[2] for s in solves)
        return out

    def probe_layers(self, missing) -> None:
        """Exercise, on a small fixed problem, the layers this workload never
        reaches, so every per-layer metric carries a measured value."""
        wanted = sorted({PROBES[k] for k in missing if k in PROBES})
        for i, method in enumerate(wanted):
            op_id = f"probe-{i}"
            if method == "cli":
                p = inputs.Problem("wls", 96, 128, 4, (-1.0, 1.0, -0.8, 0.8), self.args.seed)
                where = self.workdir / "probe"
                where.mkdir(exist_ok=True)
                files = inputs.write_cli_inputs(where, inputs.make_inputs(p))
                out = str(where / "out.g2s")
                argv = workloads.cli_argv("wls", "cosine", files, out, 1.0)
                wall, done = workloads.run_process(argv, self.env, self.workdir)
                op = {"variant": "wls", "basis": "cosine", "files": files, "order": 4,
                      "out": str(where / "replay.g2s"), "lam": 1.0}
                self.ext["cli_wall"].append(wall)
                self.replay_cli(op, op_id)
                continue
            m, n = (256, 128) if method == "spectral-haar" else PROBE_SHAPE
            p = inputs.Problem(method, m, n, 4, (-1.0, 1.0, -0.8, 0.8), self.args.seed)
            inp = inputs.make_inputs(p)

            def run(tr, p=p, inp=inp):
                z, _, ops = workloads.solve(p, inp, tr)
                if method == "lcurve":
                    workloads.evaluate(z, inp, ops, tr)
            self.traced(run, op_id)

    def finish_trace(self) -> tuple[dict, dict]:
        self.ext["interp"] = [workloads.run_process([sys.executable, "-c", "pass"], self.env,
                                                    self.workdir)[0] for _ in range(3)]
        self.ext["machine"] = envinfo.machine_rates()
        found = self.layer_metrics()
        missing = [k for k, v in found.items() if v is None]
        self.probe_layers(missing)
        metrics = self.layer_metrics()
        out = ROOT / ".perfbench_out" / f"spans-{self.args.workload}-{self.args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                   "spans": self.tr.spans}, default=str))
        detail = {
            "spans_file": str(out.relative_to(ROOT)),
            "probed": sorted(k for k in missing if metrics.get(k) is not None),
            "unmeasured": sorted(k for k, v in metrics.items() if v is None),
            "unhooked": self.tr.unhooked,
            "spans": len(self.tr.spans),
            "overhead_s_p50": statistics.median(self.ext["overhead"]) if self.ext["overhead"] else None,
            "accounting_gap_s_max": accounting_gap(self.tr.spans),
        }
        return metrics, detail

    # -- workloads --------------------------------------------------------------------

    def run_mixed(self) -> list[float]:
        setup = [self.setup_probe() for _ in range(SETUP_SAMPLES)]
        self.oracle_checks([(m, o) for m, _, _, o in inputs.MIXED_SLOTS])
        warm = inputs.warmup_problem("mixed-shapes")
        workloads.solve(warm, inputs.make_inputs(warm), NULL)
        r = 0
        while self.budget_left():
            for k, p in enumerate(inputs.mixed_round(self.args.seed, r)):
                inp = inputs.make_inputs(p)
                label = f"round {r} op {k} {p.method} {p.m}x{p.n}"
                try:
                    start = time.perf_counter()
                    z, bases, ops = workloads.solve(p, inp, NULL)
                    wall = time.perf_counter() - start
                    self.add_time(wall, p.m * p.n, new_round=k == 0)
                    if self.trace:
                        tw, _ = self.traced(lambda tr: workloads.solve(p, inp, tr), (r, k))
                        self.ext["overhead"].append(tw - wall)
                        self.spent += tw
                    fails = self.check(p, inp, z, ops, bases=bases, tracer=self.tr_check((r, k)))
                except Exception as exc:
                    fails = [f"{type(exc).__name__}: {exc}"]
                self.record(label, fails)
            r += 1
        return setup

    def tr_check(self, op_id):
        """Tracer for check-phase calls: spans kept apart from the op's."""
        if not self.trace:
            return NULL
        self.tr.op = ("check", op_id)
        return self.tr

    def run_frames(self) -> list[float]:
        setup = [self.setup_probe() for _ in range(SETUP_SAMPLES)]
        self.oracle_checks([("gls", 4), ("lcurve", 4)])
        first = inputs.frame_problem(self.args.seed, 0)
        inp0 = inputs.make_inputs(first)
        g = workloads.GradientField(inp0.zx, inp0.zy, inp0.hx, inp0.hy)
        if self.trace:
            ops = self.traced(lambda tr: self._operators(g, first.order, tr), "setup")[1]
        else:
            ops = g.operators(first.order)
        workloads.frame_op(first, inp0, ops, NULL)
        i = 1
        while self.budget_left():
            p = inputs.frame_problem(self.args.seed, i)
            inp = inputs.make_inputs(p)
            label = f"frame {i}"
            try:
                start = time.perf_counter()
                zg, zl, mg, ml = workloads.frame_op(p, inp, ops, NULL)
                wall = time.perf_counter() - start
                self.add_time(wall, 2 * p.m * p.n)
                if self.trace:
                    tw, _ = self.traced(lambda tr: workloads.frame_op(p, inp, ops, tr), i)
                    self.ext["overhead"].append(tw - wall)
                    self.spent += tw
                fails = self.check(p, inp, zg, ops, evaluated=mg.rel_error)
                fails += self.check(inputs.as_method(p, "lcurve"), inp, zl, ops,
                                    evaluated=ml.rel_error)
            except Exception as exc:
                fails = [f"{type(exc).__name__}: {exc}"]
            self.record(label, fails)
            i += 1
        return setup

    @staticmethod
    def _operators(g, order, tr):
        with tr.span("diffops.operators"):
            return g.operators(order)

    def run_cli(self) -> list[float]:
        problems = [inputs.cli_problem(self.args.seed, k) for k in range(inputs.CLI_SETS)]
        sets = []
        for k, p in enumerate(problems):
            inp = inputs.make_inputs(p)
            sets.append((inp, inputs.write_cli_inputs(self.workdir, inp, str(k))))
        out = str(self.workdir / "out.g2s")
        warm = workloads.cli_argv("gls", "cosine", sets[0][1], out, 1.0)
        setup = [workloads.run_process(warm, self.env, self.workdir)[0]
                 for _ in range(SETUP_SAMPLES)]
        self.oracle_checks([(inputs.cli_method(v, b), 4) for v, b in
                            [("spectral", b) for b in inputs.CLI_BASES]
                            + [(v, "cosine") for v in inputs.CLI_CYCLE if v != "spectral"]])
        g = workloads.GradientField(inp.zx, inp.zy, inp.hx, inp.hy)
        ops = g.operators(problems[0].order)  # every set has the same grid
        i = 0
        while self.budget_left():
            variant, basis = inputs.cli_op(i)
            inp, files = sets[i % inputs.CLI_SETS]
            p = inputs.as_method(problems[i % inputs.CLI_SETS], inputs.cli_method(variant, basis))
            label = f"cli op {i} {variant} {basis if variant == 'spectral' else ''}".rstrip()
            argv = workloads.cli_argv(variant, basis, files, out, inputs.TIKHONOV_LAM0)
            try:
                wall, done = workloads.run_process(argv, self.env, self.workdir)
                self.add_time(wall, p.m * p.n)
                if self.trace:
                    op = {"variant": variant, "basis": basis, "files": files, "order": 4,
                          "out": str(self.workdir / "replay.g2s"), "lam": inputs.TIKHONOV_LAM0}
                    tw = self.replay_cli(op, i)
                    self.ext["cli_wall"].append(wall)
                    self.ext["overhead"].append(tw - wall)
                    self.spent += tw
                fails = self.check_cli(label, p, inp, done, out, ops)
            except Exception as exc:
                fails = [f"{type(exc).__name__}: {exc}"]
            self.record(label, fails)
            i += 1
        return setup

    def check_cli(self, label, p, inp, done, out, ops) -> list[str]:
        if done.returncode != 0:
            return [f"exit code {done.returncode}: {done.stderr.strip()[-300:]}"]
        printed = dict(line.split(" ", 1) for line in done.stdout.splitlines() if " " in line)
        z, _, _ = inputs.read_g2s(out)
        os.unlink(out)
        lam = float(printed["lambda"]) if p.method == "lcurve" else None
        basis_pair = None
        if p.method.startswith("spectral-"):
            kind = p.method.split("-")[1]
            if kind not in self.cli_bases:
                self.cli_bases[kind] = make_basis(kind, p.m, inputs.half(p.m)).entries
            basis_pair = (self.cli_bases[kind],) * 2  # the grid is square
        fails = self.check(p, inp, z, ops, lam=lam, bases=basis_pair,
                           tracer=self.tr_check(label))
        dx, dy = ops
        cost = (np.linalg.norm(z @ dx.entries.T - inp.zx) ** 2
                + np.linalg.norm(dy.entries @ z - inp.zy) ** 2)
        if not abs(float(printed.get("cost", "nan")) - cost) <= 1e-6 * cost:
            fails.append(f"printed cost {printed.get('cost')} differs from {cost!r}")
        return fails

    # -- result -----------------------------------------------------------------------

    def execute(self) -> tuple[dict, dict]:
        if self.trace:
            self.tr = Tracer()
        runner = {"cli-cold": self.run_cli, "mixed-shapes": self.run_mixed,
                  "frame-stream": self.run_frames}[self.args.workload]
        setup = runner()
        if not self.times:
            raise RuntimeError(f"no op completed: {self.failures[:3]}")
        failed = len(self.failures)
        detail = {
            "workload": self.args.workload, "seed": self.args.seed, "seconds": self.args.seconds,
            "trace": int(self.trace),
            "environment": envinfo.record(ROOT, SRC, self.args.seed),
            "op_s": percentile_report(self.times),
            "timed_s": sum(self.times), "attempted": self.attempted, "failed": failed,
            "failed_frac": failed / max(self.attempted, 1), "failures": self.failures[:FAILURE_LOG],
            "setup_samples": setup, "oracle_mismatch": self.oracle,
            "stationarity_resid_max": self.resid_max,
            "rel_error_samples": {k: len(v) for k, v in self.rel.items()},
        }
        if self.trace:
            values, detail["tracing"] = self.finish_trace()
            declared = "per_layer"
            values = {k: (0.0 if v is None else v) for k, v in values.items()}
        else:
            who = resource.RUSAGE_CHILDREN if self.args.workload == "cli-cold" else resource.RUSAGE_SELF
            pct = detail["op_s"]
            values = {
                "op_s.p50": pct["p50"], "op_s.p90": pct["p90"],
                # the median over rounds, so that a few ops whose cost depends
                # on their data (the KS p-value in simulate.evaluate) move it
                # less than they would move a ratio of totals
                "mpix_per_s": statistics.median(c / t for c, t in self.rounds) / 1e6,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
                "ok_frac": 1.0 - detail["failed_frac"],
                # 1.0, the error of a flat surface, when no result was scored
                "rel_error.gls": statistics.fmean(self.rel["gls"] or [1.0]),
                "rel_error.lcurve": statistics.fmean(self.rel["lcurve"] or [1.0]),
            }
            declared = "end_to_end"
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())[declared]
        result = {
            "correct": failed == 0, "attempted": self.attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
        }
        return detail, result

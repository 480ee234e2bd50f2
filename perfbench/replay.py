"""Fresh-interpreter helper for run.py; prints one JSON object.

    python perfbench/replay.py setup <workload>          # import + one warm-up op
    python perfbench/replay.py cli '<op as JSON>'        # traced replay of a CLI op

Only the standard library is loaded before the timed imports, so the
``import.numpy`` and ``import.surfrec`` spans are the costs a fresh CLI
process pays.  The caller puts ``src`` on PYTHONPATH and pins the threads.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402  (standard library only)


def _setup(tr: Tracer, workload: str) -> None:
    import inputs
    import workloads

    p = inputs.warmup_problem(workload)
    inp = inputs.make_inputs(p)
    with tr.span("warmup"):
        if workload == "frame-stream":
            with tr.span("diffops.operators"):
                ops = workloads.GradientField(inp.zx, inp.zy, inp.hx, inp.hy).operators(p.order)
            workloads.frame_op(p, inp, ops, tr)
        else:
            workloads.solve(p, inp, tr)


def main(argv) -> int:
    start = time.perf_counter()
    tr = Tracer()
    tr.op = 0
    out = {}
    with tr.span("replay"):
        with tr.span("import.numpy"):
            import numpy  # noqa: F401
        with tr.span("import.surfrec"):
            import surfrec  # noqa: F401
        if argv[0] == "setup":
            _setup(tr, argv[1])
        elif argv[0] == "cli":
            import workloads

            tr.install()
            out["io"] = workloads.replay_cli(json.loads(argv[1]), tr)
        else:
            raise SystemExit(f"unknown mode {argv[0]!r}")
    out["solves"] = tr.take_solves()
    out["points"] = tr.points
    out["spans"] = [[n, s - start, e - start, p, o] for n, s, e, p, o in tr.spans]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

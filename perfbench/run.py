"""surfrec benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload {cli-cold,mixed-shapes,frame-stream}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is loaded from ``src`` there.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  The line
before it is the detail record: environment, sample counts, failures and,
when tracing, the span accounting.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402

WORKLOADS = ("cli-cold", "mixed-shapes", "frame-stream")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    envinfo.pin_threads()  # before anything loads numpy
    if not (SRC / "surfrec" / "__init__.py").is_file():
        print(f"perfbench: no surfrec package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    env = dict(os.environ, PYTHONPATH=str(SRC))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        detail, result = bench.Bench(args, env, workdir).execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

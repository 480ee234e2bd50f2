"""Thread pinning, the environment record and the machine's reference rates.

``pin_threads`` must run before numpy is first imported: OpenBLAS reads its
thread count once, at load.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> None:
    """Pin every BLAS thread pool to the cores this process may run on;
    child processes inherit the setting."""
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return None
    return done.stdout.strip() or None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def record(root: Path, src: Path, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": _commit(root),
        "source_sha256": source_digest(src),
        "seed": seed,
    }


def machine_rates(n: int = 1024, repeats: int = 3) -> dict:
    """GEMM GFLOP/s and symmetric eigendecomposition seconds at size n."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    sym = a + a.T
    gemm, eigh = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        gemm.append(time.perf_counter() - start)
        start = time.perf_counter()
        np.linalg.eigh(sym)
        eigh.append(time.perf_counter() - start)
    return {"gemm_gflops": 2.0 * n**3 / statistics.median(gemm) / 1e9,
            "eigh_s": statistics.median(eigh)}

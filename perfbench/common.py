"""Process environment shared by the benchmark's entry points.

Call cap_threads() before numpy is imported: the caps only take effect if
they are in the environment when OpenBLAS loads.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Limit BLAS/OpenMP pools to the CPUs this process may run on."""
    limit = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= limit):
            os.environ[var] = str(limit)


def use_source_tree() -> None:
    """Import doesim from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "doesim" / "__init__.py").is_file():
        raise SystemExit(f"error: no doesim sources under {src}")
    sys.path.insert(0, str(src))


class Yardstick:
    """A fixed mix of interpreter and numpy work, timed around every study call.

    The host's speed drifts by tens of percent over a minute; dividing a
    study's wall time by this kernel's, measured just before and after it,
    cancels most of that drift.  The kernel imitates the study's mix: hull-like
    sorting and cross products, repr formatting, and the screening load
    flow's complex (B, 3N) x (3N, 3N) product.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.v = rng.standard_normal((500, 105)) + 1j * rng.standard_normal((500, 105))
        self.y = rng.standard_normal((105, 105)) + 1j * rng.standard_normal((105, 105))
        self.points = [(float(p), float(q)) for p, q in rng.standard_normal((3000, 2))]
        self.last = self.measure()

    def measure(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        for _ in range(10):
            ranked = sorted(set(self.points))
            area = 0.0
            for (p0, q0), (p1, q1) in zip(ranked, ranked[1:]):
                area += p0 * q1 - p1 * q0
            "".join(f"{p!r} {q!r};" for p, q in ranked)
            current = self.v @ self.y.T
            np.abs(self.v * np.conj(current)).max(axis=1)
        return time.perf_counter() - t0

    def around(self) -> float:
        """Mean of the kernel's time before (the previous call) and after now."""
        before, self.last = self.last, self.measure()
        return (before + self.last) / 2.0

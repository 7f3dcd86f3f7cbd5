"""Process set-up shared by the benchmark's entry points.

`pin_blas` must run before anything imports numpy: BLAS reads its thread
count once, when the library loads.  `import_package` puts the checkout's
own `src/` first on the path, so the benchmark always measures the
package of the tree it sits in and never an installed copy.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingPackage(RuntimeError):
    """The checkout holds no `src/coulombmpc` to benchmark."""


def pin_blas() -> None:
    if "numpy" in sys.modules:
        if all(os.environ.get(var) == "1" for var in BLAS_THREAD_VARS):
            return  # pinned already, before numpy loaded
        raise RuntimeError("pin_blas() must run before numpy is imported")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Import `coulombmpc` from this checkout's `src/`, or raise MissingPackage."""
    if not (SRC / "coulombmpc" / "__init__.py").is_file():
        raise MissingPackage(f"no package source at {SRC / 'coulombmpc'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import coulombmpc

    origin = Path(coulombmpc.__file__).resolve()
    if SRC not in origin.parents:
        raise MissingPackage(f"coulombmpc was imported from {origin}, not {SRC}")
    return coulombmpc


def _probe() -> float:
    t0 = perf_counter()
    sum(i * i for i in range(20_000))
    return perf_counter() - t0


def pin_to_fastest_cpu(cpus: set[int]) -> int:
    """Move this process to whichever of `cpus` runs a short probe fastest.

    On a shared host a CPU runs at full speed or, while a neighbour loads
    its core, markedly slower, and CPUs switch between the two
    independently every few seconds.  Choosing the fast one before each
    episode keeps contention out of the measurement, and the reference
    kernel (reference.py) then runs on the same CPU as the steps it
    scales.  Only this process's own affinity changes.
    """
    timings = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = min(_probe(), _probe())
    best = min(timings, key=timings.get)
    os.sched_setaffinity(0, {best})
    return best


def environment() -> dict:
    """Versions and thread settings that a result depends on."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }

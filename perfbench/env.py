"""Process environment for the benchmark: BLAS thread pinning, the path to
the package sources, and the environment record printed with every result.

This module imports nothing heavy, so ``pin_blas_threads`` can run before
numpy is first imported.
"""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

# numpy here links scipy-openblas, and einsum contractions may call BLAS:
# without a pin, two block workers could each start a full BLAS pool.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Pin the BLAS/OpenMP pools of this process (and its children) to one
    thread.  Has an effect only before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def use_package_sources() -> None:
    """Import ``scma`` from the checkout's ``src`` tree."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def environment_record(worker_threads: int) -> dict:
    """Versions, core count and thread settings a result depends on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc(),
        "worker_threads": worker_threads,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }

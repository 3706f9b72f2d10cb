"""Noise controls, applied before numpy loads, and the record of them."""

from __future__ import annotations

import os
import platform
import sys

#: Set before numpy loads.  BLAS/OpenMP pools spin idle threads that
#: double CPU per query with a single Python thread doing the work; one
#: thread each removes that.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Engine switches that would silently change what is measured.
FORBIDDEN_ENV = ("REPRO_WORKERS", "REPRO_SCHEDULER", "REPRO_JIT", "REPRO_TRACE")


def pin_environment() -> None:
    """Must run before the first ``import numpy``."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_environment() must run before numpy is imported")
    os.environ.update(PINNED_ENV)


def check_environment() -> None:
    present = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if present:
        raise SystemExit(
            "refusing to measure with " + ", ".join(present) + " set: these "
            "switch engines, schedulers or tracing under the benchmark; unset them"
        )


def describe() -> dict:
    """What every output records about where it was measured."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "pinned_env": {name: os.environ.get(name) for name in PINNED_ENV},
    }

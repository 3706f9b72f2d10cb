"""repro — A Sampling Algebra for Aggregate Estimation (VLDB 2013).

A full reproduction of Nirkhiwale, Dobra and Jermaine's GUS sampling
algebra: a relational engine with lineage, TABLESAMPLE operators, the
GUS quasi-operator algebra with SOA-equivalent plan rewriting, the SBox
estimator with normal/Chebyshev confidence intervals, the Section 7
sub-sampled variance estimator, and the Section 8 applications.

Quickstart::

    from repro import Database
    from repro.data import generate_tpch

    db = Database.from_tables(generate_tpch(scale=0.01, seed=7))
    result = db.sql(
        "SELECT SUM(l_discount * (1.0 - l_tax)) AS revenue "
        "FROM lineitem TABLESAMPLE (10 PERCENT), "
        "     orders TABLESAMPLE (1000 ROWS) "
        "WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0"
    )
    est = result.estimates["revenue"]
    print(est.value, est.ci(0.95))
"""

import ctypes
import os

from repro.core import (
    ConfidenceInterval,
    Estimate,
    GUSParams,
    bernoulli_gus,
    compact_gus,
    compose_gus,
    estimate_sum,
    identity_gus,
    join_gus,
    lift_gus,
    null_gus,
    union_gus,
    without_replacement_gus,
)
from repro.errors import (
    EstimationError,
    NotGUSError,
    PlanError,
    ReproError,
    SchemaError,
    SelfJoinError,
    SQLError,
)


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds for the whole process.

    glibc starts by serving blocks of 128 KiB and more with fresh
    ``mmap`` calls, raises that threshold to the largest mmapped block
    the process has freed, and returns free heap above twice the
    threshold to the system.  A query's temporaries then cost page
    faults or not depending on what the process happened to free
    before it: a process that only attached persisted tables paid
    hundreds of faults per join that one which had generated them
    first did not.  Pinned at 8 MiB — one ``CHUNK_ROWS``
    (2^20-row) column of 8-byte values, the largest temporary a chunk
    makes — with trimming at glibc's own 2× that, the heap keeps those
    pages across queries.  Nothing happens off glibc, or when the user
    chose a threshold through ``MALLOC_MMAP_THRESHOLD_``,
    ``MALLOC_TRIM_THRESHOLD_`` or a ``glibc.malloc`` tunable.
    """
    if (
        "MALLOC_MMAP_THRESHOLD_" in os.environ
        or "MALLOC_TRIM_THRESHOLD_" in os.environ
        or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")
    ):
        return
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 8 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD


_pin_malloc_thresholds()

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "GUSParams",
    "Estimate",
    "ConfidenceInterval",
    "bernoulli_gus",
    "without_replacement_gus",
    "identity_gus",
    "null_gus",
    "join_gus",
    "compose_gus",
    "union_gus",
    "compact_gus",
    "lift_gus",
    "estimate_sum",
    "ReproError",
    "SchemaError",
    "PlanError",
    "SelfJoinError",
    "NotGUSError",
    "EstimationError",
    "SQLError",
    "Database",
    "Table",
]


def __getattr__(name: str):
    # Deferred imports keep `import repro` light and avoid import cycles
    # while the heavier relational/SQL layers load on first use.
    if name == "Database":
        from repro.relational.database import Database

        return Database
    if name == "Table":
        from repro.relational.table import Table

        return Table
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

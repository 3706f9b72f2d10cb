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

"""A fixed statement mix through the service reuses in every mode.

Served one at a time, which synopsis answers which statement is a
function of the statements and their seeds alone, so the counts are
pinned exactly: a matcher that stops finding a reuse mode, or starts
finding one it should not, moves them.
"""

from __future__ import annotations

from repro.data.tpch import tpch_database
from repro.service import QueryService

_BASE = "FROM lineitem TABLESAMPLE (20 PERCENT) REPEATABLE (11)"
_JOIN = (
    "SELECT SUM(l_extendedprice) AS v "
    "FROM lineitem TABLESAMPLE (20 PERCENT) REPEATABLE (7), orders "
    "WHERE l_orderkey = o_orderkey"
)

#: (statement, the reuse the catalog serves it with on first sight).
MIX = (
    # The base synopsis, then the other aggregates of its child.
    (f"SELECT SUM(l_extendedprice) AS v, COUNT(*) AS n {_BASE}", None),
    (f"SELECT AVG(l_quantity) AS v {_BASE}", "exact"),
    (f"SELECT SUM(l_tax) AS v {_BASE}", "exact"),
    # Lower rates: residual Bernoulli thinning of the stored sample.
    (
        "SELECT SUM(l_extendedprice) AS v "
        "FROM lineitem TABLESAMPLE (10 PERCENT) REPEATABLE (11)",
        "thin",
    ),
    (
        "SELECT SUM(l_extendedprice) AS v "
        "FROM lineitem TABLESAMPLE (5 PERCENT) REPEATABLE (11)",
        "thin",
    ),
    # Extra predicates: pushed down onto the stored sample.
    (f"SELECT SUM(l_extendedprice) AS v {_BASE} WHERE l_quantity > 25", "pushdown"),
    (f"SELECT COUNT(*) AS v {_BASE} WHERE l_discount < 0.05", "pushdown"),
    (f"SELECT l_returnflag, SUM(l_quantity) AS q {_BASE} GROUP BY l_returnflag", "exact"),
    # A second relation, a sampled join, and the join's pushdown.
    (
        "SELECT SUM(o_totalprice) AS v "
        "FROM orders TABLESAMPLE (25 PERCENT) REPEATABLE (3)",
        None,
    ),
    (_JOIN, None),
    (_JOIN + " AND o_totalprice > 1000", "pushdown"),
)


def test_fixed_mix_pins_every_reuse_count():
    db = tpch_database(scale=0.05, seed=42)
    db.attach_catalog()
    service = QueryService(db)
    statements = [statement for statement, _ in MIX]
    first = [service.query(statement) for statement in statements]
    again = [service.query(statement) for statement in statements]

    assert [r.reuse.kind if r.reuse else None for r in first] == [
        kind for _, kind in MIX
    ]
    assert not any(r.cached for r in first)
    assert all(r.cached for r in again)
    stats, store = service.snapshot_stats()
    assert (stats.queries, stats.result_cache_hits) == (22, 11)
    assert (
        store.lookups,
        store.misses,
        store.exact_hits,
        store.pushdown_hits,
        store.thin_hits,
        store.puts,
    ) == (11, 3, 3, 3, 2, 3)

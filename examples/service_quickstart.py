"""Five-minute tour of the sample-synopsis catalog + query service.

Run with::

    PYTHONPATH=src python examples/service_quickstart.py

Shows the three reuse modes the sampling algebra decides (exact,
predicate pushdown, residual thinning), catalog invalidation on table
mutation, and the serving front-end with its throughput win over
fresh-sampling every query.
"""

from __future__ import annotations

import time

from repro.data.tpch import tpch_database
from repro.service import QueryService, default_seed, render_result

BASE = (
    "SELECT SUM(l_extendedprice) AS rev, COUNT(*) AS n "
    "FROM lineitem TABLESAMPLE (20 PERCENT) REPEATABLE (11)"
)
THINNED = (
    "SELECT SUM(l_extendedprice) AS rev "
    "FROM lineitem TABLESAMPLE (10 PERCENT) REPEATABLE (11)"
)
FILTERED = BASE + " WHERE l_quantity > 25"


def show(tag: str, result) -> None:
    reuse = result.reuse
    how = "fresh sample" if reuse is None else (
        f"{reuse.kind} reuse of entry {reuse.entry_id} "
        f"({reuse.stored_rows} stored -> {reuse.served_rows} served rows)"
    )
    print(f"[{tag}] {how}")
    print("   " + render_result(result, 0.95).replace("\n", "\n   "))


def main() -> None:
    db = tpch_database(scale=0.2, seed=42)
    db.attach_catalog()

    print("== algebra-driven reuse ==")
    show("miss ", db.sql(BASE, seed=1))
    show("exact", db.sql(BASE, seed=1))
    show("thin ", db.sql(THINNED, seed=2))
    show("push ", db.sql(FILTERED, seed=3))

    print("\n== invalidation on mutation ==")
    db.update_table("lineitem", db.table("lineitem"))
    show("after update_table", db.sql(BASE, seed=1))

    print("\n== serving ==")
    service = QueryService(db)
    workload = [BASE, THINNED, FILTERED] * 20
    service.query(BASE)  # warm the base synopsis
    start = time.perf_counter()
    for statement in workload:
        service.query(statement)
    with_catalog = time.perf_counter() - start

    fresh_db = tpch_database(scale=0.2, seed=42)
    start = time.perf_counter()
    for statement in workload:
        fresh_db.sql(statement, seed=default_seed(statement))
    without_catalog = time.perf_counter() - start

    print(service.stats_line())
    print(
        f"{len(workload)} statements: {with_catalog * 1e3:.0f} ms with the "
        f"catalog vs {without_catalog * 1e3:.0f} ms fresh "
        f"({without_catalog / with_catalog:.1f}x)"
    )


if __name__ == "__main__":
    main()

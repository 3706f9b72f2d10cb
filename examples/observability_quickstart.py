"""Five-minute tour of the observability surface.

Run with::

    PYTHONPATH=src python examples/observability_quickstart.py

Shows EXPLAIN ANALYZE (the answer plus its span tree, including the
catalog reuse mode on a hit), the hot-path profile table that names
the engine's kernels, the bit-identity contract (tracing never changes
an answer), and the served metrics: a consistent stats snapshot, the
one-line summary with latency quantiles, and the Prometheus text
exposition.
"""

from __future__ import annotations

from repro.data.tpch import tpch_database
from repro.obs.report import profile_table
from repro.obs.trace import start_trace
from repro.service import QueryService

QUERY = (
    "SELECT SUM(l_extendedprice) AS rev, COUNT(*) AS n "
    "FROM lineitem TABLESAMPLE (20 PERCENT) REPEATABLE (11), orders "
    "WHERE l_orderkey = o_orderkey"
)


def main() -> None:
    db = tpch_database(scale=0.1, seed=42)
    db.attach_catalog()

    print("== EXPLAIN ANALYZE: answer + span tree ==")
    report = db.sql("EXPLAIN ANALYZE " + QUERY, seed=7)
    for alias, value in report.result.values.items():
        print(f"{alias} = {value:.6g}")
    print(report.render_trace())

    print("\n== the same query again: served from the catalog ==")
    report = db.sql("EXPLAIN ANALYZE " + QUERY, seed=7)
    print(report.render_trace().splitlines()[0])

    print("\n== hot-path profile: self-time by kernel ==")
    with start_trace("profile") as tracer:
        db.sql(QUERY, seed=8, chunk_size=65_536)
    print(profile_table(tracer.finish_trace()))

    print("\n== tracing never changes an answer ==")
    plain = db.sql(QUERY, seed=9)
    with start_trace("check") as tracer:
        traced = db.sql(QUERY, seed=9)
    tracer.finish_trace()
    identical = plain.values == traced.values and all(
        plain.estimates[a].variance_raw == traced.estimates[a].variance_raw
        for a in plain.values
    )
    print(f"traced == untraced, bit for bit: {identical}")

    print("\n== served metrics ==")
    # A fresh catalog, so the service's counters start from zero and
    # the cross-counter invariant below is visible in the numbers.
    db.attach_catalog(None)
    service = QueryService(db)
    for seed in (1, 1, 2, 3):  # one repeat -> result-cache hit
        service.query(QUERY, seed=seed)
    print(service.stats_line())
    stats, store = service.snapshot_stats()
    print(
        f"consistent snapshot: {store.lookups} store lookups across "
        f"{stats.queries} queries (invariant lookups <= queries holds "
        "in every snapshot, even mid-storm)"
    )
    print("\n-- Prometheus exposition (first lines) --")
    print("\n".join(service.metrics_text().splitlines()[:12]))


if __name__ == "__main__":
    main()

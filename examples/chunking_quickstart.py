"""Five-minute tour of the chunked execution core.

Every query runs on the chunked pipeline: it streams scan → sample →
filter → project → join probe per chunk and folds each chunk's rows
straight into mergeable moment sketches, so an aggregate estimate never
materializes the full joined sample.  A table of up to 2^20 rows is one
chunk; a larger one, or any table given a ``chunk_size``, is cut into
chunks folded in order on the calling thread.  Because the moment state
is a commutative monoid (the paper's Theorem 1 moments), the answers
are *bit-for-bit identical* either way — chunking changes wall-clock
and peak memory, never results.

Run:  python examples/chunking_quickstart.py
"""

from __future__ import annotations

import time

from repro.data.tpch import tpch_database
from repro.service import render_result

QUERY = """
SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue,
       COUNT(*) AS n_items,
       AVG(l_quantity) AS avg_qty
FROM lineitem TABLESAMPLE (10 PERCENT), orders
WHERE l_orderkey = o_orderkey
"""

Q1 = """
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       COUNT(*) AS count_order
FROM lineitem TABLESAMPLE (10 PERCENT)
GROUP BY l_returnflag, l_linestatus
"""


def main() -> None:
    db = tpch_database(scale=2.0, seed=7)
    print(f"{db!r}\n")

    # 1. Same query, one engine, two partitionings: one chunk per table
    #    (the default at this size) and 16 384-row chunks.  One untimed
    #    run first, so neither timing pays the first query's imports and
    #    caches.
    db.sql(QUERY, seed=42)
    runs = {}
    for label, chunk_size in [("one chunk", None), ("chunked", 16_384)]:
        start = time.perf_counter()
        result = db.sql(QUERY, seed=42, chunk_size=chunk_size)
        runs[label] = result
        print(
            f"{label:>10}: revenue = {result['revenue']:,.0f}  "
            f"(n_sample={result.estimates['revenue'].n_sample}, "
            f"{time.perf_counter() - start:.3f}s)"
        )
    assert runs["one chunk"].values == runs["chunked"].values
    print("→ identical answers from both partitionings, bit for bit\n")

    # 2. GROUP BY rides the same machinery: every chunk folds into one
    #    mergeable grouped sketch, per-group CIs come out exact.
    grouped = db.sql(Q1, seed=42, chunk_size=16_384)
    print(render_result(grouped, 0.95) + "\n")

    # 3. The SBox never needs the sample materialized: with
    #    keep_sample=False the estimate is produced purely from merged
    #    moment state (result.sample is None).
    lean = db.estimate(
        db.plan_sql(QUERY), seed=42, chunk_size=16_384, keep_sample=False
    )
    print(
        f"keep_sample=False: revenue = {lean['revenue']:,.0f}, "
        f"sample materialized: {lean.sample is not None}"
    )


if __name__ == "__main__":
    main()

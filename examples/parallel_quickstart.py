"""Five-minute tour of the chunked execution core.

Every query runs on the chunked pipeline: it streams scan → sample →
filter → project → join probe per chunk and folds each chunk's rows
straight into mergeable moment sketches, so an aggregate estimate never
materializes the full joined sample.  With no workers the pipeline runs
over one chunk per table; with ``workers >= 1`` it cuts default-size
chunks and folds them in order on the calling thread.  Because the
moment state is a commutative monoid (the paper's Theorem 1 moments),
the answers are *bit-for-bit identical* either way — chunking changes
wall-clock and peak memory, never results.

Run:  python examples/parallel_quickstart.py
"""

from __future__ import annotations

import time

from repro.data.tpch import tpch_database

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
    #    (workers=0 pins it even under REPRO_WORKERS) and default-size
    #    chunks (workers=1).
    runs = {}
    for label, workers in [("one chunk", 0), ("chunked", 1)]:
        start = time.perf_counter()
        result = db.sql(QUERY, seed=42, workers=workers)
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
    grouped = db.sql(Q1, seed=42, workers=1)
    print(grouped.summary(0.95), "\n")

    # 3. The SBox never needs the sample materialized: with
    #    keep_sample=False the estimate is produced purely from merged
    #    moment state (result.sample is None).
    lean = db.estimate(
        db.plan_sql(QUERY), seed=42, workers=1, keep_sample=False
    )
    print(
        f"keep_sample=False: revenue = {lean['revenue']:,.0f}, "
        f"sample materialized: {lean.sample is not None}"
    )


if __name__ == "__main__":
    main()

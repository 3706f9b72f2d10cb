"""A chunked join-sample aggregate never holds its join output.

The lineage filter of a ``LineageSample`` over an FK join runs on the
probe's index pairs, a chunk gathers only the columns the aggregates
read, and each chunk folds into moment state before the next is
probed.  So the query's peak allocation is the build side, one chunk
and the moment state — not the joined relation, which a
materialize-everything route would hold at full width.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.data.tpch import tpch_database
from repro.relational.expressions import col, lit
from repro.relational.plan import Aggregate, AggSpec, Join, LineageSample, Scan
from repro.sampling.composed import BiDimensionalBernoulli

#: The full-width join output is at least this many times the peak.
MIN_MEMORY_RATIO = 3.0


def _join_sample_plan() -> Aggregate:
    """Every ``lineitem`` row joins its order; 5 % of orders are kept."""
    return Aggregate(
        LineageSample(
            Join(Scan("orders"), Scan("lineitem"), ["o_orderkey"], ["l_orderkey"]),
            BiDimensionalBernoulli({"orders": 0.05}, seed=77),
        ),
        [
            AggSpec(
                "sum",
                col("l_extendedprice") * (lit(1.0) - col("l_discount")),
                "revenue",
            ),
            AggSpec("count", None, "n"),
            AggSpec("avg", col("l_quantity"), "avg_qty"),
        ],
    )


def _row_bytes(table) -> int:
    return sum(np.asarray(table.column(name)).itemsize for name in table.columns)


def test_chunked_join_sample_peak_stays_below_the_join_output():
    db = tpch_database(scale=2.0, seed=1)
    lineitem, orders = db.table("lineitem"), db.table("orders")
    # An FK join: one output row per lineitem row, every column of both.
    full_width = lineitem.n_rows * (_row_bytes(lineitem) + _row_bytes(orders))
    plan = _join_sample_plan()

    def run():
        return db.estimate(plan, seed=0, chunk_size=16_384, keep_sample=False)

    result = run()  # first-use caches (statistics, encodings) are not per query
    assert result.estimates["n"].n_sample > 0
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak * MIN_MEMORY_RATIO <= full_width, (peak, full_width)

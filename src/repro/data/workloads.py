"""The paper's workload queries as SQL text and plan builders.

* **Query 1** (Section 1 / Example 1): the running example — Bernoulli
  lineitem sample joined with a WOR orders sample under a price filter.
* **Figure 4 query**: the four-relation plan
  ``((lineitem ⋈ orders) ⋈ customer) ⋈ part`` with three sampled inputs
  and one unsampled (customer) input.
* **Figure 5 query**: Query 1 with a bi-dimensional Bernoulli
  sub-sampler stacked on the join output (Section 7).
"""

from __future__ import annotations

from repro.relational.expressions import col, lit
from repro.relational.plan import (
    Aggregate,
    AggSpec,
    Join,
    LineageSample,
    Scan,
    Select,
    TableSample,
)
from repro.sampling import Bernoulli, BiDimensionalBernoulli, WithoutReplacement

#: Query 1 as an error-budget query: the optimizer picks the rates.
QUERY1_BUDGET_SQL = """
SELECT SUM(l_discount * (1.0 - l_tax)) AS revenue
FROM lineitem TABLESAMPLE (10 PERCENT),
     orders TABLESAMPLE (1000 ROWS)
WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0
WITHIN 10 % CONFIDENCE 0.95
"""

#: The same, asking for the ranked candidate table instead of execution.
QUERY1_EXPLAIN_SAMPLING_SQL = "EXPLAIN SAMPLING " + QUERY1_BUDGET_SQL.strip()

#: The revenue expression used throughout the paper.
REVENUE_EXPR = col("l_discount") * (lit(1.0) - col("l_tax"))


def query1_plan(
    lineitem_rate: float = 0.1,
    orders_rows: int = 1000,
    price_floor: float = 100.0,
) -> Aggregate:
    """Query 1 as a logical plan (Figure 2(a))."""
    join = Join(
        TableSample(Scan("lineitem"), Bernoulli(lineitem_rate)),
        TableSample(Scan("orders"), WithoutReplacement(orders_rows)),
        ["l_orderkey"],
        ["o_orderkey"],
    )
    filtered = Select(join, col("l_extendedprice") > price_floor)
    return Aggregate(filtered, [AggSpec("sum", REVENUE_EXPR, "revenue")])


def figure4_plan(
    lineitem_rate: float = 0.1,
    orders_rows: int = 1000,
    part_rate: float = 0.5,
) -> Aggregate:
    """The Figure 4(a) plan: ((l ⋈ o) ⋈ c) ⋈ p, three samplers."""
    lo = Join(
        TableSample(Scan("lineitem"), Bernoulli(lineitem_rate)),
        TableSample(Scan("orders"), WithoutReplacement(orders_rows)),
        ["l_orderkey"],
        ["o_orderkey"],
    )
    loc = Join(lo, Scan("customer"), ["o_custkey"], ["c_custkey"])
    locp = Join(
        loc,
        TableSample(Scan("part"), Bernoulli(part_rate)),
        ["l_partkey"],
        ["p_partkey"],
    )
    amount = col("l_extendedprice") * (lit(1.0) - col("l_discount"))
    return Aggregate(locp, [AggSpec("sum", amount, "revenue")])


def figure5_plan(
    lineitem_rate: float = 0.1,
    orders_rows: int = 1000,
    sub_l: float = 0.2,
    sub_o: float = 0.3,
    seed: int = 0,
    price_floor: float = 100.0,
) -> Aggregate:
    """Figure 5(c): Query 1 with a bi-dimensional Bernoulli on top."""
    join = Join(
        TableSample(Scan("lineitem"), Bernoulli(lineitem_rate)),
        TableSample(Scan("orders"), WithoutReplacement(orders_rows)),
        ["l_orderkey"],
        ["o_orderkey"],
    )
    filtered = Select(join, col("l_extendedprice") > price_floor)
    sub = LineageSample(
        filtered,
        BiDimensionalBernoulli(
            {"lineitem": sub_l, "orders": sub_o}, seed=seed
        ),
    )
    return Aggregate(sub, [AggSpec("sum", REVENUE_EXPR, "revenue")])

"""Error-budget queries: accuracy in, cheapest sampling plan out.

Instead of hand-picking TABLESAMPLE rates, append
``WITHIN <pct> % CONFIDENCE <level>`` to an aggregate query and let the
cost-based optimizer close the loop:

1. one cheap pilot execution prices *every* candidate sampling design
   (Theorem 1 separates data moments from sampling coefficients);
2. a cost model prices each candidate's work: estimated row counts at
   fixed per-row constants, so the plan chosen is the same on any
   machine;
3. the cheapest candidate predicted to meet the budget runs; if the
   realized interval misses, rates escalate geometrically — hash-keyed
   filters keep every already-drawn tuple across attempts.

Run:  python examples/error_budget_quickstart.py
"""

from __future__ import annotations

from repro.data import tpch_database
from repro.data.workloads import (
    QUERY1_BUDGET_SQL,
    QUERY1_EXPLAIN_SAMPLING_SQL,
)
from repro.service import render_result


def main() -> None:
    print("Generating TPC-H data (scale 0.5 ≈ 30k lineitem rows)...")
    db = tpch_database(scale=0.5, seed=42)

    print("\n== EXPLAIN SAMPLING: the ranked candidate table ==\n")
    report = db.sql(QUERY1_EXPLAIN_SAMPLING_SQL, seed=1)
    print(report.table())

    print("\n== Running the error-budget query ==\n")
    print(QUERY1_BUDGET_SQL.strip())
    result = db.sql(QUERY1_BUDGET_SQL, seed=1)
    print()
    print(render_result(result, 0.95))

    truth = db.sql_exact(QUERY1_BUDGET_SQL).to_rows()[0][0]
    estimate = result.result.estimates["revenue"]
    ci = estimate.ci(result.report.budget.level)
    print(f"\n  exact revenue : {truth:,.2f}")
    print(f"  interval hit  : {ci.contains(truth)}")
    for attempt in result.attempts:
        print(
            f"  attempt {attempt.attempt}: {attempt.methods_label} — "
            f"{attempt.n_sample} rows, realized "
            f"±{attempt.realized_relative_half_width:.2%} "
            f"({'met' if attempt.met else 'missed'})"
        )

    print("\nThe same loop from the library API:")
    print("  from repro.optimizer import ErrorBudget")
    print("  db.optimize(plan, ErrorBudget.from_percent(10.0))")


if __name__ == "__main__":
    main()

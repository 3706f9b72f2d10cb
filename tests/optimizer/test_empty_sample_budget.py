"""A sample with no contributing row never meets a ``WITHIN`` budget.

The statement joins two 1 % samples under a filter that keeps the 20
largest of 150 orders, so a few seeds draw no matching row at all: the
estimate is ``0 ± 0``, a zero-width interval that excludes the true
total.  Such an answer carries no information, so the escalation loop
must not report the budget as met.
"""

from __future__ import annotations

import pytest

from repro.core.estimator import Estimate
from repro.data.tpch import tpch_database
from repro.optimizer import ErrorBudget
from repro.serve.progressive import run_progressive

STATEMENT = """
SELECT SUM(l_extendedprice) AS rev
FROM lineitem TABLESAMPLE (1 PERCENT), orders TABLESAMPLE (1 PERCENT)
WHERE l_orderkey = o_orderkey AND o_totalprice >= 14392.05
WITHIN 20 % CONFIDENCE 0.95
"""

#: Seeds whose first draw has no contributing row at this scale.
EMPTY_SEEDS = (42, 145, 281)


@pytest.fixture(scope="module")
def db():
    return tpch_database(scale=0.01, seed=0)


@pytest.fixture(scope="module")
def truth(db):
    return db.sql_exact(STATEMENT).to_rows()[0][0]


def test_zero_estimate_under_sampling_is_not_met():
    budget = ErrorBudget(0.2, 0.95)
    empty = Estimate(0.0, 0.0, 0, extras={"a": 0.01})
    assert not budget.met_by(empty)
    # Without sampling a zero total is exact, and so is met.
    assert budget.met_by(Estimate(0.0, 0.0, 0, extras={"a": 1.0}))


def test_no_seed_meets_the_budget_with_an_interval_missing_the_truth(
    db, truth
):
    wrong = []
    for seed in range(300):
        answer = db.sql(STATEMENT, seed=seed)
        ci = answer.result.estimates["rev"].ci(0.95)
        if answer.met and not ci.lo <= truth <= ci.hi:
            wrong.append(seed)
    assert wrong == []


@pytest.mark.parametrize("seed", EMPTY_SEEDS)
def test_empty_first_draw_escalates(db, seed):
    answer = db.sql(STATEMENT, seed=seed)
    assert answer.attempts[0].n_sample == 0
    assert not answer.attempts[0].met
    assert len(answer.attempts) > 1


@pytest.mark.parametrize("seed", EMPTY_SEEDS)
def test_progressive_run_does_not_report_met(db, truth, seed):
    outcome = run_progressive(db, STATEMENT, seed=seed)
    assert outcome.status == "ok"
    last = outcome.frames[-1]
    assert outcome.met is False or last.ci_lo <= truth <= last.ci_hi
    assert outcome.optimized.attempts[0].met is False

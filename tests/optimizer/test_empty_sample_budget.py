"""A sample with no contributing row never meets a ``WITHIN`` budget.

The statement joins two 1 % samples under a filter that keeps the 20
largest of 150 orders, so a few seeds draw no matching row at all: the
estimate is ``0 ± 0``, a zero-width interval that excludes the true
total.  Such an answer carries no information, so the escalation loop
must not report the budget as met, and a pilot drawn that empty is
drawn again at a higher rate before it ranks any candidate.
"""

from __future__ import annotations

import pytest

from repro.core.estimator import Estimate
from repro.data.tpch import tpch_database
from repro.optimizer import ErrorBudget
from repro.optimizer.chooser import PILOT_RATE
from repro.serve.progressive import run_progressive

STATEMENT = """
SELECT SUM(l_extendedprice) AS rev
FROM lineitem TABLESAMPLE (1 PERCENT), orders TABLESAMPLE (1 PERCENT)
WHERE l_orderkey = o_orderkey AND o_totalprice >= 14392.05
WITHIN 20 % CONFIDENCE 0.95
"""

#: Seeds whose first pilot draw has no contributing row at this scale.
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
def test_empty_first_draw_escalates(db, truth, seed):
    pilots = []
    answer = db.optimizer().optimize(
        db.plan_sql(STATEMENT),
        ErrorBudget(0.2, 0.95),
        seed=seed,
        on_pilot=lambda result, rate: pilots.append((result, rate)),
    )
    ((pilot, rate),) = pilots
    # The first pilot (at the square root of PILOT_RATE per relation)
    # had no contributing row; the one that ranked the candidates did.
    assert rate > PILOT_RATE**0.5
    assert pilot.sample.n_rows == answer.report.pilot_rows > 0
    assert pilot.estimates["rev"].value > 0.0
    assert not answer.attempts[0].met
    assert len(answer.attempts) > 1
    ci = answer.result.estimates["rev"].ci(0.95)
    assert answer.met and ci.lo <= truth <= ci.hi


@pytest.mark.parametrize("seed", EMPTY_SEEDS)
def test_progressive_run_does_not_report_met(db, truth, seed):
    outcome = run_progressive(db, STATEMENT, seed=seed)
    assert outcome.status == "ok"
    last = outcome.frames[-1]
    assert outcome.met is False or last.ci_lo <= truth <= last.ci_hi
    assert outcome.optimized.attempts[0].met is False

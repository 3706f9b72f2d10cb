"""Admission control: admit below capacity, degrade over it, reject
only when the queue is full — and the degrade rewrite is a real,
re-parsable statement with scaled rates and a widened budget."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.serve import admission
from repro.serve.admission import (
    MAX_BUDGET_PERCENT,
    AdmissionController,
    degrade_statement,
)
from repro.sql.parser import parse

STMT = (
    "SELECT SUM(l_extendedprice) AS rev FROM lineitem "
    "TABLESAMPLE (20 PERCENT) REPEATABLE (7) "
    "WITHIN 5 % CONFIDENCE 0.95"
)


class TestDegradeStatement:
    def test_scales_percent_and_widens_budget(self):
        rewritten = degrade_statement(STMT, 0.5)
        assert rewritten is not None
        query = parse(rewritten)
        assert query.tables[0].sample.amount == 10.0
        assert query.tables[0].sample.repeatable_seed == 7
        assert query.budget.percent == 10.0
        assert query.budget.level == 0.95

    def test_rows_clause_scaled_with_floor(self):
        rewritten = degrade_statement(
            "SELECT COUNT(*) AS n FROM t TABLESAMPLE (3 ROWS)", 0.25
        )
        assert rewritten is not None
        assert parse(rewritten).tables[0].sample.amount == 1.0

    def test_nothing_to_degrade_returns_none(self):
        assert degrade_statement("SELECT COUNT(*) AS n FROM t", 0.5) is None

    def test_unparsable_returns_none(self):
        assert degrade_statement("SELECT FROM WHERE", 0.5) is None

    def test_rewrite_reparses(self):
        rewritten = degrade_statement(STMT, 0.3)
        # parse ∘ print idempotence: a degraded statement is first-class.
        assert parse(rewritten) == parse(
            degrade_statement(STMT, 0.3)
        )

    def test_budget_widening_clamped_to_valid_range(self):
        # Found by the fuzzer: rate 0.01 would widen WITHIN 5 % to
        # 500 %, which the grammar rejects on re-parse.
        rewritten = degrade_statement(STMT, 0.01)
        assert rewritten is not None
        query = parse(rewritten)
        assert query.budget.percent == MAX_BUDGET_PERCENT

    def test_budget_at_cap_never_narrowed_on_re_degrade(self):
        once = degrade_statement(STMT, 0.01)
        again = degrade_statement(once, 0.5)
        assert again is not None  # sampling still scales
        assert parse(again).budget.percent == MAX_BUDGET_PERCENT

    def test_budget_only_statement_at_cap_is_undegradable(self):
        at_cap = (
            "SELECT SUM(l_extendedprice) AS rev FROM lineitem "
            f"WITHIN {MAX_BUDGET_PERCENT} % CONFIDENCE 0.95"
        )
        # Nothing left to shed: no sampling clause, budget saturated.
        assert degrade_statement(at_cap, 0.5) is None

    @given(
        rate=st.floats(min_value=0.001, max_value=1.0),
        percent=st.floats(min_value=1.0, max_value=90.0),
        budget=st.floats(min_value=0.5, max_value=94.0),
    )
    def test_degrade_round_trip_property(self, rate, percent, budget):
        statement = (
            "SELECT SUM(x) AS s FROM t "
            f"TABLESAMPLE ({percent!r} PERCENT) "
            f"WITHIN {budget!r} % CONFIDENCE 0.9"
        )
        rewritten = degrade_statement(statement, rate)
        assert rewritten is not None
        query = parse(rewritten)  # always re-parses, whatever the rate
        assert query.tables[0].sample.amount <= percent
        assert budget <= query.budget.percent <= MAX_BUDGET_PERCENT


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestAdmissionController:
    def test_admits_below_capacity(self):
        ctl = AdmissionController(capacity=10, queue_limit=10)
        decision = ctl.decide(STMT)
        assert decision.action == "admit"
        assert decision.statement == STMT
        assert decision.rate == 1.0
        ctl.release()
        assert ctl.queued == 0

    def test_degrades_over_capacity(self):
        clock = FakeClock()
        ctl = AdmissionController(
            capacity=2, queue_limit=100, clock=clock
        )
        decisions = [ctl.decide(STMT) for _ in range(4)]
        assert [d.action for d in decisions[:2]] == ["admit", "admit"]
        assert decisions[2].action == "degrade"
        assert decisions[2].rate == 2 / 3
        assert decisions[3].rate == 0.5
        # The degraded statement really is degraded.
        assert parse(decisions[3].statement).tables[0].sample.amount == 10.0

    def test_min_rate_clamp(self, monkeypatch):
        monkeypatch.setattr(admission, "MIN_RATE", 0.5)
        clock = FakeClock()
        ctl = AdmissionController(capacity=1, queue_limit=1000, clock=clock)
        last = [ctl.decide(STMT) for _ in range(50)][-1]
        assert last.rate == 0.5

    def test_window_reset_restores_full_rate(self):
        clock = FakeClock()
        ctl = AdmissionController(capacity=1, queue_limit=100, clock=clock)
        ctl.decide(STMT)
        assert ctl.decide(STMT).action == "degrade"
        clock.now = 1.5
        assert ctl.decide(STMT).action == "admit"

    def test_rejects_when_queue_full(self):
        ctl = AdmissionController(capacity=100, queue_limit=2)
        assert ctl.decide(STMT).action == "admit"
        assert ctl.decide(STMT).action == "admit"
        rejected = ctl.decide(STMT)
        assert rejected.action == "reject"
        assert not rejected.admitted
        assert "queue full" in rejected.reason
        ctl.release()
        assert ctl.decide(STMT).admitted

    def test_undegradable_statement_admitted_under_overload(self):
        clock = FakeClock()
        ctl = AdmissionController(capacity=1, queue_limit=100, clock=clock)
        ctl.decide("SELECT COUNT(*) AS n FROM t")
        decision = ctl.decide("SELECT COUNT(*) AS n FROM t")
        assert decision.action == "admit"

    def test_degraded_statement_not_degraded_again(self):
        # A degraded statement that loops back through admission
        # (retry, progressive-refinement re-submission) must be
        # admitted unchanged, not compounded toward the rate floor.
        clock = FakeClock()
        ctl = AdmissionController(capacity=1, queue_limit=100, clock=clock)
        ctl.decide(STMT)
        degraded = ctl.decide(STMT)
        assert degraded.action == "degrade"
        resubmitted = ctl.decide(degraded.statement)
        assert resubmitted.action == "admit"
        assert resubmitted.statement == degraded.statement

    def test_shed_rate_counts_non_admits(self):
        ctl = AdmissionController(capacity=100, queue_limit=1)
        ctl.decide(STMT)
        ctl.decide(STMT)  # rejected (queue full)
        assert ctl.decisions["admit"] == 1
        assert ctl.decisions["reject"] == 1

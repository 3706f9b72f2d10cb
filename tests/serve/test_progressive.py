"""Progressive refinement: convergence, bit-identity, cancellation."""

from __future__ import annotations

import time

import pytest
from scipy.stats import binom

from serveutil import BUDGETED, fresh_service

from repro.data.tpch import tpch_database
from repro.errors import PlanError
from repro.serve.progressive import run_progressive


@pytest.fixture(scope="module")
def tpch_tenth():
    """TPC-H at scale 0.1 (5 935 ``lineitem`` rows), no catalog."""
    return tpch_database(scale=0.1, seed=0)


class TestConvergence:
    def test_frames_converge_and_meet_budget(self, shared_service):
        service = shared_service
        frames = []
        outcome = run_progressive(
            service.db, BUDGETED, seed=11, emit=frames.append
        )
        assert outcome.status == "ok"
        assert outcome.met
        assert len(frames) >= 2  # pilot plus at least one attempt
        assert [f.sequence for f in frames] == list(range(len(frames)))
        assert frames[0].stage == "pilot"
        # Every frame's interval contains its own estimate.
        for f in outcome.frames:
            assert f.ci_lo <= f.estimate <= f.ci_hi
        # The final frame realizes the budget: half-width within 10%.
        last = outcome.frames[-1]
        assert (last.ci_hi - last.ci_lo) / 2 <= 0.10 * abs(last.estimate)

    def test_rates_come_from_the_ladder(self, shared_service):
        outcome = run_progressive(shared_service.db, BUDGETED, seed=11)
        assert outcome.frames[0].rate == pytest.approx(0.1)
        attempt_rates = [f.rate for f in outcome.frames[1:]]
        assert all(r > 0 for r in attempt_rates)
        assert attempt_rates == sorted(attempt_rates)

    def test_bit_identical_to_non_progressive(self, shared_service):
        db = shared_service.db
        reference = db.sql(BUDGETED, seed=23)
        outcome = run_progressive(db, BUDGETED, seed=23)
        assert outcome.optimized is not None
        assert outcome.optimized.result.values == reference.result.values
        assert outcome.frames[-1].estimate == reference.result.values["rev"]
        # And the other direction: progressive first, plain second.
        outcome2 = run_progressive(db, BUDGETED, seed=24)
        reference2 = db.sql(BUDGETED, seed=24)
        assert (
            outcome2.optimized.result.values == reference2.result.values
        )

    def test_default_budget_without_within_clause(self, shared_service):
        statement = (
            "SELECT SUM(l_extendedprice) AS rev FROM lineitem "
            "TABLESAMPLE (5 PERCENT)"
        )
        outcome = run_progressive(
            shared_service.db,
            statement,
            seed=5,
            budget_percent=15.0,
            confidence=0.9,
        )
        assert outcome.status == "ok"
        last = outcome.frames[-1]
        assert (last.ci_hi - last.ci_lo) / 2 <= 0.15 * abs(last.estimate)


class TestFinalFrameIsTheAnswer:
    """The final frame carries the answer's own interval, not an envelope.

    At scale 0.1 a loose budget is answered from a rung *below* the
    pilot's rate (46 rows at 1 % after a 579-row pilot at 10 %, seed 3
    at ``WITHIN 50 %``).  Intersecting the two intervals reported the
    cheap estimate with the pilot's width, which covered the truth in
    490 of 1 000 seeds.
    """

    @staticmethod
    def statement(percent: int) -> str:
        return (
            "SELECT SUM(l_extendedprice) AS v FROM lineitem "
            f"TABLESAMPLE (1 PERCENT) WITHIN {percent} % CONFIDENCE 0.95"
        )

    @pytest.mark.parametrize("percent", [25, 50])
    def test_final_frame_equals_db_sql_bitwise(self, tpch_tenth, percent):
        statement = self.statement(percent)
        for seed in range(200):
            last = run_progressive(tpch_tenth, statement, seed=seed).frames[-1]
            est = tpch_tenth.sql(statement, seed=seed).result.estimates["v"]
            ci = est.ci(0.95)
            assert (last.estimate, last.ci_lo, last.ci_hi) == (
                est.value,
                ci.lo,
                ci.hi,
            ), seed

    def test_final_frame_covers_at_nominal_rate(self, tpch_tenth):
        # One-sided exact binomial test of H0: coverage >= 0.95, with
        # false-positive rate EPS: fail only when P(X <= hits) < EPS.
        # The envelope's 490 of 1 000 fails it; the own interval's 948
        # passes (it rejects 913 hits or fewer).
        EPS = 1e-6
        seeds = 1000
        statement = self.statement(50)
        truth = tpch_tenth.sql_exact(
            "SELECT SUM(l_extendedprice) AS v FROM lineitem"
        ).to_rows()[0][0]
        hits = 0
        for seed in range(seeds):
            last = run_progressive(tpch_tenth, statement, seed=seed).frames[-1]
            hits += last.ci_lo <= truth <= last.ci_hi
        assert binom.cdf(hits, seeds, 0.95) >= EPS, hits


class TestRejectsNonProgressiveShapes:
    def test_explain_rejected(self, shared_service):
        with pytest.raises(PlanError):
            run_progressive(
                shared_service.db, "EXPLAIN SAMPLING " + BUDGETED
            )

    def test_grouped_rejected(self, shared_service):
        with pytest.raises(PlanError):
            run_progressive(
                shared_service.db,
                "SELECT l_returnflag, SUM(l_quantity) AS q FROM lineitem "
                "TABLESAMPLE (10 PERCENT) GROUP BY l_returnflag",
            )

    def test_non_aggregate_rejected(self, shared_service):
        with pytest.raises(PlanError):
            run_progressive(
                shared_service.db,
                "SELECT l_quantity FROM lineitem TABLESAMPLE (10 PERCENT)",
            )


class TestCancellationAndDeadline:
    def test_cancel_after_first_frame(self):
        service = fresh_service()
        seen = []

        def cancelled() -> bool:
            return bool(seen)

        outcome = run_progressive(
            service.db,
            BUDGETED,
            seed=3,
            emit=seen.append,
            cancelled=cancelled,
            note_execution=service.note_execution,
        )
        assert outcome.status == "cancelled"
        assert outcome.optimized is None
        assert len(outcome.frames) >= 1  # the pilot frame survived
        # Counters stay consistent: every engine run was accounted
        # before it could touch the catalog.
        stats, store = service.snapshot_stats()
        assert store.lookups <= stats.queries

    def test_expired_deadline_stops_before_any_execution(self):
        service = fresh_service()
        outcome = run_progressive(
            service.db,
            BUDGETED,
            seed=3,
            deadline=time.monotonic() - 1.0,
            note_execution=service.note_execution,
        )
        assert outcome.status == "deadline"
        assert outcome.frames == ()
        _, store = service.snapshot_stats()
        assert store.lookups == 0

    def test_cancellation_storm_keeps_invariant(self):
        service = fresh_service()
        # Cancel at every possible rung boundary, repeatedly.
        for cancel_after in (0, 1, 2, 0, 1):
            seen: list = []

            def cancelled() -> bool:
                return len(seen) > cancel_after

            outcome = run_progressive(
                service.db,
                BUDGETED,
                seed=cancel_after,
                emit=seen.append,
                cancelled=cancelled,
                note_execution=service.note_execution,
            )
            assert outcome.status in ("cancelled", "ok")
            stats, store = service.snapshot_stats()
            assert store.lookups <= stats.queries

"""The plan chooser: reports, budget satisfaction, escalation."""

from __future__ import annotations

import math

import pytest

from repro.data.workloads import query1_plan
from repro.errors import EstimationError, PlanError
from repro.optimizer import (
    ErrorBudget,
    SamplingPlanOptimizer,
    optimize,
)
from repro.relational.plan import Aggregate, AggSpec, Scan, TableSample
from repro.relational.expressions import col
from repro.sampling import Bernoulli


@pytest.fixture(scope="module")
def opt(tpch_db):
    return SamplingPlanOptimizer(tpch_db, seed=3)


def _single_table(rate=0.2, alias="t"):
    return Aggregate(
        TableSample(Scan("lineitem"), Bernoulli(rate)),
        [AggSpec("sum", col("l_extendedprice"), alias)],
    )


class TestReport:
    def test_ranked_feasible_first_by_cost(self, opt):
        report = opt.report(query1_plan(), ErrorBudget.from_percent(10.0))
        feasible = [sc for sc in report.scored if sc.feasible]
        assert feasible, "some candidate must meet a 10% budget"
        assert report.chosen is report.scored[0]
        assert report.chosen.feasible
        costs = [sc.cost.seconds for sc in feasible]
        assert costs == sorted(costs)
        # Feasible candidates precede infeasible ones.
        flags = [sc.feasible for sc in report.scored]
        assert flags.index(False) >= len(feasible) if False in flags else True

    def test_chosen_cheaper_than_or_equal_any_feasible(self, opt):
        report = opt.report(query1_plan(), ErrorBudget.from_percent(10.0))
        for sc in report.scored:
            if sc.feasible:
                assert report.chosen.cost.seconds <= sc.cost.seconds

    def test_naive_uniform_baseline_and_cost_ratio(self, opt):
        report = opt.report(query1_plan(), ErrorBudget.from_percent(12.0))
        if report.naive is not None:
            assert report.cost_ratio <= 1.0 + 1e-12
        else:
            assert math.isnan(report.cost_ratio)

    def test_table_rendering(self, opt):
        report = opt.report(query1_plan(), ErrorBudget.from_percent(10.0))
        text = report.table()
        assert "budget: ±10%" in text
        assert "candidate" in text and "pred. ±" in text
        assert "chosen:" in text

    def test_unsampled_query_rejected(self, opt):
        plan = Aggregate(
            Scan("lineitem"), [AggSpec("sum", col("l_tax"), "t")]
        )
        with pytest.raises(PlanError, match="samples nothing"):
            opt.report(plan, ErrorBudget.from_percent(5.0))

    def test_avg_only_query_rejected(self, opt):
        plan = Aggregate(
            TableSample(Scan("lineitem"), Bernoulli(0.5)),
            [AggSpec("avg", col("l_tax"), "t")],
        )
        with pytest.raises(EstimationError, match="AVG"):
            opt.report(plan, ErrorBudget.from_percent(5.0))


class TestOptimize:
    def test_budget_met_across_seeded_trials(self, tpch_db):
        """The acceptance loop in miniature: ≥90% of trials must land
        inside the requested relative half-width (the benchmark runs
        the full-size version)."""
        budget = ErrorBudget.from_percent(10.0)
        opt = SamplingPlanOptimizer(tpch_db, seed=0)
        hits = 0
        trials = 10
        for seed in range(trials):
            result = opt.optimize(query1_plan(), budget, seed=seed)
            hits += result.met
        assert hits >= 0.9 * trials

    def test_escalation_tightens_until_met_or_full(self, tpch_db):
        """A near-impossible budget escalates to a (near-)full scan."""
        budget = ErrorBudget.from_percent(0.75)
        opt = SamplingPlanOptimizer(tpch_db, seed=1, max_escalations=6)
        result = opt.optimize(_single_table(0.05), budget, seed=2)
        assert len(result.attempts) > 1
        widths = [a.realized_relative_half_width for a in result.attempts]
        assert widths[-1] < widths[0]
        samples = [a.n_sample for a in result.attempts]
        assert samples == sorted(samples)

    def test_estimate_near_truth(self, tpch_db):
        truth = tpch_db.execute_exact(query1_plan()).to_rows()[0][0]
        result = optimize(
            tpch_db, query1_plan(), ErrorBudget.from_percent(10.0), seed=5
        )
        assert result["revenue"] == pytest.approx(truth, rel=0.25)
        assert result.result.plan is not None

    def test_summary_mentions_budget_and_plan(self, tpch_db):
        result = optimize(
            tpch_db, query1_plan(), ErrorBudget.from_percent(10.0), seed=6
        )
        text = result.summary()
        assert "plan:" in text and "budget" in text
        assert "attempt" in text

    def test_database_facade(self, tpch_db):
        result = tpch_db.optimize(
            query1_plan(), ErrorBudget.from_percent(10.0), seed=7
        )
        assert result.attempts
        # The facade shares the cached cost model.
        assert tpch_db.cost_model() is tpch_db.cost_model()


class TestSqlIntegration:
    def test_budget_query_returns_optimized_result(self, tpch_db):
        out = tpch_db.sql(
            "SELECT SUM(l_extendedprice) AS rev "
            "FROM lineitem TABLESAMPLE (20 PERCENT), "
            "orders TABLESAMPLE (1000 ROWS) "
            "WHERE l_orderkey = o_orderkey "
            "WITHIN 10 % CONFIDENCE 0.95",
            seed=1,
        )
        from repro.optimizer import OptimizedResult

        assert isinstance(out, OptimizedResult)
        assert out.report.budget.percent == pytest.approx(10.0)
        assert "rev" in out.result.values

    def test_explain_sampling_returns_report(self, tpch_db):
        out = tpch_db.sql(
            "EXPLAIN SAMPLING SELECT SUM(l_tax) AS t "
            "FROM lineitem TABLESAMPLE (20 PERCENT) "
            "WITHIN 10 % CONFIDENCE 0.95",
            seed=1,
        )
        from repro.optimizer import OptimizerReport

        assert isinstance(out, OptimizerReport)
        assert "candidate" in out.table()

    @pytest.mark.parametrize("frozen", ["lineitem", "orders"])
    def test_budget_join_survives_a_snapshot_of_either_side(self, frozen):
        """A snapshot repeats its table's column names under another
        catalog name; the join keys still belong to the scanned tables."""
        from repro.data.tpch import tpch_database

        text = (
            "SELECT SUM(l_extendedprice) AS s "
            "FROM lineitem TABLESAMPLE (5 PERCENT), orders "
            "WHERE l_orderkey = o_orderkey WITHIN 10 % CONFIDENCE 0.95"
        )
        db = tpch_database(scale=0.05, seed=4)
        db.snapshot(frozen)
        out = db.sql(text, seed=2)
        assert out.report.chosen.candidate.skeleton.join_conds == (
            ("lineitem", "l_orderkey", "orders", "o_orderkey"),
        )
        assert "s" in out.result.values

    def test_budget_join_survives_snapshots_of_both_sides(self):
        from repro.data.tpch import tpch_database

        text = (
            "SELECT SUM(l_extendedprice) AS s "
            "FROM lineitem TABLESAMPLE (5 PERCENT), orders "
            "WHERE l_orderkey = o_orderkey WITHIN 10 % CONFIDENCE 0.95"
        )
        db = tpch_database(scale=0.05, seed=4)
        for name in ("lineitem", "orders", "lineitem"):
            db.snapshot(name)
        out = db.sql(text, seed=2)
        skeleton = out.report.chosen.candidate.skeleton
        assert skeleton.join_conds == (
            ("lineitem", "l_orderkey", "orders", "o_orderkey"),
        )
        assert "s" in out.result.values


class TestReviewRegressions:
    def test_naive_baseline_survives_join_reordering(self, tpch_db):
        """The uniform baseline is priced at the query's own join order
        even when the ranking keeps only cheaper reordered variants."""
        from repro.data.workloads import figure4_plan

        opt = SamplingPlanOptimizer(tpch_db, seed=0)
        report = opt.report(figure4_plan(), ErrorBudget.from_percent(40.0))
        assert report.naive is not None
        skeleton = report.naive.candidate.skeleton
        assert report.naive.candidate.order == skeleton.relations

    def test_subsample_rejected_on_optimizer_path(self, tpch_db):
        from repro.core.subsample import SubsampleSpec
        from repro.errors import SQLError

        with pytest.raises(SQLError, match="subsample"):
            tpch_db.sql(
                "SELECT SUM(l_tax) AS t FROM lineitem "
                "TABLESAMPLE (50 PERCENT) WITHIN 20 % CONFIDENCE 0.9",
                subsample=SubsampleSpec(rate=0.5),
            )

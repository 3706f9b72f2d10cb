"""Cost model: calibration, cardinality flow, ranking sanity."""

from __future__ import annotations

import pytest

from repro.data.workloads import figure4_plan, query1_plan
from repro.optimizer import (
    CostModel,
    ErrorBudget,
    SamplingPlanOptimizer,
    decompose,
)
from repro.optimizer.candidates import join_orders
from repro.relational.plan import Aggregate, AggSpec, Scan, TableSample
from repro.relational.expressions import col
from repro.sampling import Bernoulli


@pytest.fixture(scope="module")
def model(tpch_db):
    return CostModel.calibrate(tpch_db.tables)


@pytest.fixture(scope="module")
def opt(tpch_db):
    return SamplingPlanOptimizer(tpch_db, seed=3)


def _column_owner(db):
    return {
        col_: name
        for name, table in db.tables.items()
        for col_ in table.schema.names
    }


class TestCalibration:
    def test_constants_positive(self, model):
        assert model.scan_seconds_per_row > 0.0
        assert model.join_seconds_per_row > 0.0

    def test_statistics_match_catalog(self, model, tpch_db):
        assert model.table_sizes["lineitem"] == (
            tpch_db.table("lineitem").n_rows
        )
        assert model.column_ndv["o_orderkey"] == (
            tpch_db.table("orders").n_rows
        )


class TestCardinalities:
    def test_scan_rows(self, model, tpch_db):
        est = model.estimate(Scan("lineitem"))
        assert est.rows_scanned == tpch_db.table("lineitem").n_rows
        assert est.rows_joined == 0.0

    def test_sampling_rate_scales_cost(self, model):
        def plan(rate):
            return Aggregate(
                TableSample(Scan("lineitem"), Bernoulli(rate)),
                [AggSpec("sum", col("l_tax"), "t")],
            )

        low = model.estimate(plan(0.05))
        high = model.estimate(plan(0.8))
        assert low.seconds < high.seconds
        assert low.rows_total < high.rows_total

    def test_join_fk_estimate(self, model, tpch_db):
        plan = query1_plan(lineitem_rate=1.0 - 1e-12, orders_rows=10**9)
        est = model.estimate(plan)
        n_lineitem = tpch_db.table("lineitem").n_rows
        # Unsampled FK join ≈ every lineitem row survives the join.
        assert est.rows_joined == pytest.approx(
            2 * n_lineitem + tpch_db.table("orders").n_rows, rel=0.05
        )

    def test_lower_rates_cheaper_on_join_query(self, model):
        cheap = model.estimate(query1_plan(0.05, 500))
        costly = model.estimate(query1_plan(0.8, 5000))
        assert cheap.seconds < costly.seconds


class TestJoinOrderSensitivity:
    def test_orders_change_cost(self, model, tpch_db):
        """Different join orders must price differently (else the
        enumeration over orders buys nothing)."""
        skeleton = decompose(figure4_plan(), _column_owner(tpch_db))
        costs = {
            order: model.estimate(skeleton.build(order=order)).seconds
            for order in join_orders(skeleton)
        }
        assert len(set(round(c, 12) for c in costs.values())) > 1

    def test_describe_mentions_rows(self, model):
        text = model.estimate(query1_plan()).describe()
        assert "rows" in text


class TestPartitionAwareness:
    def test_build_sizes(self, model, tpch_db):
        est = model.estimate(query1_plan())
        # One build serves every probe task.
        assert est.build_rows_max > 0.0
        scan_only = model.estimate(Scan("lineitem"))
        assert scan_only.build_rows_max == 0.0

    @pytest.mark.parametrize("env", ["1", "2", "4"])
    def test_worker_count_prices_nothing(self, model, opt, env, monkeypatch):
        """Chunks fold on one thread, so ``REPRO_WORKERS`` must not make
        a plan look cheaper."""
        plan = query1_plan()
        budget = ErrorBudget.from_percent(10.0)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        serial = model.estimate(plan)
        ranked = [sc.cost for sc in opt.report(plan, budget).scored]
        monkeypatch.setenv("REPRO_WORKERS", env)
        assert model.estimate(plan) == serial
        assert "worker" not in serial.describe()
        assert [sc.cost for sc in opt.report(plan, budget).scored] == ranked

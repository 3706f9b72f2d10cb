"""Cost model: fixed constants, cardinality flow, ranking sanity."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core import kernels
from repro.data.tpch import tpch_database
from repro.data.workloads import figure4_plan, query1_plan
from repro.optimizer import (
    CostModel,
    ErrorBudget,
    SamplingPlanOptimizer,
    decompose,
)
from repro.optimizer import cost
from repro.optimizer.candidates import join_orders
from repro.relational.database import Database
from repro.relational.plan import Aggregate, AggSpec, Scan, TableSample
from repro.relational.expressions import col
from repro.sampling import Bernoulli


@pytest.fixture(scope="module")
def model(tpch_db):
    return CostModel.calibrate(tpch_db.tables)


@pytest.fixture(scope="module")
def opt(tpch_db):
    return SamplingPlanOptimizer(tpch_db)


def _column_owner(db):
    return {
        col_: name
        for name, table in db.tables.items()
        for col_ in table.schema.names
    }


class TestCalibration:
    def test_constants_are_fixed(self, model, tpch_db):
        """Calibrating reads the catalog, not the clock: a row costs
        the same in every model."""
        assert cost.SCAN_SECONDS_PER_ROW == 5e-9
        assert cost.JOIN_SECONDS_PER_ROW == 3e-8
        plan = query1_plan()
        est = model.estimate(plan)
        assert est.seconds == (
            est.rows_scanned * 5e-9 + est.rows_joined * 3e-8
        )
        assert CostModel.calibrate(tpch_db.tables).estimate(plan) == est

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


class TestPartitionAwareness:
    @pytest.mark.parametrize("env", ["1", "2", "4"])
    def test_worker_count_prices_nothing(self, model, opt, env, monkeypatch):
        """Chunks fold on one thread, so ``REPRO_WORKERS`` must not make
        a plan look cheaper."""
        plan = query1_plan()
        budget = ErrorBudget.from_percent(10.0)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        serial = model.estimate(plan)
        ranked = [sc.cost for sc in opt.report(plan, budget, seed=3).scored]
        monkeypatch.setenv("REPRO_WORKERS", env)
        assert model.estimate(plan) == serial
        again = [sc.cost for sc in opt.report(plan, budget, seed=3).scored]
        assert again == ranked


def _counting(monkeypatch, module, name, calls: list) -> None:
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((name, np.asarray(args[0]).dtype))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


_BUDGET_JOIN = (
    "SELECT SUM(l_extendedprice) AS v FROM lineitem TABLESAMPLE "
    "(5 PERCENT), orders WHERE l_orderkey = o_orderkey"
)


_JOIN3 = (
    "SELECT SUM(l_extendedprice) AS v, COUNT(*) AS n FROM lineitem "
    "TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (50 PERCENT), "
    "customer TABLESAMPLE (50 PERCENT) WHERE l_orderkey = o_orderkey "
    "AND o_custkey = c_custkey AND c_acctbal > 0.0"
)


def _scored_bits(sc) -> tuple:
    return (
        sc.name,
        sc.candidate.order,
        struct.pack("<d", sc.predicted_relative_half_width),
        struct.pack(
            "<3d",
            sc.cost.rows_scanned,
            sc.cost.rows_joined,
            sc.cost.seconds,
        ),
        sc.feasible,
        sc.reused,
    )


class TestInstanceIndependence:
    """A ranking is a function of the data, the statement and the seed:
    two databases holding the same tables — one in RAM, one its
    memory-mapped twin — score every candidate to the same bits."""

    def test_ram_and_mmap_twins_score_alike(self, tmp_path):
        tables = tpch_database(0.2, seed=42).tables
        ram = Database.from_tables(tables)
        mmap = Database.from_tables(
            {
                name: table.persist(str(tmp_path / name))
                for name, table in tables.items()
            }
        )
        budget = ErrorBudget.from_percent(15.0, 0.95)
        ram_report, mmap_report = (
            db.optimizer().report(db.plan_sql(_JOIN3), budget, seed=3)
            for db in (ram, mmap)
        )
        assert len(ram_report.scored) > 1
        assert [_scored_bits(sc) for sc in mmap_report.scored] == [
            _scored_bits(sc) for sc in ram_report.scored
        ]
        assert _scored_bits(mmap_report.chosen) == _scored_bits(
            ram_report.chosen
        )


class TestLazyNdv:
    """Calibration reads no column; a join key is counted once, on use."""

    def test_cost_model_hashes_nothing(self, monkeypatch):
        db = tpch_database(0.02, seed=7)
        db.update_table("lineitem", db.table("lineitem"))
        calls: list = []
        _counting(monkeypatch, np, "unique", calls)
        _counting(monkeypatch, kernels, "factorize", calls)
        ndv = db.cost_model().column_ndv
        assert "o_orderkey" in ndv and "nope" not in ndv
        assert len(ndv) == len(set(ndv)) > 0
        assert calls == []

    def test_budget_join_counts_its_keys_once(self, monkeypatch):
        db = tpch_database(0.02, seed=7)
        counted: list = []
        real = cost.distinct_count

        def distinct_count(table, column):
            counted.append((table.name, column))
            return real(table, column)

        monkeypatch.setattr(cost, "distinct_count", distinct_count)
        plan = db.plan_sql(_BUDGET_JOIN)
        for seed in (1, 2):
            db.optimize(plan, ErrorBudget.from_percent(10.0), seed=seed)
        assert sorted(counted) == [
            ("lineitem", "l_orderkey"),
            ("orders", "o_orderkey"),
        ]

    @pytest.mark.parametrize("storage", ["ram", "mmap"])
    def test_lazy_equals_eager(self, storage, tmp_path, monkeypatch):
        db = tpch_database(0.2, seed=42)
        if storage == "mmap":
            for name in list(db.tables):
                db.persist(name, str(tmp_path / name))
        ndv = db.cost_model().column_ndv
        calls: list = []
        with monkeypatch.context() as patch:
            _counting(patch, np, "unique", calls)
            _counting(patch, kernels, "factorize", calls)
            lazy = {
                (name, c): ndv.of(name, c)
                for name, table in db.tables.items()
                for c in table.schema.names
            }
        # Strings count dictionary codes: no object array is sorted, and
        # a colstore column's codes come from its file.
        assert ("unique", np.dtype(object)) not in calls
        if storage == "mmap":
            assert [c for c in calls if c[0] == "factorize"] == []
        eager = {
            (name, c): int(np.unique(np.asarray(table.columns[c])).size)
            for name, table in db.tables.items()
            for c in table.schema.names
        }
        assert lazy == eager


class TestNdvResolution:
    def test_bare_name_reads_the_live_table(self):
        db = tpch_database(0.2, seed=42)
        orders = db.table("orders")
        half = orders.n_rows // 2
        db.update_table("orders", orders.take(np.arange(half)))
        assert db.cost_model().column_ndv["o_orderkey"] == half
        assert db.cost_model().column_ndv.of("orders@v1", "o_orderkey") == (
            orders.n_rows
        )

    @pytest.mark.parametrize(
        "version, joined", [("", 10_000), (" AT VERSION 1", 40_000)]
    )
    def test_join_prices_the_version_it_scans(self, version, joined):
        db = Database(seed=1)
        db.create_table(
            "f", {"fk": np.arange(10_000) % 100, "x": np.ones(10_000)}
        )
        # Version 1 holds 100 distinct keys, the live table 400.
        db.create_table(
            "d", {"dk": np.repeat(np.arange(100), 4), "w": np.ones(400)}
        )
        db.update_table(
            "d", db.table("d").with_columns({"dk": np.arange(400)})
        )
        plan = db.plan_sql(
            f"SELECT SUM(x * w) AS v FROM f, d{version} WHERE fk = dk"
        )
        est = db.cost_model().estimate(plan)
        assert est.rows_joined == 10_000 + 400 + joined


class TestNullStrings:
    """A ``None`` in a string column is one value, never a ``TypeError``."""

    def _db(self) -> Database:
        db = Database(seed=1)
        strings = np.array(["a", None, "b"] * 333 + ["a"], dtype=object)
        db.create_table(
            "t", {"k": np.arange(1000), "s": strings, "x": np.ones(1000)}
        )
        return db

    def test_within_ignores_an_unread_null_string(self):
        db = self._db()
        out = db.sql(
            "SELECT SUM(x) AS v FROM t TABLESAMPLE (50 PERCENT) "
            "WITHIN 10 % CONFIDENCE 0.95",
            seed=3,
        )
        assert out.result.values["v"] > 0.0

    def test_within_join_on_a_null_string_key(self):
        db = self._db()
        db.create_table(
            "d",
            {
                "dk": np.array(["a", None, "b", "c"], dtype=object),
                "w": np.arange(1.0, 5.0),
            },
        )
        out = db.sql(
            "SELECT SUM(x * w) AS v FROM t TABLESAMPLE (50 PERCENT), d "
            "WHERE s = dk WITHIN 20 % CONFIDENCE 0.95",
            seed=3,
        )
        assert out.result.values["v"] > 0.0
        ndv = db.cost_model().column_ndv
        assert (ndv["s"], ndv["dk"]) == (3, 4)

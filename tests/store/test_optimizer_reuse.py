"""The optimizer treats cached synopses as near-zero-cost candidates."""

from __future__ import annotations

import pytest

from repro.data.tpch import tpch_database
from repro.optimizer import CostModel
from repro.optimizer.cost import SCAN_SECONDS_PER_ROW


@pytest.fixture()
def db():
    database = tpch_database(scale=0.02, seed=7)
    database.attach_catalog()
    return database


BUDGET_QUERY = (
    "SELECT SUM(l_extendedprice) AS rev FROM lineitem "
    "TABLESAMPLE (20 PERCENT), orders WHERE l_orderkey = o_orderkey "
    "WITHIN 15 % CONFIDENCE 0.95"
)


def test_reuse_estimate_is_cheaper_than_any_scan():
    model = CostModel({"t": 1000}, {"k": 100})
    reuse = model.reuse_estimate(50)
    assert reuse.rows_total == 50
    assert reuse.seconds < SCAN_SECONDS_PER_ROW * 1000
    assert model.reuse_estimate(-3).rows_total == 0.0


def test_second_budget_query_reuses_stored_plan(db):
    first = db.sql(BUDGET_QUERY, seed=1)
    second = db.sql(BUDGET_QUERY, seed=1)
    assert first.result.reuse is None
    assert second.report.chosen.reused
    assert second.result.reuse is not None
    assert second.result.values == first.result.values
    stats = db.synopses.snapshot_stats()
    assert stats.hits > 0


def test_report_marks_cached_candidates(db):
    db.sql(BUDGET_QUERY, seed=1)
    report = db.sql("EXPLAIN SAMPLING " + BUDGET_QUERY, seed=1)
    assert any(sc.reused for sc in report.scored)
    assert "[cached]" in report.table()


def test_no_catalog_keeps_ranking_shape():
    plain = tpch_database(scale=0.02, seed=7)
    report = plain.sql("EXPLAIN SAMPLING " + BUDGET_QUERY, seed=1)
    assert not any(sc.reused for sc in report.scored)
    assert "[cached]" not in report.table()

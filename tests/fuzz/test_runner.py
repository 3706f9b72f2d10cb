"""The campaign driver: bounded runs, deterministic accounting, and a
JSON artifact faithful to the report."""

from __future__ import annotations

import json

from repro.fuzz import CheckContext, FuzzReport, run_fuzz
from repro.fuzz.generator import QueryGenerator
from repro.fuzz.runner import STATISTICAL_EVERY
from repro.fuzz.shrink import ReproCase


def test_bounded_run_is_clean_and_counts_add_up():
    ctx = CheckContext()
    report = run_fuzz(seconds=3600.0, seed=0, max_queries=24, ctx=ctx)
    assert report.ok
    assert report.queries == 24
    assert report.statistical_queries == 24 // STATISTICAL_EVERY
    assert report.seed == 0


def test_budget_statements_are_counted_planned_or_refused():
    ctx = CheckContext()
    generator = QueryGenerator(0)
    budgets = sum(
        generator.query().budget is not None for _ in range(120)
    )
    report = run_fuzz(seconds=3600.0, seed=0, max_queries=120, ctx=ctx)
    assert report.ok
    assert report.budgets_planned + report.budgets_refused == budgets
    assert report.budgets_planned > 0
    assert f"{report.budgets_planned} budgets planned" in report.summary()
    assert report.to_json()["budgets_refused"] == report.budgets_refused


def test_time_budget_stops_the_campaign():
    ctx = CheckContext()
    ticks = iter(range(1000))

    def clock() -> float:
        return float(next(ticks))

    # Budget of 5 ticks, one tick consumed per loop iteration check.
    report = run_fuzz(seconds=5.0, seed=1, ctx=ctx, clock=clock)
    assert 0 < report.queries <= 5
    # The report carries the time spent, read off the same clock: tick
    # 0 starts the campaign, ticks 1..queries pass the loop check, the
    # next one fails it and the last one is the read-out.
    assert report.seconds == float(report.queries + 2)
    assert f"in {report.seconds:.1f}s" in report.summary()


def test_report_records_the_time_spent_not_the_budget():
    ctx = CheckContext()
    # Start, three loop checks (the third meets ``max_queries``), end.
    ticks = iter([0.0, 0.25, 0.5, 0.75, 1.5])

    def clock() -> float:
        return next(ticks)

    report = run_fuzz(
        seconds=3600.0, seed=0, max_queries=2, ctx=ctx, clock=clock
    )
    assert report.queries == 2
    assert report.seconds == 1.5
    assert "in 1.5s" in report.summary()


def test_report_json_round_trips(tmp_path):
    report = FuzzReport(seed=3, seconds=1.0, queries=7, statistical_queries=2)
    report.failures.append(
        ReproCase(
            kind="oracle",
            statement="SELECT SUM(f_val) AS a0\nFROM fact",
            seed=99,
            detail="estimator != exact",
        )
    )
    path = tmp_path / "fuzz.json"
    report.write_json(str(path))
    payload = json.loads(path.read_text())
    assert payload["ok"] is False
    assert payload["queries"] == 7
    assert payload["failures"][0]["seed"] == 99
    # The artifact carries a ready-to-paste regression test.
    compile(payload["failures"][0]["test_source"], "<artifact>", "exec")


def test_summary_mentions_failures():
    clean = FuzzReport(seed=0, seconds=2.0, queries=10)
    assert "all checks passed" in clean.summary()
    dirty = FuzzReport(seed=0, seconds=2.0, queries=10)
    dirty.failures.append(
        ReproCase("determinism", "SELECT COUNT(*) AS n\nFROM fact", 4, "diff")
    )
    text = dirty.summary()
    assert "SURVIVING FAILURE" in text
    assert "determinism" in text

"""EXPLAIN ANALYZE through the SQL stack: parse, print, execute, render."""

import pytest

from repro.errors import SQLError, SQLSyntaxError
from repro.obs.report import ExplainAnalyzeReport
from repro.relational.plan import walk
from repro.sql.parser import parse
from repro.sql.printer import query_to_sql

JOIN_Q = (
    "SELECT SUM(l_extendedprice) AS rev "
    "FROM lineitem TABLESAMPLE (20 PERCENT) REPEATABLE (11), orders "
    "WHERE l_orderkey = o_orderkey"
)


def _node_rows(trace) -> dict[str, int]:
    """Per plan node, ``rows_out`` summed over the chunks it ran in."""
    totals: dict[str, int] = {}
    for span in trace.spans:
        if span.kind == "node":
            totals[span.name] = totals.get(span.name, 0) + span.attrs["rows_out"]
    return totals


class TestParsing:
    def test_parse_sets_flag(self):
        q = parse("EXPLAIN ANALYZE SELECT SUM(x) AS s FROM t")
        assert q.explain_analyze
        assert not q.explain_sampling

    def test_plain_query_has_no_flag(self):
        assert not parse("SELECT SUM(x) AS s FROM t").explain_analyze

    def test_explain_alone_still_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("EXPLAIN SELECT SUM(x) FROM t")

    def test_print_roundtrip(self):
        text = "EXPLAIN ANALYZE SELECT SUM(x) AS s FROM t"
        q = parse(text)
        printed = query_to_sql(q)
        assert printed.startswith("EXPLAIN ANALYZE")
        assert parse(printed) == q


class TestValidation:
    def test_rejected_with_budget(self, tpch_db):
        with pytest.raises(SQLError, match="EXPLAIN ANALYZE"):
            tpch_db.plan_sql(
                "EXPLAIN ANALYZE SELECT SUM(l_extendedprice) AS rev "
                "FROM lineitem WITHIN 5 % CONFIDENCE 0.95"
            )


class TestExecution:
    def test_report_matches_plain_run_bit_for_bit(self, tpch_db):
        plain = tpch_db.sql(JOIN_Q, seed=5)
        report = tpch_db.sql("EXPLAIN ANALYZE " + JOIN_Q, seed=5)
        assert isinstance(report, ExplainAnalyzeReport)
        assert report.result.values == plain.values
        assert all(
            report.result.estimates[a].variance_raw
            == plain.estimates[a].variance_raw
            for a in plain.values
        )
        assert report.result.trace is report.trace

    @pytest.mark.parametrize("workers", [0, 1, 4])
    def test_trace_has_per_node_timings_and_rows(self, tpch_db, workers):
        # One engine, one trace shape: every plan node reports its rows
        # at every worker count, under the span of the chunk it ran in.
        report = tpch_db.sql(
            "EXPLAIN ANALYZE " + JOIN_Q,
            seed=5,
            workers=workers,
            chunk_size=256 if workers else None,  # 1 chunk vs 5
        )
        spans = {s.span_id: s for s in report.trace.spans}
        nodes = [s for s in report.trace.spans if s.kind == "node"]
        plan = tpch_db.plan_sql(JOIN_Q)
        assert {repr(n) for n in walk(plan.child)} == {s.name for s in nodes}
        assert {"Scan(lineitem)", "Scan(orders)"} <= {s.name for s in nodes}
        assert all("rows_out" in s.attrs for s in nodes)
        assert all(s.end_ns >= s.start_ns for s in report.trace.spans)
        for span in nodes:
            up = span
            while up.kind == "node":
                up = spans[up.parent_id]
            assert up.kind in ("chunk", "build")
        assert _node_rows(report.trace)["Scan(lineitem)"] == (
            tpch_db.table("lineitem").n_rows
        )
        kernels = {s.name for s in report.trace.spans if s.kind == "kernel"}
        assert {"draw.table_sample", "join.factorize_probe"} <= kernels
        text = report.render_trace()
        assert text.startswith("-- EXPLAIN ANALYZE")
        assert "Scan(lineitem)" in text
        assert "rows_out=" in text

    def test_per_node_rows_identical_at_every_worker_count(self, tpch_db):
        traces = [
            tpch_db.sql(
                "EXPLAIN ANALYZE " + JOIN_Q,
                seed=5,
                workers=workers,
                chunk_size=chunk_size,
            ).trace
            for workers, chunk_size in [(None, None), (0, None), (1, 256), (4, 100)]
        ]
        chunks = [sum(s.kind == "chunk" for s in t.spans) for t in traces]
        assert chunks[:2] == [1, 1] and chunks[2] > 1 and chunks[3] > chunks[2]
        totals = [_node_rows(t) for t in traces]
        assert all(t == totals[0] for t in totals[1:])
        assert totals[0]["Join(l_orderkey = o_orderkey)"] > 0

    def test_untraced_run_compiles_no_probes(self, tpch_db, monkeypatch):
        from repro.relational import pipeline

        def boom(*args, **kwargs):
            raise AssertionError("probe compiled on an untraced run")

        monkeypatch.setattr(pipeline._Probe, "__init__", boom)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        tpch_db.sql(JOIN_Q, seed=5, workers=0)
        tpch_db.sql(JOIN_Q, seed=5, workers=4)
        with pytest.raises(AssertionError, match="probe compiled"):
            tpch_db.sql("EXPLAIN ANALYZE " + JOIN_Q, seed=5, workers=0)

    def test_chunked_trace_has_per_chunk_spans(self, tpch_db):
        report = tpch_db.sql("EXPLAIN ANALYZE " + JOIN_Q, seed=5, workers=4)
        chunks = [s for s in report.trace.spans if s.kind == "chunk"]
        assert chunks
        assert [s.attrs["chunk"] for s in chunks] == list(range(len(chunks)))
        assert all("rows" in s.attrs for s in chunks)

    def test_catalog_hit_shows_reuse_mode(self, tpch_db_catalog):
        db = tpch_db_catalog
        db.sql(JOIN_Q, seed=5)  # populate the synopsis
        report = db.sql("EXPLAIN ANALYZE " + JOIN_Q, seed=5)
        assert report.result.reuse is not None
        assert report.result.reuse.kind == "exact"
        (probe,) = report.trace.find("store.probe")
        assert probe.attrs["outcome"] == "hit"
        assert probe.attrs["mode"] == "exact"
        (serve,) = report.trace.find("store.serve")
        assert serve.attrs["mode"] == "exact"
        header = report.render_trace().splitlines()[0]
        assert "reuse: exact" in header

    def test_version_diff_shows_reuse_per_side(self, tpch_db_catalog):
        """A version difference's ``reuse`` is a dict with one entry per
        side; the header once read ``.kind`` off the dict itself."""
        db = tpch_db_catalog
        lineitem = db.table("lineitem")
        db.update_table(
            "lineitem",
            lineitem.with_columns(
                {"l_extendedprice": lineitem.column("l_extendedprice") * 1.25}
            ),
        )
        diff = (
            "SELECT SUM(l_extendedprice) AS v FROM lineitem MINUS AT "
            "VERSION 1 TABLESAMPLE (10 PERCENT) REPEATABLE (7)"
        )
        first = db.sql("EXPLAIN ANALYZE " + diff, seed=5)
        assert "reuse" not in first.render_trace().splitlines()[0]
        again = db.sql("EXPLAIN ANALYZE " + diff, seed=5)
        header = again.render_trace().splitlines()[0]
        assert "hi reuse: exact" in header and "lo reuse: exact" in header

    def test_grouped_query_traces(self, tpch_db):
        report = tpch_db.sql(
            "EXPLAIN ANALYZE SELECT l_returnflag, SUM(l_quantity) AS q "
            "FROM lineitem TABLESAMPLE (20 PERCENT) REPEATABLE (3) "
            "GROUP BY l_returnflag",
            seed=2,
        )
        assert isinstance(report, ExplainAnalyzeReport)
        assert report.result.trace is report.trace
        assert report.trace.find("estimate")

    @pytest.mark.parametrize("workers", [0, 1, 4])
    def test_non_aggregate_query_returns_table_report(self, tpch_db, workers):
        report = tpch_db.sql(
            "EXPLAIN ANALYZE SELECT l_extendedprice FROM lineitem "
            "WHERE l_quantity > 30",
            workers=workers,
        )
        assert isinstance(report, ExplainAnalyzeReport)
        assert report.result.n_rows > 0
        assert report.trace.find("Scan(lineitem)")
        rows = _node_rows(report.trace)
        assert rows["Scan(lineitem)"] == tpch_db.table("lineitem").n_rows
        assert rows["Project(l_extendedprice)"] == report.result.n_rows

    def test_shell_formats_report(self, tpch_db):
        from repro.cli import run_statement

        out = run_statement(tpch_db, "EXPLAIN ANALYZE " + JOIN_Q)
        assert "rev = " in out
        assert "-- EXPLAIN ANALYZE" in out
        # The estimate phase appears at every worker count (the shell
        # leaves the pool size to REPRO_WORKERS).
        assert "estimate" in out

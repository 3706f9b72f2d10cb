"""QueryService unit behavior and the ``repro serve`` CLI."""

from __future__ import annotations

import io

import pytest

from repro.cli import main
from repro.data.tpch import tpch_database
from repro.errors import ReproError
from repro.service import (
    QueryService,
    default_seed,
    serve_statements,
)


@pytest.fixture()
def service() -> QueryService:
    db = tpch_database(scale=0.02, seed=3)
    return QueryService(db)  # attaches a catalog itself


QUERY = (
    "SELECT SUM(l_extendedprice) AS v FROM lineitem "
    "TABLESAMPLE (20 PERCENT) REPEATABLE (1)"
)


class TestQueryService:
    def test_attaches_catalog_when_missing(self):
        db = tpch_database(scale=0.01, seed=0)
        assert db.synopses is None
        QueryService(db)
        assert db.synopses is not None

    def test_repeat_hits_result_cache(self, service):
        first = service.query(QUERY)
        second = service.query(QUERY)
        assert not first.cached and second.cached
        assert first.text == second.text
        assert first.values == second.values
        assert service.stats.result_cache_hits == 1

    def test_surrounding_whitespace_is_normalized_for_caching(self, service):
        service.query(QUERY)
        padded = service.query("   " + QUERY + " \n")
        assert padded.cached

    def test_string_literal_whitespace_is_preserved(self):
        # Interior whitespace must never be collapsed: it can sit
        # inside SQL string literals and change query semantics.
        import numpy as np

        from repro.relational.database import Database

        db = Database(seed=0, catalog=True)
        db.create_table(
            "t",
            {
                "s": np.array(["a  b", "a b", "a  b"], dtype=object),
                "x": np.array([1.0, 1.0, 1.0]),
            },
        )
        service = QueryService(db)
        statement = (
            "SELECT COUNT(*) AS n FROM t "
            "TABLESAMPLE (100 PERCENT) REPEATABLE (1) WHERE s = 'a  b'"
        )
        response = service.query(statement)
        assert response.values == {"n": 2.0}

    def test_distinct_seeds_are_distinct_entries(self, service):
        a = service.query(QUERY, seed=1)
        b = service.query(QUERY, seed=2)
        assert not b.cached
        assert a.seed != b.seed

    def test_default_seed_is_stable(self):
        assert default_seed(QUERY) == default_seed(QUERY)
        assert default_seed(QUERY) != default_seed(QUERY + " WHERE 1 < 2")

    def test_non_aggregate_statement_served(self, service):
        response = service.query("SELECT o_orderkey FROM orders")
        assert response.values is None
        assert "o_orderkey" in response.text

    def test_empty_statement_rejected(self, service):
        with pytest.raises(ReproError):
            service.query("   ")

    def test_error_counted_and_raised(self, service):
        with pytest.raises(ReproError):
            service.query("SELECT nope FROM nothing")
        assert service.stats.errors == 1

    def test_result_cache_bounded(self):
        db = tpch_database(scale=0.01, seed=0)
        service = QueryService(db, result_cache_size=2)
        for seed in range(4):
            service.query(QUERY, seed=seed)
        assert len(service._results) == 2

    def test_direct_db_mutation_retires_cached_answers(self, service):
        # Mutating the database *directly* (not via refresh_table) must
        # still retire cached full answers: the cache is keyed on the
        # catalog's mutation epoch.
        first = service.query(QUERY)
        service.db.update_table(
            "lineitem", service.db.table("lineitem")
        )
        second = service.query(QUERY)
        assert not first.cached and not second.cached

    def test_refresh_table_clears_result_cache(self, service):
        service.query(QUERY)
        service.refresh_table(
            "lineitem", service.db.table("lineitem")
        )
        assert not service.query(QUERY).cached

    def test_query_many_empty(self, service):
        assert service.query_many([]) == []

    def test_coalesced_waiters_counted_separately(self, service):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        release = threading.Event()
        entered = threading.Event()
        real_sql = service.db.sql

        def slow_sql(text, **kwargs):
            entered.set()
            release.wait(timeout=5.0)
            return real_sql(text, **kwargs)

        service.db.sql = slow_sql
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                owner = pool.submit(service.query, QUERY)
                assert entered.wait(timeout=5.0)
                waiter = pool.submit(service.query, QUERY)
                while service.stats.queries < 2:
                    pass  # the waiter has registered before we release
                release.set()
                owner_response = owner.result(timeout=5.0)
                waiter_response = waiter.result(timeout=5.0)
        finally:
            service.db.sql = real_sql
        assert not owner_response.cached and waiter_response.cached
        assert service.stats.coalesced_hits == 1
        assert service.stats.result_cache_hits == 0
        assert owner_response.text == waiter_response.text

    def test_serve_statements_prints_tags(self, service):
        lines: list[str] = []
        served = serve_statements(
            service, [QUERY, QUERY], workers=2, out=lines.append
        )
        assert served == 2
        text = "\n".join(lines)
        assert "fresh" in text
        assert "served" in lines[-1]


class TestServeCli:
    def test_serve_selftest(self, capsys):
        code = main(
            ["--scale", "0.01", "serve", "--selftest", "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "selftest ok" in out

    def test_serve_rejects_bad_workers(self, capsys):
        code = main(["serve", "--workers", "0"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_serve_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(QUERY + "\n\n" + QUERY + "\n")
        )
        code = main(["--scale", "0.01", "serve", "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("v = ") == 2
        assert "result-cache" in out or "exact" in out

    def test_serve_empty_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = main(["--scale", "0.01", "serve"])
        assert code == 0
        assert "no statements" in capsys.readouterr().err

    def test_serve_all_statements_failing_exits_nonzero(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO("SELECT nope FROM nothing\n"))
        code = main(["--scale", "0.01", "serve"])
        assert code == 1
        assert "error" in capsys.readouterr().out

    def test_serve_isolates_per_statement_errors(self, capsys, monkeypatch):
        # One malformed line must not kill the stream: the valid
        # statement is still answered and the exit code stays 0.
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("SELECT nope FROM nothing\n" + QUERY + "\n"),
        )
        code = main(["--scale", "0.01", "serve", "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "-- [error] SELECT nope FROM nothing" in out
        assert "v = " in out

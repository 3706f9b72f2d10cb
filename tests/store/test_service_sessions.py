"""Bounded session registry: get-or-create, LRU eviction, exposure."""

from __future__ import annotations

import pytest

from repro.data.tpch import tpch_database
from repro.errors import ReproError
from repro.service import DEFAULT_MAX_SESSIONS, QueryService


@pytest.fixture()
def db():
    return tpch_database(scale=0.01, seed=0)


class TestSessionRegistry:
    def test_get_or_create_returns_same_handle(self, db):
        service = QueryService(db)
        a = service.session("alice")
        assert service.session("alice") is a
        assert service.session_count == 1

    def test_default_bound(self, db):
        assert QueryService(db)._max_sessions == DEFAULT_MAX_SESSIONS

    def test_lru_eviction_beyond_bound(self, db):
        service = QueryService(db, max_sessions=3)
        for name in ("a", "b", "c"):
            service.session(name)
        service.session("a")  # refresh a: b is now least recent
        service.session("d")  # evicts b
        assert service.session_count == 3
        assert service.stats.sessions_evicted == 1
        assert set(service._sessions) == {"a", "c", "d"}

    def test_evicted_name_gets_fresh_handle(self, db):
        service = QueryService(db, max_sessions=2)
        first = service.session("x")
        first.queries = 5
        service.session("y")
        service.session("z")  # evicts x
        again = service.session("x")
        assert again is not first
        assert again.queries == 0
        assert service.stats.sessions_evicted == 2  # x then y

    def test_churn_is_bounded(self, db):
        service = QueryService(db, max_sessions=8)
        for i in range(100):
            service.session(f"conn-{i}")
        assert service.session_count == 8
        assert service.stats.sessions_evicted == 92

    def test_stats_line_exposes_counts(self, db):
        service = QueryService(db, max_sessions=1)
        service.session("a")
        service.session("b")
        line = service.stats_line()
        assert "sessions 1 (evicted 1)" in line

    def test_metrics_text_exposes_counts(self, db):
        service = QueryService(db, max_sessions=1)
        service.session("a")
        service.session("b")
        text = service.metrics_text()
        assert "repro_service_sessions_evicted_total 1" in text
        assert "repro_service_sessions 1" in text

    def test_note_execution_counts_queries(self, db):
        service = QueryService(db)
        before = service.stats.queries
        service.note_execution()
        service.note_execution(2)
        assert service.stats.queries == before + 3

    def test_session_does_not_keep_its_service_alive(self, db):
        service = QueryService(db)
        session = service.session("a")
        assert session.service is service
        del service  # no cycle through the registry: freed at once
        with pytest.raises(ReproError, match="outlived its service"):
            session.query("SELECT COUNT(*) AS n FROM orders")

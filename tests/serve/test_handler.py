"""The shared request brain: execution, outcomes, metrics, stdin loop."""

from __future__ import annotations

import time

import pytest

from serveutil import BUDGETED, PLAIN, fresh_service

from repro.serve.admission import AdmissionController
from repro.serve.handler import RequestHandler
from repro.serve.protocol import Request
from repro.service import serve_statements


def _request(statement: str, rid: int = 1, **kwargs) -> Request:
    return Request(id=rid, op="query", statement=statement, **kwargs)


def _histogram_count(service, name: str, **labels) -> int:
    snap = service.metrics.snapshot()
    for (metric, metric_labels), value in snap.items():
        if metric == name and dict(metric_labels) == labels:
            return value.count
    return 0


@pytest.fixture()
def handler(shared_service) -> RequestHandler:
    return RequestHandler(shared_service)


class TestImmediate:
    def test_ping(self, handler):
        payload = handler.immediate(Request(id=1, op="ping"))
        assert payload == {
            "id": 1, "type": "result", "status": "ok", "pong": True,
        }

    def test_stats_and_metrics(self, handler):
        stats = handler.immediate(Request(id=2, op="stats"))
        assert "served" in stats["text"]
        metrics = handler.immediate(Request(id=3, op="metrics"))
        assert "repro_service_queries_total" in metrics["text"]

    def test_query_is_not_immediate(self, handler):
        assert handler.immediate(_request(PLAIN)) is None


class TestExecuteFinal:
    def test_ok_payload(self, handler):
        decision, err = handler.admit(_request(PLAIN))
        assert err is None
        payload = handler.execute(_request(PLAIN), decision)
        handler.release(decision)
        assert payload["type"] == "result"
        assert payload["status"] == "ok"
        assert payload["values"] is not None
        assert payload["tag"] in (
            "fresh", "result-cache", "exact", "pushdown", "thin",
        )

    def test_session_keyword_is_accepted_and_ignored(self, handler):
        # benchmarks/e2e passes session=; ROADMAP item 2(f) drops both.
        decision, _ = handler.admit(_request(PLAIN))
        plain = handler.execute(_request(PLAIN), decision)
        named = handler.execute(_request(PLAIN), decision, session="shadow")
        handler.release(decision)
        assert named["text"] == plain["text"]

    def test_error_isolated(self, handler):
        decision, _ = handler.admit(_request("SELECT FROM nothing"))
        payload = handler.execute(
            _request("SELECT FROM nothing"), decision
        )
        handler.release(decision)
        assert payload["type"] == "error"
        assert payload["code"] == "error"


class TestExecuteProgressive:
    def test_frames_then_result(self):
        service = fresh_service()
        handler = RequestHandler(service)
        request = _request(BUDGETED, mode="progressive", seed=11)
        frames: list[dict] = []
        decision, _ = handler.admit(request)
        payload = handler.execute(request, decision, frames.append)
        handler.release(decision)
        assert payload["status"] == "ok"
        assert payload["met"] is True
        assert payload["frames"] == len(frames) >= 2
        assert frames[0]["type"] == "frame"
        assert frames[0]["stage"] == "pilot"
        assert payload["estimate"] == frames[-1]["estimate"]
        # TTFE and TTB histograms both recorded once.
        assert _histogram_count(service, "repro_serve_ttfe_seconds") == 1
        assert _histogram_count(service, "repro_serve_ttb_seconds") == 1
        assert (
            _histogram_count(
                service, "repro_serve_request_seconds", outcome="ok"
            )
            == 1
        )

    def test_cancelled_outcome_recorded(self):
        service = fresh_service()
        handler = RequestHandler(service)
        request = _request(BUDGETED, mode="progressive", seed=4)
        decision, _ = handler.admit(request)
        payload = handler.execute(
            request, decision, cancelled=lambda: True
        )
        handler.release(decision)
        assert payload["status"] == "cancelled"
        assert payload["frames"] == 0
        assert (
            _histogram_count(
                service, "repro_serve_request_seconds", outcome="cancelled"
            )
            == 1
        )
        stats, store = service.snapshot_stats()
        assert store.lookups <= stats.queries

    def test_deadline_outcome_recorded(self):
        service = fresh_service()
        handler = RequestHandler(service)
        request = _request(
            BUDGETED, mode="progressive", seed=4, deadline_ms=1e-6
        )
        decision, _ = handler.admit(request)
        payload = handler.execute(request, decision)
        handler.release(decision)
        assert payload["status"] == "deadline"
        assert (
            _histogram_count(
                service, "repro_serve_request_seconds", outcome="deadline"
            )
            == 1
        )

    def test_deadline_counts_from_arrival(self):
        """Time spent queued before the engine picks a request up is
        inside its deadline: a warm statement that arrived a second ago
        with a 500 ms deadline runs no rung."""
        service = fresh_service()
        handler = RequestHandler(service)
        warm = _request(BUDGETED, mode="progressive", seed=4)
        decision, _ = handler.admit(warm)
        assert handler.execute(warm, decision)["status"] == "ok"
        handler.release(decision)
        request = _request(
            BUDGETED, rid=2, mode="progressive", seed=4, deadline_ms=500
        )
        decision, _ = handler.admit(request)
        payload = handler.execute(
            request, decision, queued_at=time.monotonic() - 1.0
        )
        handler.release(decision)
        assert payload["status"] == "deadline"
        assert payload["frames"] == 0


class TestAdmissionWiring:
    def test_reject_releases_nothing_and_answers(self):
        service = fresh_service()
        controller = AdmissionController(capacity=100, queue_limit=0)
        handler = RequestHandler(service, admission=controller)
        decision, err = handler.admit(_request(PLAIN))
        assert err is not None
        assert err["code"] == "rejected"
        assert not decision.admitted
        assert controller.queued == 0

    def test_degraded_request_flagged_in_payload(self):
        service = fresh_service()
        controller = AdmissionController(capacity=1, queue_limit=100)
        handler = RequestHandler(service, admission=controller)
        first, _ = handler.admit(_request(PLAIN))
        handler.release(first)
        request = _request(PLAIN, rid=2)
        decision, err = handler.admit(request)
        assert err is None and decision.action == "degrade"
        payload = handler.execute(request, decision)
        handler.release(decision)
        assert payload["degraded"]["rate"] < 1.0
        assert controller.queued == 0

    def test_admission_counter_recorded(self):
        service = fresh_service()
        handler = RequestHandler(
            service,
            admission=AdmissionController(capacity=100, queue_limit=10),
        )
        decision, _ = handler.admit(_request(PLAIN))
        handler.release(decision)
        snap = service.metrics.snapshot()
        counts = {
            dict(labels)["action"]: value
            for (name, labels), value in snap.items()
            if name == "repro_serve_admission_total"
        }
        assert counts.get("admit") == 1


class TestTextLoop:
    """The stdin loop: each statement is an admit / execute / release
    request, each ``\\`` command an immediate one."""

    def test_statement_lines(self, shared_service):
        lines: list[str] = []
        served = serve_statements(shared_service, [PLAIN], out=lines.append)
        assert served == 1
        assert lines[0].startswith("-- [")
        assert "avg_qty" in lines[1]

    def test_error_lines(self, shared_service):
        lines: list[str] = []
        served = serve_statements(
            shared_service, ["SELECT oops"], out=lines.append
        )
        assert served == 0
        assert lines[0].startswith("-- [error]")
        assert lines[1].startswith("error:")

    def test_command_lines(self, shared_service):
        lines: list[str] = []
        serve_statements(
            shared_service, ["\\stats", "\\metrics", "\\bogus"],
            out=lines.append,
        )
        assert lines[0].startswith("-- served")
        assert "repro_service" in lines[1]
        assert "unknown command" in lines[2]

    def test_unexpected_exception_prints_an_error_and_the_stream_goes_on(
        self, monkeypatch
    ):
        service = fresh_service()
        original = service.db.sql

        def explode(statement, **kwargs):
            if "boom" in statement:
                raise ValueError("not an engine error")
            return original(statement, **kwargs)

        monkeypatch.setattr(service.db, "sql", explode)
        lines: list[str] = []
        served = serve_statements(
            service, ["SELECT boom", PLAIN], out=lines.append
        )
        assert served == 1
        assert lines[:2] == [
            "-- [error] SELECT boom",
            "error: ValueError: not an engine error",
        ]
        assert lines[2].startswith("-- [fresh, ")
        assert "avg_qty" in lines[3]

"""One request brain for every front-end (TCP, HTTP, stdin).

The handler owns the request lifecycle the transports share: admission
(admit / degrade / reject via the :mod:`repro.serve.admission`
controller), execution against the :class:`~repro.service.QueryService`
(plain queries through the result-cache path, progressive
queries through :func:`~repro.serve.progressive.run_progressive`),
error isolation, and the serving metrics.  Transports only move bytes:
the asyncio server's TCP and HTTP listeners and the line-oriented
``repro serve`` stdin loop (:func:`~repro.service.serve_statements`)
all call :meth:`immediate` / :meth:`admit` / :meth:`execute` /
:meth:`release` and print or encode the payload they get back — so
``stats``, ``metrics``, tagging and per-statement error isolation have
exactly one implementation.

All serving metrics land in the service's own registry
(``service.metrics``), so ``\\metrics`` and HTTP ``/metrics`` expose
them with no extra plumbing:

* ``repro_serve_queue_wait_seconds`` — admission-to-engine latency;
* ``repro_serve_request_seconds{outcome=ok|error|cancelled|deadline}``;
* ``repro_serve_ttfe_seconds`` / ``repro_serve_ttb_seconds`` — time to
  first estimate vs time to budget (progressive);
* ``repro_serve_frames_total``, ``repro_serve_admission_total{action=…}``.
"""

from __future__ import annotations

import logging
import time
from typing import TYPE_CHECKING, Callable

from repro.errors import ReproError
from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.progressive import ProgressiveFrame, run_progressive
from repro.serve.protocol import Request, error_payload, frame_payload
from repro.service import render_result

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service import QueryService

#: Deadline applied when the request names none (progressive only).
DEFAULT_DEADLINE_MS = 30_000.0

_LOG = logging.getLogger(__name__)


class RequestHandler:
    """Transport-independent execution of decoded requests."""

    def __init__(
        self,
        service: "QueryService",
        *,
        admission: AdmissionController | None = None,
        default_deadline_ms: float = DEFAULT_DEADLINE_MS,
    ) -> None:
        self.service = service
        self.admission = admission
        self.default_deadline_ms = float(default_deadline_ms)
        self.metrics = service.metrics

    # -- admission ---------------------------------------------------------

    def admit(self, request: Request) -> tuple[AdmissionDecision, dict | None]:
        """Gate one query request; returns (decision, error-or-None).

        The error payload is the terminal response of a rejected
        request; an admitted/degraded request must later be balanced by
        :meth:`release` exactly once.
        """
        statement = request.statement or ""
        if self.admission is None:
            decision = AdmissionDecision("admit", statement)
        else:
            decision = self.admission.decide(statement)
        self.metrics.counter(
            "repro_serve_admission_total", action=decision.action
        ).inc()
        if decision.action == "reject":
            return decision, error_payload(
                request.id,
                f"request shed: {decision.reason}",
                code="rejected",
            )
        return decision, None

    def release(self, decision: AdmissionDecision) -> None:
        """Return an admitted request's queue slot to the controller."""
        if self.admission is not None and decision.admitted:
            self.admission.release()

    # -- immediate (no engine needed) --------------------------------------

    def immediate(self, request: Request) -> dict | None:
        """Answer ops that need no engine work; ``None`` means execute."""
        if request.op == "ping":
            return {"id": request.id, "type": "result", "status": "ok",
                    "pong": True}
        if request.op == "stats":
            return {"id": request.id, "type": "result", "status": "ok",
                    "text": self.service.stats_line()}
        if request.op == "metrics":
            return {"id": request.id, "type": "result", "status": "ok",
                    "text": self.service.metrics_text().rstrip()}
        return None

    # -- execution (engine thread) -----------------------------------------

    def execute(
        self,
        request: Request,
        decision: AdmissionDecision,
        emit: Callable[[dict], None] | None = None,
        *,
        cancelled: Callable[[], bool] | None = None,
        session: str | None = None,  # ignored; goes with ROADMAP item 2(f)
        queued_at: float | None = None,
    ) -> dict:
        """Run one admitted query request to its terminal payload.

        Never raises: engine errors become ``type: "error"`` payloads so
        one bad statement cannot take down the engine or its connection —
        and so does any other exception (logged with its traceback,
        reported by type under ``code: "internal"``), because a request
        whose task dies without a terminal frame leaves its client
        waiting forever.
        ``emit`` receives progressive frame payloads as rungs land;
        ``cancelled`` is the cooperative abort poll (client went away).
        ``queued_at`` is the request's arrival, a :func:`time.monotonic`
        instant: a progressive deadline counts from it, so time spent
        queued behind other requests is inside the deadline.
        ``session`` is accepted and ignored (ROADMAP item 2(f)).
        """
        start = time.monotonic()
        if queued_at is not None:
            self.metrics.histogram(
                "repro_serve_queue_wait_seconds"
            ).observe(start - queued_at)
        try:
            if request.mode == "progressive":
                payload = self._execute_progressive(
                    request,
                    decision.statement,
                    emit,
                    cancelled,
                    start if queued_at is None else queued_at,
                )
            else:
                payload = self._execute_final(request, decision.statement)
        except ReproError as exc:
            self._observe(start, "error")
            return error_payload(request.id, str(exc))
        except Exception as exc:
            _LOG.exception("request %s failed", request.id)
            self._observe(start, "error")
            return error_payload(
                request.id, f"{type(exc).__name__}: {exc}", code="internal"
            )
        if decision.action == "degrade":
            payload["degraded"] = {
                "rate": decision.rate,
                "reason": decision.reason,
            }
        self._observe(start, payload["status"])
        return payload

    def _observe(self, start: float, outcome: str) -> None:
        self.metrics.histogram(
            "repro_serve_request_seconds", outcome=outcome
        ).observe(time.monotonic() - start)

    def _execute_final(self, request: Request, statement: str) -> dict:
        response = self.service.query(statement, seed=request.seed)
        tag = (
            "result-cache"
            if response.cached
            else (response.reuse.kind if response.reuse else "fresh")
        )
        return {
            "id": request.id,
            "type": "result",
            "status": "ok",
            "text": response.text,
            "values": response.values,
            "seed": response.seed,
            "tag": tag,
            "elapsed_ms": response.elapsed * 1e3,
        }

    def _execute_progressive(
        self,
        request: Request,
        statement: str,
        emit: Callable[[dict], None] | None,
        cancelled: Callable[[], bool] | None,
        arrived: float,
    ) -> dict:
        deadline_ms = (
            request.deadline_ms
            if request.deadline_ms is not None
            else self.default_deadline_ms
        )
        start = time.monotonic()
        first_at: list[float] = []

        def on_frame(frame: ProgressiveFrame) -> None:
            if not first_at:
                first_at.append(time.monotonic() - start)
                self.metrics.histogram(
                    "repro_serve_ttfe_seconds"
                ).observe(first_at[0])
            self.metrics.counter("repro_serve_frames_total").inc()
            if emit is not None:
                emit(frame_payload(request.id, frame))

        outcome = run_progressive(
            self.service.db,
            statement,
            seed=request.seed,
            budget_percent=request.budget_percent,
            confidence=request.confidence,
            emit=on_frame,
            cancelled=cancelled,
            deadline=arrived + deadline_ms / 1e3,
            note_execution=self.service.note_execution,
        )
        payload = {
            "id": request.id,
            "type": "result",
            "status": outcome.status,
            "seed": outcome.seed,
            "frames": len(outcome.frames),
            "elapsed_ms": outcome.elapsed * 1e3,
        }
        if outcome.frames:
            last = outcome.frames[-1]
            payload.update(
                alias=last.alias,
                estimate=last.estimate,
                ci_lo=last.ci_lo,
                ci_hi=last.ci_hi,
                rate=last.rate,
            )
        if outcome.status == "ok":
            assert outcome.optimized is not None
            self.metrics.histogram("repro_serve_ttb_seconds").observe(
                time.monotonic() - start
            )
            payload["met"] = outcome.optimized.met
            payload["values"] = {
                alias: float(value)
                for alias, value in outcome.optimized.result.values.items()
            }
            payload["text"] = render_result(
                outcome.optimized, self.service.level
            )
        return payload

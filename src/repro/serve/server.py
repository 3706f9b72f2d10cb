"""The asyncio serving tier: NDJSON over TCP plus a minimal HTTP surface.

One :class:`ReproServer` binds two listeners over a shared
:class:`~repro.serve.handler.RequestHandler`:

* **TCP** — the full protocol (:mod:`repro.serve.protocol`): pipelined
  requests per connection, streamed progressive frames, in-band
  ``cancel``;
* **HTTP** — ``GET /healthz``, ``GET /metrics`` (Prometheus text), and
  ``POST /query`` (one JSON request in, one JSON response out, with
  progressive frames collected into the response body), enough for a
  scraper and curl without a web framework.

Execution runs on a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
— the engine is numpy-heavy, so worker threads release the GIL while
the event loop keeps accepting, shedding, and streaming.  Progressive
frames cross from worker thread to socket via
``loop.call_soon_threadsafe``, which serializes writes per connection
in arrival order.  Per-request deadlines and client disconnects cancel
cooperatively: a :class:`threading.Event` per in-flight request is
polled by the escalation ladder *between* engine executions, so a
cancelled ladder stops cleanly, releases its queue slot, and records a
``cancelled`` outcome.

``drain()`` is the graceful shutdown: stop accepting, let in-flight
requests finish (cancelling whatever outlives the timeout), then shut
the pool down.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ProtocolError
from repro.serve.admission import DEFAULT_MIN_RATE, AdmissionController
from repro.serve.handler import DEFAULT_DEADLINE_MS, RequestHandler
from repro.serve.protocol import Request, decode_request, encode, error_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service import QueryService


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one server instance (``port=0`` binds ephemerally)."""

    host: str = "127.0.0.1"
    port: int = 7799
    http_port: int = 0
    workers: int = 4
    capacity: float = 32.0
    queue_limit: int = 64
    min_rate: float = DEFAULT_MIN_RATE
    default_deadline_ms: float = DEFAULT_DEADLINE_MS
    drain_timeout: float = 10.0


class ReproServer:
    """The serving tier over one :class:`~repro.service.QueryService`."""

    def __init__(
        self, service: "QueryService", config: ServeConfig | None = None
    ) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self.service = service
        self.config = config or ServeConfig()
        self.admission = AdmissionController(
            self.config.capacity,
            self.config.queue_limit,
            min_rate=self.config.min_rate,
        )
        self.handler = RequestHandler(
            service,
            admission=self.admission,
            default_deadline_ms=self.config.default_deadline_ms,
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, self.config.workers),
            thread_name_prefix="repro-serve",
        )
        self._tcp_server: asyncio.AbstractServer | None = None
        self._http_server: asyncio.AbstractServer | None = None
        self._request_tasks: set[asyncio.Task] = set()
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._next_conn = 0
        self._draining = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._tcp_server = await asyncio.start_server(
            self._handle_tcp, self.config.host, self.config.port
        )
        self._http_server = await asyncio.start_server(
            self._handle_http, self.config.host, self.config.http_port
        )

    @staticmethod
    def _bound_port(server: asyncio.AbstractServer | None) -> int:
        assert server is not None and server.sockets
        return server.sockets[0].getsockname()[1]

    @property
    def tcp_port(self) -> int:
        return self._bound_port(self._tcp_server)

    @property
    def http_port(self) -> int:
        return self._bound_port(self._http_server)

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish or cancel in-flight.

        In-flight requests get ``drain_timeout`` to complete; whatever
        outlives it is cancelled.  Live connections are then closed
        (their handlers see EOF and exit), so the call returns with no
        tasks left behind regardless of idle clients.
        """
        self._draining = True
        for server in (self._tcp_server, self._http_server):
            if server is not None:
                server.close()
        tasks = [t for t in self._request_tasks if not t.done()]
        if tasks:
            _, pending = await asyncio.wait(
                tasks, timeout=self.config.drain_timeout
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        for task, writer in list(self._connections.items()):
            if not writer.is_closing():
                writer.close()
        conns = [t for t in self._connections if not t.done()]
        if conns:
            _, pending = await asyncio.wait(conns, timeout=1.0)
            for task in pending:
                task.cancel()
        self._pool.shutdown(wait=True)
        # Never serves again; the event loop refers to it in cycles, so
        # drop the service (and database) instead of waiting for the GC.
        self.service = self.handler.service = None

    async def serve_forever(self) -> None:
        assert self._tcp_server is not None
        async with self._tcp_server:
            await self._tcp_server.serve_forever()

    # -- shared plumbing ---------------------------------------------------

    def _write_json(self, writer: asyncio.StreamWriter, payload: dict) -> None:
        if not writer.is_closing():
            writer.write(encode(payload))

    def _track(self, task: asyncio.Task) -> None:
        self._request_tasks.add(task)
        task.add_done_callback(self._request_tasks.discard)

    async def _run_request(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        inflight: dict[int, threading.Event],
        session: str,
    ) -> None:
        """One admitted query request, admission to terminal payload."""
        decision, rejected = self.handler.admit(request)
        if rejected is not None:
            self._write_json(writer, rejected)
            return
        cancel = threading.Event()
        inflight[request.id] = cancel
        loop = asyncio.get_running_loop()
        queued_at = time.perf_counter()

        def emit(payload: dict) -> None:
            loop.call_soon_threadsafe(self._write_json, writer, payload)

        try:
            payload = await loop.run_in_executor(
                self._pool,
                lambda: self.handler.execute(
                    request,
                    decision,
                    emit,
                    cancelled=cancel.is_set,
                    session=session,
                    queued_at=queued_at,
                ),
            )
        finally:
            self.handler.release(decision)
            inflight.pop(request.id, None)
        self._write_json(writer, payload)
        try:
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass

    # -- TCP ---------------------------------------------------------------

    async def _handle_tcp(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._next_conn += 1
        session = f"tcp-{self._next_conn}"
        me = asyncio.current_task()
        if me is not None:
            self._connections[me] = writer
        inflight: dict[int, threading.Event] = {}
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode_request(line)
                except ProtocolError as exc:
                    # Answer in-stream and keep serving the connection:
                    # one malformed frame must not poison the rest.
                    rid = self._best_effort_id(line)
                    self._write_json(
                        writer, error_payload(rid, str(exc), exc.code)
                    )
                    continue
                if request.op == "cancel":
                    event = inflight.get(request.target or -1)
                    if event is not None:
                        event.set()
                    self._write_json(
                        writer,
                        {"id": request.id, "type": "result",
                         "status": "ok", "cancelled": request.target},
                    )
                    continue
                answered = self.handler.immediate(request)
                if answered is not None:
                    self._write_json(writer, answered)
                    continue
                task = asyncio.ensure_future(
                    self._run_request(request, writer, inflight, session)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                self._track(task)
        finally:
            # Disconnect (or drain): abandon this connection's ladders.
            for event in inflight.values():
                event.set()
            if tasks:
                await asyncio.wait(list(tasks))
            writer.close()
            if me is not None:
                self._connections.pop(me, None)

    @staticmethod
    def _best_effort_id(line: bytes) -> int:
        try:
            raw = json.loads(line)
            rid = raw.get("id") if isinstance(raw, dict) else None
            return rid if isinstance(rid, int) else -1
        except (json.JSONDecodeError, UnicodeDecodeError, AttributeError):
            return -1

    # -- HTTP --------------------------------------------------------------

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, body, content_type = await self._http_route(reader)
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        writer.write(
            (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
            + body
        )
        try:
            await writer.drain()
        except ConnectionError:
            pass
        writer.close()

    async def _http_route(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, bytes, str]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            return "400 Bad Request", b"bad request\n", "text/plain"
        method, path = parts[0], parts[1]
        length = 0
        while True:
            header = (await reader.readline()).decode("latin-1").strip()
            if not header:
                break
            name, _, value = header.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip() or 0)
        if method == "GET" and path == "/healthz":
            status = "ok" if not self._draining else "draining"
            return "200 OK", (status + "\n").encode(), "text/plain"
        if method == "GET" and path == "/metrics":
            text = self.service.metrics_text()
            return "200 OK", text.encode("utf-8"), "text/plain; version=0.0.4"
        if method == "POST" and path == "/query":
            body = await reader.readexactly(length) if length else b"{}"
            return await self._http_query(body)
        return "404 Not Found", b"not found\n", "text/plain"

    async def _http_query(self, body: bytes) -> tuple[str, bytes, str]:
        """One-shot query over HTTP; frames are collected, not streamed."""
        try:
            raw = json.loads(body)
            if isinstance(raw, dict):
                raw.setdefault("id", 0)
                raw.setdefault("op", "query")
            request = decode_request(json.dumps(raw))
        except (ProtocolError, json.JSONDecodeError) as exc:
            payload = error_payload(-1, str(exc), "bad-request")
            return "400 Bad Request", _json_bytes(payload), "application/json"
        answered = self.handler.immediate(request)
        if answered is not None:
            return "200 OK", _json_bytes(answered), "application/json"
        decision, rejected = self.handler.admit(request)
        if rejected is not None:
            return (
                "503 Service Unavailable",
                _json_bytes(rejected),
                "application/json",
            )
        loop = asyncio.get_running_loop()
        frames: list[dict] = []
        queued_at = time.perf_counter()
        task = loop.run_in_executor(
            self._pool,
            lambda: self.handler.execute(
                request,
                decision,
                frames.append,
                session="http",
                queued_at=queued_at,
            ),
        )
        try:
            payload = await task
        finally:
            self.handler.release(decision)
        if frames:
            payload = dict(payload, frame_stream=frames)
        status = "200 OK" if payload.get("type") == "result" else "400 Bad Request"
        return status, _json_bytes(payload), "application/json"


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


async def start_server(
    service: "QueryService", config: ServeConfig | None = None
) -> ReproServer:
    """Create, bind, and return a running server (caller drains it)."""
    server = ReproServer(service, config)
    await server.start()
    return server

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

Both listeners run a query through one coroutine,
:meth:`ReproServer._serve`: admit, execute on the engine thread,
release in ``finally``.  TCP writes the payload it returns; HTTP
answers a ``rejected`` one with 503.  Every HTTP request gets a status
line: one whose headers cannot be read (a ``Content-Length`` that is
not a non-negative number) gets 400, and one the server fails on gets
500 with an ``internal`` error body.

Every admitted request executes on **one engine thread**, in arrival
order: the event loop keeps accepting, shedding, answering pings and
streaming frames while the engine works, and load is shed as *data*
(the admission controller degrades a request's sampling rate), not
spread over more threads.  One thread makes every answer reproducible
— a repeat queued behind its first execution is a result-cache hit,
and which stored synopsis a request thins never depends on timing.
Progressive frames cross from the engine thread to the socket via
``loop.call_soon_threadsafe``, which serializes writes per connection
in arrival order.  Per-request deadlines, ``cancel`` requests and
client disconnects stop a progressive ladder cooperatively, *between*
engine executions, so it stops cleanly, releases its queue slot, and
records its outcome.  A deadline counts from the request's arrival,
so it bounds the time spent queued behind other requests too.  A
TCP request's cancel :class:`threading.Event` is registered when its
line is read, so a ``cancel`` read in the same chunk finds it.

``drain()`` is the graceful shutdown: stop accepting, let in-flight
requests finish (cancelling whatever outlives
:data:`DRAIN_TIMEOUT_S`), then stop the engine thread.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import ProtocolError
from repro.serve.admission import AdmissionController
from repro.serve.handler import DEFAULT_DEADLINE_MS, RequestHandler
from repro.serve.protocol import Request, decode_request, encode, error_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service import QueryService

_LOG = logging.getLogger(__name__)

#: Seconds ``drain()`` gives in-flight requests before cancelling them.
DRAIN_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one server instance (``port=0`` binds ephemerally)."""

    host: str = "127.0.0.1"
    port: int = 7799
    http_port: int = 0
    workers: int | None = None  # ignored; goes with ROADMAP item 2(f)
    capacity: float = 32.0
    queue_limit: int = 64
    default_deadline_ms: float = DEFAULT_DEADLINE_MS


class ReproServer:
    """The serving tier over one :class:`~repro.service.QueryService`."""

    def __init__(
        self, service: "QueryService", config: ServeConfig | None = None
    ) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self.service = service
        self.config = config or ServeConfig()
        self.admission = AdmissionController(
            self.config.capacity, self.config.queue_limit
        )
        self.handler = RequestHandler(
            service,
            admission=self.admission,
            default_deadline_ms=self.config.default_deadline_ms,
        )
        # The one engine thread: requests run on it in arrival order.
        self._engine = ThreadPoolExecutor(1, "repro-engine")
        self._tcp_server: asyncio.AbstractServer | None = None
        self._http_server: asyncio.AbstractServer | None = None
        self._request_tasks: set[asyncio.Task] = set()
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
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

        In-flight requests get :data:`DRAIN_TIMEOUT_S` seconds to
        complete; whatever outlives them is cancelled.  Live connections
        are then closed (their handlers see EOF and exit), so the call
        returns with no tasks left behind regardless of idle clients.
        """
        self._draining = True
        for server in (self._tcp_server, self._http_server):
            if server is not None:
                server.close()
        tasks = [t for t in self._request_tasks if not t.done()]
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
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
        self._engine.shutdown(wait=True)
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

    async def _serve(
        self,
        request: Request,
        emit: Callable[[dict], None],
        cancelled: Callable[[], bool] | None = None,
    ) -> dict:
        """One query request's lifecycle, TCP and HTTP alike: admit, run
        on the engine thread, release; returns the terminal payload (a
        ``rejected`` error if admission shed it)."""
        queued_at = time.monotonic()
        decision, rejected = self.handler.admit(request)
        if rejected is not None:
            return rejected
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._engine,
                lambda: self.handler.execute(
                    request,
                    decision,
                    emit,
                    cancelled=cancelled,
                    queued_at=queued_at,
                ),
            )
        finally:
            self.handler.release(decision)

    # -- TCP ---------------------------------------------------------------

    async def _handle_tcp(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        me = asyncio.current_task()
        if me is not None:
            self._connections[me] = writer
        inflight: dict[int, threading.Event] = {}
        tasks: set[asyncio.Task] = set()
        loop = asyncio.get_running_loop()

        def emit(payload: dict) -> None:
            loop.call_soon_threadsafe(self._write_json, writer, payload)

        async def answer(request: Request, cancel: threading.Event) -> None:
            try:
                payload = await self._serve(
                    request, emit, cancelled=cancel.is_set
                )
            finally:
                inflight.pop(request.id, None)
            self._write_json(writer, payload)
            try:
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass

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
                # Registered before the task exists, so a cancel read
                # in the same chunk as its query finds it.
                cancel = inflight[request.id] = threading.Event()
                task = asyncio.ensure_future(answer(request, cancel))
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
        except Exception as exc:
            # A request the server fails on still gets a status line:
            # closing without one leaves the client reading nothing.
            _LOG.exception("HTTP request failed")
            status = "500 Internal Server Error"
            payload = error_payload(
                -1, f"{type(exc).__name__}: {exc}", code="internal"
            )
            body, content_type = encode(payload), "application/json"
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
                try:
                    length = int(value.strip() or 0)
                except ValueError:
                    length = -1
        if length < 0:
            return "400 Bad Request", b"bad Content-Length\n", "text/plain"
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
            return "400 Bad Request", encode(payload), "application/json"
        answered = self.handler.immediate(request)
        if answered is not None:
            return "200 OK", encode(answered), "application/json"
        frames: list[dict] = []
        payload = await self._serve(request, frames.append)
        if payload.get("code") == "rejected":
            status = "503 Service Unavailable"
        elif payload["type"] == "result":
            status = "200 OK"
        else:
            status = "400 Bad Request"
        if frames:
            payload = dict(payload, frame_stream=frames)
        return status, encode(payload), "application/json"


async def start_server(
    service: "QueryService", config: ServeConfig | None = None
) -> ReproServer:
    """Create, bind, and return a running server (caller drains it)."""
    server = ReproServer(service, config)
    await server.start()
    return server

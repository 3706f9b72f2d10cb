"""End-to-end asyncio server tests: one engine thread, faults, drain, HTTP.

All servers bind ephemeral ports (``port=0``); every test drains its
server, so nothing leaks across tests.  pytest-asyncio is not a
dependency — each test drives its own ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import threading
import weakref

import pytest

from serveutil import BUDGETED, PLAIN, fresh_service

from repro.data.tpch import tpch_database
from repro.errors import ServeError
from repro.serve import ServeClient, ServeConfig, start_server
from repro.service import QueryService


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def service():
    return fresh_service()


def make_config(**overrides) -> ServeConfig:
    defaults = dict(port=0, http_port=0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


async def raw_connection(port):
    return await asyncio.open_connection("127.0.0.1", port)


async def http(port, request: bytes) -> tuple[str, bytes]:
    """One raw HTTP exchange: the status line and the body."""
    reader, writer = await raw_connection(port)
    writer.write(request)
    await writer.drain()
    data = await reader.read()
    writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    return (head.decode().splitlines() or [""])[0], body


def http_query(payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return (
        b"POST /query HTTP/1.1\r\nHost: x\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body
    )


class TestProtocolOverTcp:
    def test_ping_stats_metrics(self, service):
        async def scenario():
            server = await start_server(service, make_config())
            client = await ServeClient.connect("127.0.0.1", server.tcp_port)
            try:
                assert await client.ping()
                assert "served" in await client.stats()
                assert "repro_serve" in await client.metrics() or (
                    "repro_service" in await client.metrics()
                )
            finally:
                await client.close()
                await server.drain()

        run(scenario())

    def test_malformed_line_answered_in_stream(self, service):
        async def scenario():
            server = await start_server(service, make_config())
            reader, writer = await raw_connection(server.tcp_port)
            try:
                writer.write(b"garbage that is not json\n")
                await writer.drain()
                error = json.loads(await reader.readline())
                assert error["type"] == "error"
                assert error["code"] == "bad-request"
                assert error["id"] == -1
                # The connection survives: a real request still works.
                writer.write(b'{"id": 5, "op": "ping"}\n')
                await writer.drain()
                pong = json.loads(await reader.readline())
                assert pong == {
                    "id": 5, "type": "result", "status": "ok",
                    "pong": True,
                }
            finally:
                writer.close()
                await server.drain()

        run(scenario())

    def test_engine_error_isolated_per_request(self, service):
        async def scenario():
            server = await start_server(service, make_config())
            client = await ServeClient.connect("127.0.0.1", server.tcp_port)
            try:
                with pytest.raises(ServeError):
                    await client.query("SELECT FROM nowhere")
                result = await client.query(PLAIN, seed=1)
                assert result["status"] == "ok"
            finally:
                await client.close()
                await server.drain()

        run(scenario())


class TestProgressiveOverTcp:
    def test_frames_stream_and_converge(self, service):
        async def scenario():
            server = await start_server(service, make_config())
            client = await ServeClient.connect("127.0.0.1", server.tcp_port)
            frames: list[dict] = []
            try:
                result = await client.query(
                    BUDGETED,
                    seed=11,
                    progressive=True,
                    on_frame=frames.append,
                )
            finally:
                await client.close()
                await server.drain()
            assert result["status"] == "ok"
            assert result["met"] is True
            assert len(frames) == result["frames"] >= 2
            last = frames[-1]
            assert (
                result["estimate"],
                result["ci_lo"],
                result["ci_hi"],
            ) == (last["estimate"], last["ci_lo"], last["ci_hi"])
            # ... and it is the interval the answer's text prints.
            assert f"[{last['ci_lo']:.6g}, {last['ci_hi']:.6g}]" in (
                result["text"]
            )

        run(scenario())

    def test_cancel_mid_query_releases_and_records(self):
        service = fresh_service()

        async def scenario():
            server = await start_server(service, make_config())
            client = await ServeClient.connect("127.0.0.1", server.tcp_port)
            try:
                rid = await client.start_query(
                    BUDGETED, mode="progressive", seed=42,
                    deadline_ms=60_000,
                )
                await client.cancel(rid)
                terminal = await client.wait(rid)
                assert terminal["type"] == "result"
                assert terminal["status"] in ("cancelled", "ok")
            finally:
                await client.close()
                await server.drain()
            assert server.admission.queued == 0

        run(scenario())
        stats, store = service.snapshot_stats()
        assert store.lookups <= stats.queries

    def test_cancel_in_the_same_write_as_its_query(self):
        """The request's cancel event exists before its task runs, so a
        cancel read in the same chunk as its query finds it."""
        service = fresh_service()
        query = {
            "id": 1, "statement": BUDGETED, "mode": "progressive",
            "seed": 42, "deadline_ms": 60_000,
        }

        async def scenario():
            server = await start_server(service, make_config())
            reader, writer = await raw_connection(server.tcp_port)
            replies: dict[int, dict] = {}
            try:
                writer.write(
                    json.dumps(query).encode()
                    + b'\n{"id": 2, "op": "cancel", "target": 1}\n'
                )
                await writer.drain()
                while 1 not in replies:
                    reply = json.loads(await reader.readline())
                    if reply["type"] != "frame":
                        replies[reply["id"]] = reply
            finally:
                writer.close()
                await server.drain()
            assert server.admission.queued == 0
            return replies

        replies = run(asyncio.wait_for(scenario(), ANSWER_TIMEOUT_S))
        assert replies[2]["cancelled"] == 1
        assert replies[1]["type"] == "result"
        assert replies[1]["status"] == "cancelled"

    def test_disconnect_mid_query_cancels_ladder(self):
        service = fresh_service()

        async def scenario():
            server = await start_server(service, make_config())
            client = await ServeClient.connect("127.0.0.1", server.tcp_port)
            await client.start_query(
                BUDGETED, mode="progressive", seed=77, deadline_ms=60_000
            )
            await asyncio.sleep(0.02)
            await client.close()  # vanish mid-ladder
            await server.drain()
            assert server.admission.queued == 0

        run(scenario())
        stats, store = service.snapshot_stats()
        assert store.lookups <= stats.queries


class TestConcurrentMix:
    def test_eight_connection_mix_and_clean_drain(self):
        service = fresh_service()

        async def worker(port: int, index: int) -> list[dict]:
            results = []
            if index == 5:
                # The rude client: malformed bytes, then hang up.
                reader, writer = await raw_connection(port)
                writer.write(b"\x00\xffnot a frame\n")
                await writer.drain()
                await reader.readline()
                writer.close()
                return results
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                if index == 6:
                    # The impatient client: disconnect mid-query.
                    await client.start_query(
                        BUDGETED, mode="progressive", seed=index,
                        deadline_ms=60_000,
                    )
                    await asyncio.sleep(0.01)
                    return results
                if index % 2 == 0:
                    results.append(
                        await client.query(PLAIN, seed=index)
                    )
                results.append(
                    await client.query(
                        BUDGETED, seed=index, progressive=True
                    )
                )
            finally:
                await client.close()
            return results

        async def scenario():
            server = await start_server(
                service, make_config(capacity=1000)
            )
            port = server.tcp_port
            all_results = await asyncio.gather(
                *(worker(port, i) for i in range(8))
            )
            await server.drain()
            # Clean drain: no queue slots leaked, no tasks left.
            assert server.admission.queued == 0
            assert not server._request_tasks
            assert not server._connections
            flat = [r for results in all_results for r in results]
            assert flat, "the mix must have produced answers"
            assert all(r["status"] == "ok" for r in flat)
            # Determinism across connections: same seed, same answer.
            by_seed: dict[int, float] = {}
            for r in flat:
                if "estimate" in r:
                    prev = by_seed.setdefault(r["seed"], r["estimate"])
                    assert prev == r["estimate"]

        run(scenario())
        stats, store = service.snapshot_stats()
        assert store.lookups <= stats.queries

    def test_overload_sheds_but_serves(self):
        service = fresh_service()

        async def scenario():
            server = await start_server(
                service,
                make_config(capacity=2, queue_limit=4),
            )
            client = await ServeClient.connect("127.0.0.1", server.tcp_port)
            statuses = []
            try:
                for i in range(12):
                    try:
                        result = await client.query(PLAIN, seed=0)
                        statuses.append(result["status"])
                    except ServeError as exc:
                        statuses.append(str(exc))
            finally:
                await client.close()
                await server.drain()
            assert statuses.count("ok") >= 1
            decisions = server.admission.decisions
            assert decisions["degrade"] + decisions["reject"] > 0

        run(scenario())


class TestHttpSurface:
    def test_healthz_metrics_query_and_404(self, service):
        async def scenario():
            server = await start_server(service, make_config())
            port = server.http_port
            try:
                status, body = await http(
                    port, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                assert status == "HTTP/1.1 200 OK" and body == b"ok\n"

                status, body = await http(
                    port, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                assert status == "HTTP/1.1 200 OK"
                assert b"repro_service_queries_total" in body

                status, body = await http(
                    port,
                    http_query(
                        {"statement": BUDGETED, "mode": "progressive",
                         "seed": 7}
                    ),
                )
                assert status == "HTTP/1.1 200 OK"
                answer = json.loads(body)
                assert answer["status"] == "ok"
                assert len(answer["frame_stream"]) == answer["frames"]

                status, body = await http(
                    port,
                    b"POST /query HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 9\r\n\r\nnot json!",
                )
                assert status == "HTTP/1.1 400 Bad Request"

                status, _ = await http(
                    port, b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                assert status == "HTTP/1.1 404 Not Found"
            finally:
                await server.drain()

        run(scenario())

    def test_a_failed_answer_gets_500_and_the_server_keeps_serving(
        self, service
    ):
        """A final GROUP BY answer carries arrays the JSON encoder
        refuses; the client still gets a status line and an
        ``internal`` error, and the next request is served."""
        grouped = (
            "SELECT l_returnflag, SUM(l_quantity) AS q FROM lineitem "
            "TABLESAMPLE (10 PERCENT) GROUP BY l_returnflag"
        )

        async def scenario():
            server = await start_server(service, make_config())
            port = server.http_port
            try:
                status, body = await http(
                    port, http_query({"statement": grouped, "seed": 1})
                )
                assert status == "HTTP/1.1 500 Internal Server Error"
                answer = json.loads(body)
                assert answer["type"] == "error"
                assert answer["code"] == "internal"
                status, _ = await http(
                    port, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                assert status == "HTTP/1.1 200 OK"
            finally:
                await server.drain()

        run(scenario())

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_a_bad_content_length_gets_400(self, service, length):
        async def scenario():
            server = await start_server(service, make_config())
            try:
                status, body = await http(
                    server.http_port,
                    b"POST /query HTTP/1.1\r\nHost: x\r\n"
                    + f"Content-Length: {length}\r\n\r\n".encode()
                    + b"{}",
                )
                assert status == "HTTP/1.1 400 Bad Request"
                assert body == b"bad Content-Length\n"
            finally:
                await server.drain()

        run(scenario())

    def test_a_full_queue_gets_503(self, service):
        """With no queue room, admission sheds the query outright: the
        terminal payload is a ``rejected`` error, which HTTP maps to
        503."""

        async def scenario():
            server = await start_server(service, make_config(queue_limit=0))
            try:
                status, body = await http(
                    server.http_port, http_query({"statement": PLAIN})
                )
                assert status == "HTTP/1.1 503 Service Unavailable"
                answer = json.loads(body)
                assert answer["code"] == "rejected"
                assert "queue full" in answer["error"]
            finally:
                await server.drain()

        run(scenario())

    def test_healthz_reports_draining(self, service):
        async def scenario():
            server = await start_server(service, make_config())
            await server.drain()
            assert server._draining

        run(scenario())


#: A request that never gets its terminal frame fails the test at this
#: bound instead of hanging the suite.
ANSWER_TIMEOUT_S = 60.0


class TestUnexpectedExceptionsGetATerminalFrame:
    """``RequestHandler.execute`` never raises: an exception that is not
    a ``ReproError`` once killed the request task between the engine and
    the socket, and the client waited forever."""

    def test_error_frame_names_the_type_and_the_connection_keeps_serving(
        self, service, monkeypatch
    ):
        def explode(statement, *, seed=None):
            if "boom" in statement:
                raise ValueError("not an engine error")
            return original(statement, seed=seed)

        original = service.query
        monkeypatch.setattr(service, "query", explode)

        async def scenario():
            server = await start_server(service, make_config())
            reader, writer = await raw_connection(server.tcp_port)
            try:
                writer.write(
                    b'{"id": 1, "statement": "SELECT boom"}\n'
                    + json.dumps({"id": 2, "statement": PLAIN}).encode()
                    + b"\n"
                )
                await writer.drain()
                first = json.loads(await reader.readline())
                second = json.loads(await reader.readline())
            finally:
                writer.close()
                await server.drain()
            return first, second

        first, second = run(asyncio.wait_for(scenario(), ANSWER_TIMEOUT_S))
        assert first["id"] == 1 and first["type"] == "error"
        assert first["code"] == "internal"
        assert first["error"] == "ValueError: not an engine error"
        assert second["id"] == 2 and second["type"] == "result"


class TestDrainReleasesTheDatabase:
    def test_database_freed_without_the_cycle_collector(self):
        """The event loop's objects hold a drained server in cycles; the
        database behind it must not wait for a collection to be freed."""
        db = tpch_database(scale=0.01, seed=0)
        alive = weakref.ref(db)

        async def scenario(service):
            server = await start_server(service, make_config())
            client = await ServeClient.connect("127.0.0.1", server.tcp_port)
            try:
                assert (await client.query(PLAIN, seed=1))["status"] == "ok"
            finally:
                await client.close()
                await server.drain()

        gc.collect()
        gc.disable()
        try:
            run(scenario(QueryService(db)))
            del db
            assert alive() is None
        finally:
            gc.enable()


#: A pipelined burst: misses, thin and pushdown hits on whichever
#: synopsis the misses before them stored, and queued repeats.
BURST = [
    ("SELECT SUM(l_extendedprice) AS v FROM lineitem "
     "TABLESAMPLE (30 PERCENT) REPEATABLE (1)", 1),
    ("SELECT SUM(l_quantity) AS v FROM lineitem "
     "TABLESAMPLE (50 PERCENT) REPEATABLE (1)", 1),
    ("SELECT SUM(l_extendedprice) AS v FROM lineitem "
     "TABLESAMPLE (10 PERCENT) REPEATABLE (2)", 2),
    ("SELECT AVG(l_quantity) AS v FROM lineitem "
     "TABLESAMPLE (20 PERCENT) REPEATABLE (2) WHERE l_quantity > 25", 2),
    ("SELECT SUM(l_extendedprice) AS v FROM lineitem "
     "TABLESAMPLE (30 PERCENT) REPEATABLE (1)", 1),
    ("SELECT SUM(o_totalprice) AS v FROM orders "
     "TABLESAMPLE (25 PERCENT) REPEATABLE (3)", 3),
    ("SELECT SUM(l_tax) AS v, COUNT(*) AS n FROM lineitem "
     "TABLESAMPLE (20 PERCENT) REPEATABLE (1)", 4),
    ("SELECT SUM(l_extendedprice) AS v FROM lineitem "
     "TABLESAMPLE (10 PERCENT) REPEATABLE (2)", 2),
    (PLAIN, 5),
]


def record_sql_calls(service: QueryService, monkeypatch) -> list[tuple]:
    """Record (thread, statement, seed) of every engine execution."""
    calls: list[tuple] = []
    real_sql = service.db.sql

    def recording_sql(text, **kwargs):
        calls.append((threading.get_ident(), text, kwargs.get("seed")))
        return real_sql(text, **kwargs)

    monkeypatch.setattr(service.db, "sql", recording_sql)
    return calls


class TestOneEngineThread:
    def test_pipelined_burst_runs_in_order_on_one_thread(
        self, monkeypatch
    ):
        """On the default config every request of a pipelined burst
        executes on one engine thread (not the event loop's), in
        arrival order, and answers what a twin service queried
        serially in the same order answers, bit for bit."""
        service, twin = fresh_service(), fresh_service()
        served_calls = record_sql_calls(service, monkeypatch)
        twin_calls = record_sql_calls(twin, monkeypatch)

        async def scenario():
            server = await start_server(service, make_config())
            reader, writer = await raw_connection(server.tcp_port)
            try:
                writer.write(b"".join(
                    json.dumps(
                        {"id": i, "statement": text, "seed": seed}
                    ).encode() + b"\n"
                    for i, (text, seed) in enumerate(BURST)
                ))
                await writer.drain()
                answers = [
                    json.loads(await reader.readline()) for _ in BURST
                ]
            finally:
                writer.close()
                await server.drain()
            return answers

        answers = run(asyncio.wait_for(scenario(), ANSWER_TIMEOUT_S))
        loop_thread = threading.get_ident()
        assert [a["id"] for a in answers] == list(range(len(BURST)))
        assert all(a["status"] == "ok" for a in answers), answers
        assert not any("degraded" in answer for answer in answers)
        threads = {thread for thread, _, _ in served_calls}
        assert len(threads) == 1 and loop_thread not in threads
        serial = [twin.query(text, seed=seed) for text, seed in BURST]
        assert [call[1:] for call in served_calls] == [
            call[1:] for call in twin_calls
        ]
        for answer, response in zip(answers, serial):
            assert answer["text"] == response.text
            assert json.dumps(answer["values"]) == json.dumps(
                response.values
            )
            want_tag = (
                "result-cache" if response.cached
                else response.reuse.kind if response.reuse else "fresh"
            )
            assert answer["tag"] == want_tag
        # The queued repeats never reached the engine.
        assert answers[4]["tag"] == "result-cache"
        assert len(served_calls) == len(BURST) - 2

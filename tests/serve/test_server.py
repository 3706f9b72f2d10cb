"""End-to-end asyncio server tests: concurrency, faults, drain, HTTP.

All servers bind ephemeral ports (``port=0``); every test drains its
server, so nothing leaks across tests.  pytest-asyncio is not a
dependency — each test drives its own ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import gc
import json
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
    defaults = dict(port=0, http_port=0, workers=4)
    defaults.update(overrides)
    return ServeConfig(**defaults)


async def raw_connection(port):
    return await asyncio.open_connection("127.0.0.1", port)


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
            widths = [f["ci_hi"] - f["ci_lo"] for f in frames]
            assert all(
                b <= a + 1e-9 for a, b in zip(widths, widths[1:])
            )
            assert result["estimate"] == frames[-1]["estimate"]

        run(scenario())

    def test_cancel_mid_query_releases_and_records(self):
        service = fresh_service()

        async def scenario():
            server = await start_server(service, make_config(workers=2))
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

    def test_disconnect_mid_query_cancels_ladder(self):
        service = fresh_service()

        async def scenario():
            server = await start_server(service, make_config(workers=2))
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
                service, make_config(workers=4, capacity=1000)
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
                make_config(workers=2, capacity=2, queue_limit=4),
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
            assert server.admission.shed_rate() > 0.0

        run(scenario())


class TestHttpSurface:
    def test_healthz_metrics_query_and_404(self, service):
        async def scenario():
            server = await start_server(service, make_config())

            async def http(request: bytes) -> tuple[str, bytes]:
                reader, writer = await raw_connection(server.http_port)
                writer.write(request)
                await writer.drain()
                data = await reader.read()
                writer.close()
                head, _, body = data.partition(b"\r\n\r\n")
                return head.decode().splitlines()[0], body

            try:
                status, body = await http(
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                assert status == "HTTP/1.1 200 OK" and body == b"ok\n"

                status, body = await http(
                    b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                assert status == "HTTP/1.1 200 OK"
                assert b"repro_service_queries_total" in body

                payload = json.dumps(
                    {"statement": BUDGETED, "mode": "progressive",
                     "seed": 7}
                ).encode()
                status, body = await http(
                    b"POST /query HTTP/1.1\r\nHost: x\r\n"
                    + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                    + payload
                )
                assert status == "HTTP/1.1 200 OK"
                answer = json.loads(body)
                assert answer["status"] == "ok"
                assert len(answer["frame_stream"]) == answer["frames"]

                status, body = await http(
                    b"POST /query HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 9\r\n\r\nnot json!"
                )
                assert status == "HTTP/1.1 400 Bad Request"

                status, _ = await http(
                    b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                assert status == "HTTP/1.1 404 Not Found"
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
        def explode(statement, *, seed=None, session=None):
            if "boom" in statement:
                raise ValueError("not an engine error")
            return original(statement, seed=seed, session=session)

        original = service.query
        monkeypatch.setattr(service, "query", explode)

        async def scenario():
            server = await start_server(service, make_config(workers=1))
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

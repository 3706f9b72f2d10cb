"""Five-minute tour of the network serving tier.

Run with::

    PYTHONPATH=src python examples/progressive_client.py

Starts an in-process asyncio server on ephemeral ports, then shows the
protocol from a client's seat: progressive refinement (a converging
interval instead of a spinner, terminal answer bit-identical to the
non-progressive run), mid-query cancellation, accuracy shedding under
a burst past capacity, and the served metrics surface.
"""

from __future__ import annotations

import asyncio
import time

from repro.data.tpch import tpch_database
from repro.errors import ServeError
from repro.serve import ServeClient, ServeConfig, start_server
from repro.service import QueryService

BUDGETED = (
    "SELECT SUM(l_extendedprice) AS rev FROM lineitem "
    "TABLESAMPLE (5 PERCENT) WITHIN 1 % CONFIDENCE 0.95"
)
PLAIN = (
    "SELECT AVG(l_quantity) AS avg_qty FROM lineitem "
    "TABLESAMPLE (10 PERCENT)"
)


async def progressive_tour(service: QueryService, port: int) -> None:
    print("== progressive refinement ==")
    client = await ServeClient.connect("127.0.0.1", port)
    start = time.perf_counter()

    def show(frame: dict) -> None:
        width = frame["ci_hi"] - frame["ci_lo"]
        print(
            f"  frame {frame['sequence']} ({frame['stage']:7s} "
            f"rate {frame['rate']:.2f})  rev = {frame['estimate']:.4g} "
            f"± {width / 2:.3g}   [{(time.perf_counter() - start) * 1e3:.0f} ms]"
        )

    result = await client.query(
        BUDGETED, seed=7, progressive=True, on_frame=show
    )
    print(
        f"  final: {result['estimate']:.6g}, budget met: {result['met']} "
        f"({result['elapsed_ms']:.0f} ms)"
    )

    # The terminal answer is bit-identical to the one-shot run.
    reference = service.db.sql(BUDGETED, seed=7)
    assert result["estimate"] == reference.result.values["rev"]
    print("  bit-identical to the non-progressive run at the same seed")

    print("\n== cancellation ==")
    rid = await client.start_query(
        BUDGETED, mode="progressive", seed=99, deadline_ms=60_000
    )
    await client.cancel(rid)
    terminal = await client.wait(rid)
    print(f"  cancelled mid-ladder -> status {terminal['status']!r}")
    assert terminal["status"] == "cancelled"
    await client.close()


async def overload_tour(port: int) -> None:
    print("\n== accuracy shedding under a burst ==")

    async def one(i: int) -> str:
        client = await ServeClient.connect("127.0.0.1", port)
        try:
            result = await client.query(PLAIN, seed=i)
            if "degraded" in result:
                return f"degraded to {result['degraded']['rate']:.0%}"
            return "served at full rate"
        except ServeError as exc:
            return f"rejected ({exc})"
        finally:
            await client.close()

    outcomes = await asyncio.gather(*(one(i) for i in range(12)))
    for outcome in sorted(set(outcomes)):
        print(f"  {outcomes.count(outcome):2d}x {outcome}")


async def main() -> None:
    db = tpch_database(scale=0.5, seed=42)
    db.attach_catalog()
    service = QueryService(db)

    server = await start_server(
        service,
        ServeConfig(port=0, http_port=0, capacity=4.0, queue_limit=6),
    )
    print(f"server on tcp:{server.tcp_port} http:{server.http_port}\n")
    try:
        await progressive_tour(service, server.tcp_port)
        await overload_tour(server.tcp_port)
        print("\n== served stats ==")
        print("  " + service.stats_line())
    finally:
        await server.drain()


if __name__ == "__main__":
    asyncio.run(main())

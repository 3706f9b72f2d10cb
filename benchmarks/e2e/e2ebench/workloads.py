"""The four workloads: set-up, one round, tear-down.

Every workload drives the program from outside through public calls
only — ``Database.sql`` for the ad hoc pair, one ``ServeClient`` TCP
connection to an in-process ``ReproServer`` for the served pair.  The
load is a closed loop with one client: the next request leaves when the
previous answer has arrived.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro.data.tpch import generate_tpch, tpch_database
from repro.relational.database import Database
from repro.serve import ReproServer, ServeClient, ServeConfig
from repro.service import QueryService

from . import streams
from .oracle import Answer, answer_of, answer_of_payload
from .streams import Request

DATA_SEED = 42
BLOCK_ROWS = 65_536
PERSISTED = ("lineitem", "orders", "customer")


#: One worker thread, and admission out of the way: with the default
#: capacity of 32 requests a second the server would degrade statements
#: depending on arrival timing, and runs would not execute the same work.
SERVE_CONFIG = ServeConfig(
    port=0, http_port=0, workers=1, capacity=1e9, queue_limit=1024
)


def busy_threads() -> int:
    """``min(2, nproc)``: the most threads any workload keeps busy."""
    return min(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class Sizing:
    """How big a workload runs.

    ``round_s`` is what one round takes on the reference box; the
    number of timed rounds is ``--seconds`` divided by it, so a given
    ``--seconds`` always does the same work (counts and peak memory
    repeat exactly) and measures for about that long.  ``shrink``
    divides the per-class request counts, ``writes`` is the number of
    ``refresh_table`` calls per ``served_churn`` round, and a served
    request with no terminal frame after ``request_timeout_s`` has failed.
    """

    scale: float
    round_s: float
    shrink: int = 1
    writes: int = 10
    request_timeout_s: float = 1.0

    def rounds(self, seconds: float) -> int:
        return max(2, round(seconds / self.round_s))


FULL = {
    "adhoc_inram": Sizing(scale=5.0, round_s=1.7),
    "adhoc_mmap": Sizing(scale=4.0, round_s=2.0),
    "served_reuse": Sizing(scale=10.0, round_s=2.0),
    "served_churn": Sizing(scale=10.0, round_s=1.6, writes=6),
}


@dataclass
class Outcome:
    """What one request came to."""

    request: Request
    latency_s: float
    cpu_s: float
    answer: Answer = field(default_factory=dict)
    error: str | None = None
    first_s: float | None = None
    frames: int = 0
    rows: int = 0
    tag: str = ""
    values: dict | None = None


@dataclass
class RoundResult:
    """One round: per-request outcomes, wall and CPU, exact-repeat counts."""

    outcomes: list[Outcome]
    wall_s: float
    cpu_s: float
    counts: dict[str, int]
    write_s: list[float] = field(default_factory=list)


def perturbed_prices(table, rng: np.random.Generator):
    """``table`` with a fresh 1 % of ``l_extendedprice`` changed.

    Update-shaped (row positions stable, untouched columns shared), the
    form ``Database.update_table`` asks for.
    """
    price = table.column("l_extendedprice").copy()
    rows = rng.choice(table.n_rows, max(1, table.n_rows // 100), replace=False)
    price[rows] = np.round(price[rows] * rng.uniform(0.8, 1.2, rows.size), 2)
    return table.with_columns({"l_extendedprice": price})


def sample_rows_of(result) -> int:
    """Sample rows behind an engine result (keys, for a version diff)."""
    inner = getattr(result, "result", result)
    sample = getattr(inner, "sample", None)
    if sample is not None:
        return int(sample.n_rows)
    return int(getattr(inner, "n_matched", 0))


class AdhocWorkload:
    """``adhoc_inram`` / ``adhoc_mmap``: ``Database.sql(text, seed=i)``."""

    def __init__(self, name: str, seed: int, sizing: Sizing, out_dir: str):
        self.name = name
        self.seed = seed
        self.sizing = sizing
        self.mmap = name == "adhoc_mmap"
        # None selects the serial relational/executor; a count selects the
        # chunked pipeline on that many threads.
        self.workers = busy_threads() if self.mmap else None
        self.out_dir = out_dir
        self.data_dir: str | None = None
        self.db: Database | None = None
        self.requests: list[Request] = []

    def setup(self) -> None:
        self.teardown()
        db = tpch_database(self.sizing.scale, seed=DATA_SEED)
        if self.mmap:
            self.data_dir = tempfile.mkdtemp(prefix="mmap_", dir=self.out_dir)
            for name in PERSISTED:
                db.persist(
                    name, os.path.join(self.data_dir, name),
                    block_rows=BLOCK_ROWS,
                )
        else:
            # Version 1 exists so MINUS AT VERSION 1 has something to net.
            db.update_table(
                "lineitem",
                perturbed_prices(
                    db.table("lineitem"), np.random.default_rng(DATA_SEED)
                ),
            )
            db.cost_model()  # calibrated once, as a long-lived engine would be
        self.db = db
        self.requests = streams.adhoc_round(
            self.name, self.seed, db.table("orders").n_rows, self.sizing.shrink
        )

    def quiesce(self) -> None:
        """Nothing runs between requests on the ad hoc path."""

    def teardown(self) -> None:
        self.db = None
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None

    def warm_up(self) -> None:
        """A third of the (shuffled) round: every class, every table."""
        self.run_round(0, self.requests[: max(1, len(self.requests) // 3)])

    def run_round(self, index: int, requests: list[Request] | None = None) -> RoundResult:
        db, workers = self.db, self.workers
        requests = self.requests if requests is None else requests
        outcomes = []
        cpu0 = time.process_time()
        start = time.perf_counter()
        for request in requests:
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = db.sql(request.text, seed=request.seed, workers=workers)
            except Exception as exc:  # a raised request is a failed operation
                outcomes.append(
                    Outcome(request, time.perf_counter() - t0,
                            time.process_time() - c0, error=type(exc).__name__)
                )
                continue
            latency = time.perf_counter() - t0
            cpu = time.process_time() - c0
            outcomes.append(
                Outcome(request, latency, cpu, answer_of(result),
                        rows=sample_rows_of(result),
                        frames=len(getattr(result, "attempts", ())))
            )
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        counts = {
            "executor.sample_rows": sum(o.rows for o in outcomes),
            "optimizer.attempts": sum(o.frames for o in outcomes),
            "store.lookups": 0 if db.synopses is None else db.synopses.stats.lookups,
        }
        return RoundResult(outcomes, wall, cpu, counts)

    def oracle_db(self, state: int) -> Database:
        return self.db

    def state_of(self, round_index: int, request: Request) -> int:
        return 0


class ServedWorkload:
    """``served_reuse`` / ``served_churn``: one TCP client, in-process server.

    Client and server share one event loop; the server executes on its
    one worker thread, so at most two threads are ever busy.
    """

    def __init__(self, name: str, seed: int, sizing: Sizing, out_dir: str):
        self.name = name
        self.seed = seed
        self.sizing = sizing
        self.churn = name == "served_churn"
        self.loop: asyncio.AbstractEventLoop | None = None
        self.db: Database | None = None
        self.service: QueryService | None = None
        self.server: ReproServer | None = None
        self.client: ServeClient | None = None
        self._base: dict | None = None
        self._reset_streams()

    def _reset_streams(self) -> None:
        """Every set-up starts the same streams and the same writes."""
        self.states: list = []  # lineitem contents after 0, 1, 2, ... writes
        self._write_rng = np.random.default_rng(self.seed)
        self._used_constants: set = set()
        self._rounds: dict[int, list[Request]] = {}

    # -- lifecycle ---------------------------------------------------------

    def build_service(self) -> tuple[Database, QueryService]:
        """A fresh database + service over this set-up's tables.

        Also what a traced run builds its shadow from: the tables are
        generated once per set-up and shared (they are never mutated in
        place), catalogs and caches are per service.
        """
        if self._base is None:
            self._base = generate_tpch(self.sizing.scale, DATA_SEED)
        db = Database.from_tables(self._base, seed=DATA_SEED)
        service = QueryService(db)
        return db, service

    def setup(self) -> None:
        self.teardown()
        self._base = None  # set-up time includes generating the data
        self.loop = asyncio.new_event_loop()
        self.db, self.service = self.build_service()
        self._reset_streams()
        self.states.append(self.db.table("lineitem"))
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        self.server = ReproServer(self.service, SERVE_CONFIG)
        await self.server.start()
        self.client = await ServeClient.connect("127.0.0.1", self.server.tcp_port)
        for request in streams.family_statements():
            await self.client.query(request.text, seed=request.seed)
        if not self.churn:
            self.db.cost_model()  # budget requests find it calibrated

    def quiesce(self) -> None:
        """Close the client, drain the server, end its worker thread."""
        if self.loop is None:
            return
        self.loop.run_until_complete(self._stop())
        self.loop.close()
        self.loop = self.server = self.client = None

    def teardown(self) -> None:
        self.quiesce()
        self.db = self.service = None

    async def _stop(self) -> None:
        if self.client is not None:
            await self.client.close()
        if self.server is not None:
            await self.server.drain()

    # -- streams -----------------------------------------------------------

    def round_requests(self, index: int) -> list[Request]:
        """The stream of round ``index`` (rounds must be asked in order)."""
        if index not in self._rounds:
            if self.churn:
                self._rounds[index] = streams.churn_round(
                    self.seed, index, self.sizing.writes,
                    index * self.sizing.writes, self.sizing.shrink,
                )
            else:
                self._rounds[index] = streams.reuse_round(
                    self.seed, index, self._used_constants, self.sizing.shrink
                )
        return self._rounds[index]

    def next_state(self):
        """Generate the table contents of the next write."""
        self.states.append(perturbed_prices(self.states[-1], self._write_rng))
        return self.states[-1]

    # -- one round ---------------------------------------------------------

    def warm_up(self) -> None:
        """Round 0 in full: the catalog reaches its eviction steady state."""
        self.run_round(0)

    def run_round(self, index: int) -> RoundResult:
        return self.loop.run_until_complete(self._round(index))

    async def send(self, request: Request) -> Outcome:
        """One request over TCP, timed from send to terminal frame."""
        marks: list[float] = []
        frames: list[dict] = []

        def on_frame(frame: dict) -> None:
            if not marks:
                marks.append(time.perf_counter())
            frames.append(frame)

        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            async with asyncio.timeout(self.sizing.request_timeout_s):
                payload = await self.client.query(
                    request.text, seed=request.seed,
                    progressive=request.progressive,
                    on_frame=on_frame if request.progressive else None,
                )
        except TimeoutError:
            return Outcome(request, time.perf_counter() - t0,
                           time.process_time() - c0, error="timeout")
        except Exception as exc:  # error payloads raise ServeError
            return Outcome(request, time.perf_counter() - t0,
                           time.process_time() - c0, error=type(exc).__name__)
        latency = time.perf_counter() - t0
        cpu = time.process_time() - c0
        error = None
        if payload.get("status") != "ok":
            error = f"status-{payload.get('status')}"
        elif request.progressive and not payload.get("met"):
            error = "budget-missed"
        return Outcome(
            request, latency, cpu, answer_of_payload(payload), error,
            first_s=marks[0] - t0 if marks else None,
            frames=len(frames), tag=payload.get("tag", "progressive"),
            values=payload.get("values"),
        )

    async def _round(self, index: int) -> RoundResult:
        requests = self.round_requests(index)
        # Table contents of this round's writes are generated before the
        # clock starts: they are the harness's input, not the program's work.
        writes = (
            [self.next_state() for _ in range(self.sizing.writes)]
            if self.churn else []
        )
        before = self.snapshot_counts()
        outcomes, write_s = [], []
        segment = -1
        cpu0 = time.process_time()
        start = time.perf_counter()
        for request in requests:
            if self.churn and request.segment != segment:
                segment = request.segment
                t0 = time.perf_counter()
                self.service.refresh_table("lineitem", writes[segment])
                write_s.append(time.perf_counter() - t0)
            outcomes.append(await self.send(request))
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        after = self.snapshot_counts()
        counts = {k: after[k] - before[k] for k in after}
        return RoundResult(outcomes, wall, cpu, counts, write_s)

    def snapshot_counts(self) -> dict[str, int]:
        service, store = self.service.snapshot_stats()
        decisions = self.server.admission.decisions
        return {
            "store.exact_hits": store.exact_hits,
            "store.pushdown_hits": store.pushdown_hits,
            "store.thin_hits": store.thin_hits,
            "store.misses": store.misses,
            "store.lookups": store.lookups,
            "store.puts": store.puts,
            "store.evictions": store.evictions,
            "store.invalidations": store.invalidations,
            "service.result_cache_hits": service.result_cache_hits,
            "service.queries": service.queries,
            "serve.degraded": decisions["degrade"],
            "serve.rejected": decisions["reject"],
        }

    # -- oracle ------------------------------------------------------------

    def state_of(self, round_index: int, request: Request) -> int:
        if not self.churn:
            return 0
        writes_so_far = round_index * self.sizing.writes + request.segment + 1
        return writes_so_far - request.state_back

    def oracle_db(self, state: int) -> Database:
        tables = dict(self._base)
        tables["lineitem"] = self.states[state]
        return Database.from_tables(tables)


def make_workload(name: str, seed: int, sizing: Sizing, out_dir: str):
    cls = AdhocWorkload if name.startswith("adhoc") else ServedWorkload
    return cls(name, seed, sizing, out_dir)

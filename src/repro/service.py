"""A thread-safe concurrent query service over a shared synopsis catalog.

This is the serving front-end the ROADMAP's "heavy traffic" north star
asks for: many sessions issue SQL concurrently against one
:class:`~repro.relational.database.Database` whose sampling cost is
amortized through the :mod:`repro.store` catalog.  Three layers of
reuse, fastest first:

1. a **result cache** — the full answer of a previously-served
   (statement, seed) pair is returned without touching the engine;
2. the **synopsis catalog** — a stored sample that the algebra proves
   subsumes the query's sampling plan is served by exact reuse,
   predicate pushdown, or residual thinning;
3. **fresh execution** — a miss executes once and populates the
   catalog for everyone else.

Thread model: query execution itself is lock-free (numpy reads over an
immutable-by-convention catalog of tables); the service lock only
guards the result cache, the per-session bookkeeping, and table
mutations.  Mutations swap the table reference atomically and
invalidate the affected synopses, so in-flight queries see a
consistent snapshot and later queries never reuse stale samples.

``repro serve`` wraps this in a line-oriented CLI loop;
``repro serve --selftest`` runs a built-in concurrent workload and
verifies answers are identical across repeats.
"""

from __future__ import annotations

import threading
import time
import weakref
import zlib
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import ReproError
from repro.obs.metrics import REGISTRY, HistogramSnapshot, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Trace
    from repro.relational.database import Database
    from repro.relational.table import Table
    from repro.store import CatalogStats, ReuseInfo

#: Default size of the per-service result cache (answers, not samples).
DEFAULT_RESULT_CACHE = 256

#: Default bound on tracked sessions (LRU-evicted beyond this).
DEFAULT_MAX_SESSIONS = 1024


def default_seed(statement: str) -> int:
    """Stable per-statement seed, so identical statements are cacheable."""
    return zlib.crc32(statement.encode("utf-8")) & 0x7FFFFFFF


@dataclass(frozen=True)
class ServiceResponse:
    """One served statement: the printable answer plus provenance."""

    statement: str
    text: str
    values: dict[str, float] | None
    seed: int
    elapsed: float
    cached: bool = False
    reuse: "ReuseInfo | None" = field(default=None, repr=False)
    session: str | None = None
    trace: "Trace | None" = field(default=None, repr=False)


@dataclass
class ServiceStats:
    """Service-level counters (the catalog keeps its own).

    ``result_cache_hits`` counts answers actually read back from the
    result cache; ``coalesced_hits`` counts waiters that piggybacked on
    a concurrent in-flight execution of the same request — related but
    distinct reuse, reported separately.
    """

    queries: int = 0
    result_cache_hits: int = 0
    coalesced_hits: int = 0
    errors: int = 0
    sessions_evicted: int = 0

    def copy(self) -> "ServiceStats":
        return replace(self)


class ServiceSession:
    """A lightweight per-client handle onto a shared service.

    The service tracks its sessions, so a session refers to it weakly:
    no cycle keeps a dropped service (and its database) alive.
    """

    def __init__(self, service: "QueryService", name: str) -> None:
        self._service = weakref.ref(service)
        self.name = name
        self.queries = 0

    @property
    def service(self) -> "QueryService":
        service = self._service()
        if service is None:
            raise ReproError(f"session {self.name!r} outlived its service")
        return service

    def query(self, statement: str, *, seed: int | None = None) -> ServiceResponse:
        self.queries += 1
        return self.service.query(statement, seed=seed, session=self.name)


class QueryService:
    """Concurrent SQL serving over one database + shared synopsis catalog."""

    def __init__(
        self,
        db: "Database",
        *,
        level: float = 0.95,
        result_cache_size: int = DEFAULT_RESULT_CACHE,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
    ) -> None:
        if db.synopses is None:
            db.attach_catalog()
        self.db = db
        self.level = float(level)
        self._lock = threading.Lock()
        self._results: OrderedDict[tuple, ServiceResponse] = OrderedDict()
        self._result_cache_size = int(result_cache_size)
        self._inflight: dict[tuple, Future] = {}
        self._sessions: OrderedDict[str, ServiceSession] = OrderedDict()
        self._max_sessions = max(1, int(max_sessions))
        self.stats = ServiceStats()
        #: Per-service metrics (latency histograms by outcome); the
        #: process-wide :data:`~repro.obs.metrics.REGISTRY` keeps the
        #: store/engine counters shared across services.
        self.metrics = MetricsRegistry()

    # -- serving -----------------------------------------------------------

    def query(
        self,
        statement: str,
        *,
        seed: int | None = None,
        session: str | None = None,
    ) -> ServiceResponse:
        """Serve one SQL statement; deterministic for a given seed.

        With ``seed=None`` a stable per-statement seed is derived, so
        repeats of the same text hit the result cache and concurrent
        clients always observe one consistent answer per statement.
        Concurrent requests for the same (statement, seed) coalesce:
        one thread executes, the rest wait on its answer — the engine
        never runs the same request twice at once (dogpile protection),
        and all clients see the one realization.
        """
        start = time.perf_counter()
        # Only the edges are trimmed: collapsing interior whitespace
        # would rewrite runs of spaces inside SQL string literals.
        text = statement.strip()
        if not text:
            raise ReproError("empty statement")
        if seed is None:
            seed = default_seed(text)
        # The catalog epoch keys the cache generation: any table
        # mutation — via this service or directly on the database —
        # bumps it, so stale full answers can never be served.
        assert self.db.synopses is not None
        key = (text, int(seed), self.db.synopses.epoch)
        with self._lock:
            self.stats.queries += 1
            hit = self._results.get(key)
            if hit is not None:
                self._results.move_to_end(key)
                self.stats.result_cache_hits += 1
            else:
                pending = self._inflight.get(key)
                if pending is None:
                    pending = self._inflight[key] = Future()
                    owner = True
                else:
                    owner = False
        if hit is not None:
            self._observe_latency("result-cache", start)
            return replace(hit, cached=True, session=session)
        if not owner:
            response = pending.result()  # raises what the owner raised
            with self._lock:
                self.stats.coalesced_hits += 1
            self._observe_latency("coalesced", start)
            return replace(response, cached=True, session=session)
        try:
            response = self._execute(key)
        except BaseException as exc:
            with self._lock:
                self.stats.errors += 1
                self._inflight.pop(key, None)
            pending.set_exception(exc)
            self._observe_latency("error", start)
            raise
        with self._lock:
            self._results[key] = response
            while len(self._results) > self._result_cache_size:
                self._results.popitem(last=False)
            self._inflight.pop(key, None)
        pending.set_result(response)
        self._observe_latency("fresh", start)
        return replace(response, session=session)

    def _observe_latency(self, outcome: str, start: float) -> None:
        self.metrics.histogram(
            "repro_service_latency_seconds", outcome=outcome
        ).observe(time.perf_counter() - start)

    def _execute(self, key: tuple) -> ServiceResponse:
        """Run one (statement, seed) pair on the engine (no caching)."""
        from repro.cli import _format_result

        text, seed, _epoch = key
        start = time.perf_counter()
        result = self.db.sql(text, seed=seed)
        elapsed = time.perf_counter() - start
        return ServiceResponse(
            statement=text,
            text=_format_result(result, self.level),
            values=dict(result.values)
            if isinstance(getattr(result, "values", None), dict)
            else None,
            seed=int(seed),
            elapsed=elapsed,
            cached=False,
            reuse=getattr(result, "reuse", None),
            trace=getattr(result, "trace", None),
        )

    def query_many(
        self, statements: Iterable[str], *, workers: int = 4
    ) -> list[ServiceResponse]:
        """Serve a batch concurrently, preserving submission order."""
        items = list(statements)
        if not items:
            return []
        with ThreadPoolExecutor(max_workers=max(1, int(workers))) as pool:
            return list(pool.map(self.query, items))

    def session(self, name: str) -> ServiceSession:
        """Get-or-create the named session handle (bounded registry).

        Sessions are tracked in an LRU so many-connection churn (one
        session per TCP connection, connections come and go) cannot
        grow service memory without bound: beyond ``max_sessions`` the
        least-recently-touched session record is evicted and counted in
        ``stats.sessions_evicted``.  An evicted name can reconnect —
        it simply gets a fresh handle with a zeroed query count.
        """
        with self._lock:
            existing = self._sessions.get(name)
            if existing is not None:
                self._sessions.move_to_end(name)
                return existing
            created = self._sessions[name] = ServiceSession(self, name)
            while len(self._sessions) > self._max_sessions:
                self._sessions.popitem(last=False)
                self.stats.sessions_evicted += 1
            return created

    @property
    def session_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def note_execution(self, count: int = 1) -> None:
        """Account engine executions driven by an external loop.

        The progressive serving tier runs the optimizer's pilot and
        escalation attempts directly against this service's database;
        each of those executions may probe the synopsis catalog.
        Recording them here — under the same lock, *before* the
        execution happens — preserves the snapshot invariant
        ``store.lookups <= service.queries`` that
        :meth:`snapshot_stats` guarantees for the plain query path.
        """
        with self._lock:
            self.stats.queries += int(count)

    # -- administration ----------------------------------------------------

    def refresh_table(self, name: str, table: "Table") -> None:
        """Swap a table's contents and drop every answer derived from it.

        The outgoing contents are frozen as a snapshot first
        (:meth:`~repro.relational.database.Database.update_table`), so
        clients can keep querying the previous state with ``AT
        VERSION n`` — and difference queries against it stay served by
        untouched snapshot synopses.  The result cache cannot tell
        which answers touched the table, so it is cleared wholesale;
        the synopsis catalog invalidates precisely (per-table
        versions).
        """
        with self._lock:
            self.db.update_table(name, table)
            self._results.clear()

    def snapshot_stats(self) -> tuple[ServiceStats, "CatalogStats"]:
        """One consistent snapshot of service and catalog counters.

        Both copies are taken under the service lock.  Every query
        increments ``stats.queries`` (under this lock) *before* its
        store lookup happens, so reading the catalog inside the same
        critical section guarantees ``store.lookups <= service.queries``
        in every snapshot — reading the two sides at different times
        (the old behavior) let a concurrent query's lookup land between
        the reads and break that invariant.
        """
        assert self.db.synopses is not None
        with self._lock:
            return self.stats.copy(), self.db.synopses.snapshot_stats()

    def latency_snapshot(self) -> HistogramSnapshot:
        """Serve latency over *all* outcomes, merged from the per-outcome
        histograms (merge is exact, so this equals one big histogram)."""
        merged = HistogramSnapshot.empty()
        snap = self.metrics.snapshot()
        for (name, _labels), value in snap.items():
            if name == "repro_service_latency_seconds" and isinstance(
                value, HistogramSnapshot
            ):
                merged = merged.merge(value)
        return merged

    def metrics_text(self) -> str:
        """Prometheus text exposition: service, store, and engine metrics."""
        service, store = self.snapshot_stats()
        reg = MetricsRegistry()
        reg.counter("repro_service_queries_total").inc(service.queries)
        reg.counter("repro_service_result_cache_hits_total").inc(
            service.result_cache_hits
        )
        reg.counter("repro_service_coalesced_hits_total").inc(
            service.coalesced_hits
        )
        reg.counter("repro_service_errors_total").inc(service.errors)
        reg.counter("repro_service_sessions_evicted_total").inc(
            service.sessions_evicted
        )
        reg.gauge("repro_service_sessions").set(float(self.session_count))
        reg.counter("repro_catalog_lookups_total").inc(store.lookups)
        reg.counter("repro_catalog_hits_total", mode="exact").inc(
            store.exact_hits
        )
        reg.counter("repro_catalog_hits_total", mode="pushdown").inc(
            store.pushdown_hits
        )
        reg.counter("repro_catalog_hits_total", mode="thin").inc(
            store.thin_hits
        )
        reg.counter("repro_catalog_misses_total").inc(store.misses)
        reg.counter("repro_catalog_puts_total").inc(store.puts)
        reg.counter("repro_catalog_evictions_total").inc(store.evictions)
        reg.counter("repro_catalog_invalidations_total").inc(
            store.invalidations
        )
        reg.gauge("repro_catalog_entries").set(float(len(self.db.synopses)))
        reg.gauge("repro_catalog_resident_bytes").set(
            float(self.db.synopses.resident_bytes)
        )
        parts = [reg.render_prometheus()]
        latency = self.metrics.render_prometheus()
        if latency:
            parts.append(latency)
        engine = REGISTRY.render_prometheus()
        if engine:
            parts.append(engine)
        return "\n".join(parts)

    def stats_line(self) -> str:
        service, store = self.snapshot_stats()
        latency = self.latency_snapshot()
        quantiles = (
            f", p50 {latency.quantile(0.5) * 1e3:.1f} ms "
            f"p99 {latency.quantile(0.99) * 1e3:.1f} ms"
            if latency.count
            else ""
        )
        return (
            f"served {service.queries} "
            f"(result-cache {service.result_cache_hits}, "
            f"coalesced {service.coalesced_hits}, "
            f"store hits {store.hits}/{store.lookups} "
            f"[{store.exact_hits} exact, {store.pushdown_hits} pushdown, "
            f"{store.thin_hits} thin], "
            f"misses {store.misses}, evictions {store.evictions}, "
            f"invalidations {store.invalidations}, "
            f"sessions {self.session_count} "
            f"(evicted {service.sessions_evicted}){quantiles})"
        )


# ---------------------------------------------------------------------------
# The ``repro serve`` loop and its self-test workload.
# ---------------------------------------------------------------------------

#: Statements of the self-test mix: exact repeats, shared-child
#: aggregates, a thinnable lower-rate variant, and predicate pushdowns.
SELFTEST_STATEMENTS = (
    "SELECT SUM(l_extendedprice) AS rev, COUNT(*) AS n "
    "FROM lineitem TABLESAMPLE (20 PERCENT) REPEATABLE (11)",
    "SELECT AVG(l_quantity) AS avg_qty "
    "FROM lineitem TABLESAMPLE (20 PERCENT) REPEATABLE (11)",
    "SELECT SUM(l_extendedprice) AS rev "
    "FROM lineitem TABLESAMPLE (10 PERCENT) REPEATABLE (11)",
    "SELECT SUM(l_extendedprice) AS rev "
    "FROM lineitem TABLESAMPLE (20 PERCENT) REPEATABLE (11) "
    "WHERE l_quantity > 25",
    "SELECT l_returnflag, SUM(l_quantity) AS qty "
    "FROM lineitem TABLESAMPLE (20 PERCENT) REPEATABLE (11) "
    "GROUP BY l_returnflag",
    "SELECT SUM(o_totalprice) AS total "
    "FROM orders TABLESAMPLE (25 PERCENT) REPEATABLE (3)",
)


def serve_statements(
    service: QueryService,
    statements: Iterable[str],
    *,
    workers: int = 4,
    out: Callable[[str], Any] = print,
) -> int:
    """Serve a statement stream concurrently, printing in order.

    Failures are isolated per statement — one malformed line prints an
    error and the rest of the stream is still served.  Returns the
    number of statements answered successfully.

    Lines starting with a backslash are service commands, answered at
    their position in the output stream (they see whatever concurrent
    statements have completed by then): ``\\stats`` prints the one-line
    counter summary with latency quantiles, ``\\metrics`` the full
    Prometheus exposition.
    """
    # The per-statement logic (serving, tagging, error isolation) and
    # the \stats/\metrics commands are the network tier's request
    # handler — one implementation for stdin and TCP alike.
    from repro.serve.handler import RequestHandler

    handler = RequestHandler(service)
    items = list(statements)
    served = 0
    with ThreadPoolExecutor(max_workers=max(1, int(workers))) as pool:
        futures = [
            None if s.startswith("\\") else pool.submit(handler.serve_text, s)
            for s in items
        ]
        for statement, future in zip(items, futures):
            if future is None:
                out(handler.command_text(statement))
                continue
            lines, ok = future.result()
            for line in lines:
                out(line)
            served += ok
    out(f"-- {service.stats_line()}")
    return served


def selftest(
    *,
    workers: int = 4,
    scale: float = 0.02,
    seed: int = 0,
    repeats: int = 3,
    out: Callable[[str], Any] = print,
) -> bool:
    """Concurrent end-to-end check of the catalog + service stack.

    Runs the self-test workload ``repeats`` times across ``workers``
    threads against a shared catalog and verifies that (1) every
    statement's answer is identical on every repeat, (2) the store
    actually served reuse hits, and (3) the result cache engaged.
    """
    from repro.data.tpch import tpch_database

    db = tpch_database(scale=scale, seed=seed)
    db.attach_catalog()
    service = QueryService(db)
    # Warm the base synopsis so the concurrent storm has a stored
    # sample to subsume (otherwise every distinct statement can miss
    # simultaneously on the first wave and the hit check gets racy).
    warm = service.query(SELFTEST_STATEMENTS[0])
    workload = list(SELFTEST_STATEMENTS) * max(1, int(repeats))
    responses = service.query_many(workload, workers=max(2, int(workers)))
    responses.append(warm)
    by_statement: dict[str, str] = {}
    consistent = True
    for response in responses:
        previous = by_statement.setdefault(response.statement, response.text)
        if previous != response.text:
            consistent = False
            out(f"MISMATCH for {response.statement!r}")
    stats, store = service.snapshot_stats()
    ok = (
        consistent
        and store.hits > 0
        and stats.result_cache_hits + stats.coalesced_hits > 0
        and stats.errors == 0
    )
    out(
        f"selftest {'ok' if ok else 'FAILED'}: "
        f"{len(responses)} statements across {max(2, int(workers))} "
        f"threads; {service.stats_line()}"
    )
    return ok

"""A query service over a shared synopsis catalog.

This is the serving front-end the ROADMAP's "heavy traffic" north star
asks for: clients issue SQL against one
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

Thread model: the serving tier runs every request on one engine
thread, in arrival order, so a repeat queued behind its first
execution is a result-cache hit and every answer is reproducible.  The
service lock still guards the result cache, the counters and table
mutations, because other threads (the event loop, a library caller)
read stats and refresh tables while the engine runs.  Mutations swap
the table reference atomically and invalidate the affected synopses,
so a running query sees a consistent snapshot and later queries never
reuse stale samples.

An answer has one text format, :func:`render_result`: a response's
``text`` is it, and so is what the shell and ``repro -c`` print.

``repro serve`` wraps this in a line-oriented CLI loop,
:func:`serve_statements`, whose every line is a request of the
serving tier's :class:`~repro.serve.handler.RequestHandler`, as a TCP
or HTTP request is; ``repro serve --selftest`` runs a built-in
workload and verifies answers are identical across repeats.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import ReproError
from repro.obs.metrics import REGISTRY, HistogramSnapshot, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Trace
    from repro.relational.database import Database
    from repro.relational.table import Table
    from repro.store import CatalogStats, ReuseInfo

#: Answers the per-service result cache keeps (LRU; answers, not samples).
RESULT_CACHE_SIZE = 256


def default_seed(statement: str) -> int:
    """Stable per-statement seed, so identical statements are cacheable."""
    return zlib.crc32(statement.encode("utf-8")) & 0x7FFFFFFF


def render_result(result: Any, level: float) -> str:
    """The one text format of an answer.

    The shell, ``repro -c``, ``repro profile`` and every served
    ``text`` print this.  An estimate is one ``alias = value   [lo, hi]
    @level`` line per aggregate; a GROUP BY answer is a table with one
    ``value [lo, hi]`` cell per aggregate and group (the first 50).
    Each ends in a ``--`` footer.  A budgeted answer prints at its
    budget's level, followed by the optimizer's verdict.  A plain
    table prints as its first 20 rows.
    """
    from repro.core.sbox import GroupedQueryResult, QueryResult
    from repro.obs.report import ExplainAnalyzeReport
    from repro.optimizer import OptimizedResult, OptimizerReport
    from repro.versions.engine import (
        GroupedVersionDiffResult,
        VersionDiffResult,
    )

    if isinstance(result, ExplainAnalyzeReport):
        return (
            render_result(result.result, level) + "\n" + result.render_trace()
        )
    if isinstance(result, OptimizerReport):
        return result.table()
    if isinstance(result, OptimizedResult):
        return (
            render_result(result.result, result.report.budget.level)
            + "\n-- "
            + result.outcome_line()
        )
    if isinstance(result, (VersionDiffResult, GroupedVersionDiffResult)):
        rate = result.plan.rate if result.plan is not None else None
        mode = f"coordinated p = {rate:g}" if rate is not None else "exact"
        sampled = f"{result.n_matched} matched keys, {mode}"
    elif isinstance(result, (QueryResult, GroupedQueryResult)):
        # ``keep_sample=False`` answers carry no sample to count.
        rows = "" if result.sample is None else f"{result.sample.n_rows} sample rows, "
        sampled = f"{rows}a = {result.gus.a:.4g}"
    else:
        lines = ["\t".join(result.schema.names)]
        for row in result.head(20).to_rows():
            lines.append("\t".join(str(v) for v in row))
        if result.n_rows > 20:
            lines.append(f"... ({result.n_rows} rows total)")
        return "\n".join(lines)
    if isinstance(result, (GroupedQueryResult, GroupedVersionDiffResult)):
        groups = "groups" if isinstance(result, GroupedQueryResult) else "segments"
        lines = _group_lines(result, level)
        lines.append(f"-- {result.n_groups} {groups} @{level:.0%}, {sampled}")
        return "\n".join(lines)
    lines = []
    for alias, value in result.values.items():
        est = result.estimates[alias]
        ci = est.ci(level)
        clamped = isinstance(result, QueryResult) and est.clamped
        lines.append(
            f"{alias} = {value:.6g}   [{ci.lo:.6g}, {ci.hi:.6g}] @{level:.0%}"
            + ("  (variance clamped)" if clamped else "")
        )
    prefix = "version diff, " if isinstance(result, VersionDiffResult) else ""
    lines.append(f"-- {prefix}{sampled}")
    return "\n".join(lines)


def _group_lines(result: Any, level: float) -> list[str]:
    """Header and group rows: key columns, then ``value [lo, hi]``."""
    key_names = list(result.keys)
    aliases = list(result.values)
    bounds = {
        alias: result.estimates[alias].ci_bounds(level) for alias in aliases
    }
    lines = ["\t".join(key_names + [f"{a} [lo, hi]" for a in aliases])]
    shown = min(result.n_groups, 50)
    for g in range(shown):
        cells = [str(result.keys[k][g]) for k in key_names]
        for alias in aliases:
            lo, hi = bounds[alias][0][g], bounds[alias][1][g]
            cells.append(f"{result.values[alias][g]:.6g} [{lo:.6g}, {hi:.6g}]")
        lines.append("\t".join(cells))
    if result.n_groups > shown:
        lines.append(f"... ({result.n_groups} groups total)")
    return lines


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
    trace: "Trace | None" = field(default=None, repr=False)


@dataclass
class ServiceStats:
    """Service-level counters (the catalog keeps its own).

    ``result_cache_hits`` counts answers read back from the result
    cache.
    """

    queries: int = 0
    result_cache_hits: int = 0
    errors: int = 0

    def copy(self) -> "ServiceStats":
        return replace(self)


class QueryService:
    """SQL serving over one database + shared synopsis catalog.

    ``level`` is the confidence level answers are printed at.  The
    result cache keeps the :data:`RESULT_CACHE_SIZE` most recently
    served answers.
    """

    def __init__(self, db: "Database", *, level: float = 0.95) -> None:
        if db.synopses is None:
            db.attach_catalog()
        self.db = db
        self.level = float(level)
        self._lock = threading.Lock()
        self._results: OrderedDict[tuple, ServiceResponse] = OrderedDict()
        self.stats = ServiceStats()
        #: Per-service metrics (latency histograms by outcome); the
        #: process-wide :data:`~repro.obs.metrics.REGISTRY` keeps the
        #: store/engine counters shared across services.
        self.metrics = MetricsRegistry()

    # -- serving -----------------------------------------------------------

    def query(
        self, statement: str, *, seed: int | None = None
    ) -> ServiceResponse:
        """Serve one SQL statement; deterministic for a given seed.

        With ``seed=None`` a stable per-statement seed is derived, so
        repeats of the same text hit the result cache.  Requests served
        one after another, as the serving tier's one engine thread
        does, observe one answer per statement.
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
        if hit is not None:
            self._observe_latency("result-cache", start)
            return replace(hit, cached=True)
        try:
            response = self._execute(key)
        except BaseException:
            with self._lock:
                self.stats.errors += 1
            self._observe_latency("error", start)
            raise
        with self._lock:
            self._results[key] = response
            while len(self._results) > RESULT_CACHE_SIZE:
                self._results.popitem(last=False)
        self._observe_latency("fresh", start)
        return response

    def _observe_latency(self, outcome: str, start: float) -> None:
        self.metrics.histogram(
            "repro_service_latency_seconds", outcome=outcome
        ).observe(time.perf_counter() - start)

    def _execute(self, key: tuple) -> ServiceResponse:
        """Run one (statement, seed) pair on the engine (no caching)."""
        text, seed, _epoch = key
        start = time.perf_counter()
        result = self.db.sql(text, seed=seed)
        elapsed = time.perf_counter() - start
        return ServiceResponse(
            statement=text,
            text=render_result(result, self.level),
            values=dict(result.values)
            if isinstance(getattr(result, "values", None), dict)
            else None,
            seed=int(seed),
            elapsed=elapsed,
            cached=False,
            reuse=getattr(result, "reuse", None),
            trace=getattr(result, "trace", None),
        )

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
        reg.counter("repro_service_errors_total").inc(service.errors)
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
            f"store hits {store.hits}/{store.lookups} "
            f"[{store.exact_hits} exact, {store.pushdown_hits} pushdown, "
            f"{store.thin_hits} thin], "
            f"misses {store.misses}, evictions {store.evictions}, "
            f"invalidations {store.invalidations}{quantiles})"
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

#: How many times in a row the self-test serves its workload.
SELFTEST_REPEATS = 3


#: The stdin loop's commands and the prefix of each one's printed text.
_COMMAND_PREFIX = {"stats": "-- ", "metrics": ""}


def serve_statements(
    service: QueryService,
    statements: Iterable[str],
    *,
    out: Callable[[str], Any] = print,
) -> int:
    """Serve a statement stream in order, printing each answer.

    Failures are isolated per statement — one malformed line prints an
    error and the rest of the stream is still served.  Returns the
    number of statements answered successfully.

    Lines starting with a backslash are service commands, answered at
    their position in the stream (they see every statement before
    them): ``\\stats`` prints the one-line counter summary with
    latency quantiles, ``\\metrics`` the full Prometheus exposition.
    """
    # Each line is a request of the network tier's handler: a statement
    # goes through admit / execute / release like a TCP query, a
    # command is an immediate request.  The lines printed are the
    # payload's.
    from repro.serve.handler import RequestHandler
    from repro.serve.protocol import Request

    handler = RequestHandler(service)
    served = 0
    for rid, line in enumerate(statements):
        if line.startswith("\\"):
            op = line.lstrip("\\").strip().lower()
            if op not in _COMMAND_PREFIX:
                out(f"-- unknown command {line!r}; try \\stats or \\metrics")
                continue
            answer = handler.immediate(Request(id=rid, op=op))
            out(_COMMAND_PREFIX[op] + answer["text"])
            continue
        request = Request(id=rid, op="query", statement=line.strip())
        decision, _ = handler.admit(request)
        payload = handler.execute(request, decision)
        handler.release(decision)
        if payload["type"] == "error":
            out(f"-- [error] {request.statement}")
            out(f"error: {payload['error']}")
            continue
        out(
            f"-- [{payload['tag']}, {payload['elapsed_ms']:.1f} ms] "
            f"{request.statement}"
        )
        out(payload["text"])
        served += 1
    out(f"-- {service.stats_line()}")
    return served


def selftest(
    *,
    scale: float = 0.02,
    seed: int = 0,
    out: Callable[[str], Any] = print,
) -> bool:
    """End-to-end check of the catalog + service stack.

    Serves the self-test workload :data:`SELFTEST_REPEATS` times in a
    row against a shared catalog and verifies that (1) every
    statement's answer is identical on every repeat, (2) the store
    actually served reuse hits, and (3) the result cache engaged.
    """
    from repro.data.tpch import tpch_database

    db = tpch_database(scale=scale, seed=seed)
    db.attach_catalog()
    service = QueryService(db)
    workload = list(SELFTEST_STATEMENTS) * SELFTEST_REPEATS
    responses = [service.query(statement) for statement in workload]
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
        and stats.result_cache_hits > 0
        and stats.errors == 0
    )
    out(
        f"selftest {'ok' if ok else 'FAILED'}: "
        f"{len(responses)} statements; {service.stats_line()}"
    )
    return ok

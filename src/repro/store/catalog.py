"""The persistent sample-synopsis catalog.

A *synopsis* is everything needed to answer future aggregate queries
from an already-paid-for sample: the sample table (its rows and
lineage; each data column copied from the base table the first time a
query reads it, see :class:`~repro.relational.table.Columns`), the top
GUS parameters of the sampled plan, the sampling-free clean plan, and
the canonical fingerprint it was stored under.  The
catalog keys synopses by the canonical **core** fingerprint (the
sampling- and selection-free skeleton) so that one stored sample can
serve exact repeats, further-filtered queries (predicate pushdown), and
lower-rate queries (residual Bernoulli thinning) — the
:mod:`~repro.store.matcher` decides which, from the algebra.

Operationally the catalog is a bounded, thread-safe LRU: entries are
evicted least-recently-used when either the entry count or the byte
budget is exceeded — a sample counts at its fully-read size
(:func:`table_nbytes`), whatever it holds so far, and storing reads
nothing — and are invalidated by version stamping when any
base table they were drawn from mutates (``Database`` bumps the
version on every mutation path).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.core.gus import GUSParams
from repro.obs.metrics import REGISTRY
from repro.relational.plan import PlanNode
from repro.relational.table import Table
from repro.store.fingerprint import CanonicalPlan

#: Catalog bounds: entries and resident sample bytes.
MAX_ENTRIES = 64
MAX_BYTES = 256 * 1024 * 1024

#: The largest sample the catalog stores: one sample may never dominate
#: (or exceed) the whole budget, so a larger one is answered but not
#: stored.
MAX_ENTRY_BYTES = MAX_BYTES // 4


def table_nbytes(table: Table) -> int:
    """Bytes of a sample table with every column read, from dtypes.

    Lineage bytes plus ``n_rows × itemsize`` per data column; nothing
    is read.  A column nobody has read yet is not resident, so this is
    an upper bound on what the sample holds — and the same number
    whichever columns have been read, so budget decisions do not depend
    on the order queries arrive in.
    """
    total = sum(int(ids.nbytes) for ids in table.lineage.values())
    for name in table.columns:
        total += table.n_rows * table.columns.dtype(name).itemsize
    return total


@dataclass(frozen=True)
class Synopsis:
    """One stored sample with everything reuse needs.

    ``sample`` has every column of the sampled expression, but holds
    only the ones some query has read: the rest are pending gathers
    from the base tables (:class:`~repro.relational.table.Columns`),
    run once each when a hit first needs them.  ``nbytes`` is the
    fully-read size (:func:`table_nbytes`).
    """

    entry_id: int
    canon: CanonicalPlan = field(repr=False)
    sample: Table = field(repr=False)
    params: GUSParams = field(repr=False)
    clean_plan: PlanNode = field(repr=False)
    versions: dict[str, int] = field(repr=False)
    nbytes: int = 0

    @property
    def n_rows(self) -> int:
        return self.sample.n_rows

    @cached_property
    def columns(self) -> frozenset[str]:
        return frozenset(self.sample.columns)


@dataclass
class CatalogStats:
    """Cumulative catalog counters (monotone; snapshot with ``copy``)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    exact_hits: int = 0
    pushdown_hits: int = 0
    thin_hits: int = 0
    puts: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def copy(self) -> "CatalogStats":
        return replace(self)


class SynopsisCatalog:
    """Bounded, thread-safe store of sample synopses keyed by core plan.

    Holds at most :data:`MAX_ENTRIES` synopses and :data:`MAX_BYTES`
    of samples, none larger than :data:`MAX_ENTRY_BYTES`.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._entries: OrderedDict[int, Synopsis] = OrderedDict()
        self._by_key: dict[tuple, list[int]] = {}
        self._versions: dict[str, int] = {}
        self._next_id = 0
        self._bytes = 0
        self._epoch = 0
        self.stats = CatalogStats()

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def snapshot_stats(self) -> CatalogStats:
        with self._lock:
            return self.stats.copy()

    @property
    def epoch(self) -> int:
        """Monotone mutation counter: bumps on every invalidation.

        Coarse staleness signal for caches of *derived* answers (e.g.
        a service's result cache) that cannot attribute an answer to
        the tables it read: key on the epoch and any mutation anywhere
        retires the whole generation.
        """
        with self._lock:
            return self._epoch

    def version_of(self, table: str) -> int:
        with self._lock:
            return self._versions.get(table, 0)

    def version_stamps(self, tables) -> dict[str, int]:
        """Current versions of the given tables, read atomically.

        Callers that execute against a snapshot of the tables must read
        the stamps *before* taking the snapshot and pass them to
        :meth:`put` — stamping at insertion time would let a mutation
        that lands during the execution silently undo its own
        invalidation.
        """
        with self._lock:
            return {name: self._versions.get(name, 0) for name in tables}

    def candidates(self, canon: CanonicalPlan) -> list[Synopsis]:
        """Fresh (non-stale) entries stored under the canonical core key.

        Does **not** count as a lookup or touch LRU order — this is the
        probe the optimizer's scoring and the matcher both build on.
        """
        with self._lock:
            ids = self._by_key.get(canon.core_key, [])
            fresh: list[Synopsis] = []
            for entry_id in list(ids):
                syn = self._entries.get(entry_id)
                if syn is None:
                    ids.remove(entry_id)
                    continue
                if any(
                    self._versions.get(rel, 0) != stamp
                    for rel, stamp in syn.versions.items()
                ):
                    self._evict(entry_id, count_eviction=False)
                    self.stats.invalidations += 1
                    continue
                fresh.append(syn)
            return fresh

    def record_hit(self, synopsis: Synopsis, kind: str) -> None:
        """Account a served reuse and refresh the entry's LRU position."""
        with self._lock:
            self.stats.lookups += 1
            self.stats.hits += 1
            if kind == "exact":
                self.stats.exact_hits += 1
            elif kind == "pushdown":
                self.stats.pushdown_hits += 1
            else:
                self.stats.thin_hits += 1
            if synopsis.entry_id in self._entries:
                self._entries.move_to_end(synopsis.entry_id)
        REGISTRY.counter("repro_store_lookups_total").inc()
        REGISTRY.counter("repro_store_hits_total", mode=kind).inc()

    def record_miss(self) -> None:
        with self._lock:
            self.stats.lookups += 1
            self.stats.misses += 1
        REGISTRY.counter("repro_store_lookups_total").inc()
        REGISTRY.counter("repro_store_misses_total").inc()

    # -- mutation ----------------------------------------------------------

    def put(
        self,
        canon: CanonicalPlan,
        sample: Table,
        params: GUSParams,
        clean_plan: PlanNode,
        *,
        versions: Mapping[str, int] | None = None,
    ) -> Synopsis | None:
        """Store a synopsis, keeping any existing entry with the same
        identity.

        Identity is the full exact key (core + design incl. seeds +
        predicates): storing the same query twice keeps the *first*
        entry, so concurrent double-misses converge on one synopsis.
        Evicts least-recently-used entries until both bounds hold.

        ``versions`` are the :meth:`version_stamps` read before the
        sample's table snapshot was taken.  If any referenced table
        mutated since, the sample describes dead data: it is discarded
        and ``None`` returned.  Samples larger than
        :data:`MAX_ENTRY_BYTES` are not stored either — one huge sample
        must not evict the whole working set (the query's answer is
        unaffected; only reuse is skipped).
        """
        nbytes = table_nbytes(sample)
        if nbytes > MAX_ENTRY_BYTES:
            return None
        with self._lock:
            if versions is not None and any(
                self._versions.get(rel, 0) != versions.get(rel, 0)
                for rel in canon.relations
            ):
                return None  # drawn from a pre-mutation snapshot
            for other in self.candidates(canon):
                if other.canon.exact_key == canon.exact_key:
                    self._entries.move_to_end(other.entry_id)
                    return other
            syn = Synopsis(
                entry_id=self._next_id,
                canon=canon,
                sample=sample,
                params=params,
                clean_plan=clean_plan,
                # The stale check above guarantees these equal the
                # caller's pre-snapshot stamps when it supplied them.
                versions={
                    rel: self._versions.get(rel, 0)
                    for rel in canon.relations
                },
                nbytes=nbytes,
            )
            self._next_id += 1
            self._entries[syn.entry_id] = syn
            self._by_key.setdefault(canon.core_key, []).append(syn.entry_id)
            self._bytes += nbytes
            self.stats.puts += 1
            REGISTRY.counter("repro_store_puts_total").inc()
            self._enforce_bounds(keep=syn.entry_id)
            return syn

    def invalidate(self, table: str) -> int:
        """Mark a base table mutated; purge every synopsis drawn from it."""
        with self._lock:
            self._versions[table] = self._versions.get(table, 0) + 1
            self._epoch += 1
            stale = [
                entry_id
                for entry_id, syn in self._entries.items()
                if table in syn.canon.relations
            ]
            for entry_id in stale:
                self._evict(entry_id, count_eviction=False)
            self.stats.invalidations += len(stale)
        REGISTRY.counter("repro_store_invalidations_total").inc(len(stale))
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_key.clear()
            self._bytes = 0

    # -- internals ---------------------------------------------------------

    def _enforce_bounds(self, keep: int) -> None:
        """Evict LRU entries until bounds hold (never the one just put)."""
        while len(self._entries) > MAX_ENTRIES or (
            self._bytes > MAX_BYTES and len(self._entries) > 1
        ):
            victim = next(
                (eid for eid in self._entries if eid != keep), None
            )
            if victim is None:
                break
            self._evict(victim, count_eviction=True)

    def _evict(self, entry_id: int, *, count_eviction: bool) -> None:
        syn = self._entries.pop(entry_id, None)
        if syn is None:
            return
        self._bytes -= syn.nbytes
        ids = self._by_key.get(syn.canon.core_key)
        if ids is not None:
            if entry_id in ids:
                ids.remove(entry_id)
            if not ids:
                del self._by_key[syn.canon.core_key]
        if count_eviction:
            self.stats.evictions += 1
            REGISTRY.counter("repro_store_evictions_total").inc()

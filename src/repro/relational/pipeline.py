"""The plan execution engine: chunked, folded in order on the caller.

:class:`ChunkedExecutor` is the one engine behind ``Database.sql`` /
``estimate`` / ``execute``.  A plan compiles into *(tasks, fn)* sources
where each task is one chunk of base rows and ``fn`` runs the whole
operator stack — scan → sample → filter → project → join probe — over
that chunk.  Tasks are pure and independent; the calling thread runs
them one after another in chunk order.  The chunking is the source's
own: a source of up to :data:`~repro.relational.partition.CHUNK_ROWS`
rows is one chunk — the unpartitioned case is the pipeline with k = 1,
not a second engine — and a larger one is cut into chunks of that
many rows, unless the caller names a ``chunk_size``.

Reproducibility contract (tested property, not aspiration):

* **Chunking invariance** — moments are additive and every operator
  maps a chunk of rows to the chunk of its output, so how a source is
  cut, and which of its blocks pruning skips, decides how much work a
  query does and not its answer: executed tables are the same at every
  ``chunk_size``, and so are estimates whenever each lineage key's rows
  stay within one chunk (join fanout that spreads a key over chunks
  adds its partial sums in another order, which can move the last
  float ulp of a point estimate).
* **Partition invariance** — randomness is a function of the *global*
  row position, never of chunk boundaries: every sampling node draws
  once over its whole base table before any chunk runs, and a chunk
  only slices that draw.  A draw is the sorted kept positions and
  their lineage ids, made block by block, so nothing in it grows with
  the table; two scalar bisections find a task's positions in it, and
  the task takes them (a task that keeps every row stays a view).  The
  draws consume the generator in plan post-order, exactly as the
  reference interpreter
  (:class:`~repro.relational.executor.Executor`) does, so one seed maps
  to one realization on both — which is what lets the interpreter be
  the independent reference this engine is tested against.
* **Block pruning** — a selection over a scan of a table with block
  min/max stats (a persisted table) cuts each task to the runs of
  stats blocks its ``col OP literal`` conjuncts may match, widened to
  whole sampling blocks.  The rows it skips are rows the predicate
  drops anyway, and the draws were made over the whole table first,
  so pruning changes no sample; one big chunk prunes what a chunk per
  block would.

Joins execute as build/probe: the build side is materialized once and
its (factorized) join keys indexed once — one build shared by every
probe task — and probe chunks stream through it.
Integer keys over a compact span are addressed directly
(:class:`_AddressedJoinBuild`: no row order at all when the keys
already ascend; a probe chunk whose keys strictly ascend — a scanned
primary key — walks the build in key order, any other reads a
histogram of the keys and its running sum, built on first use); any
other keys are sorted once and binary-searched
(:class:`_SortedJoinBuild`).  :func:`_join_build` picks between them
from the key dtypes and the build span alone.  Each output chunk is
emitted in the canonical (right-major, left-ascending) order the
reference sort-probe join produces, so concatenating the chunks
reproduces it bit-for-bit while the join *output* is never
materialized by streaming consumers.

Column pruning: estimation consumers pass the columns they need and
every operator forwards only those (plus whatever its own predicates
and keys read) — scans slice views instead of gathering, and join
probes gather a handful of arrays instead of both tables' full width.

Tracing: when (and only when) a tracer is active, every compiled
operator is wrapped by :func:`_probe` and fused operators are compiled
apart, so each plan node opens its own ``node`` span — reporting its
``rows_out`` — under the span of the chunk it runs in.  A chunk's span
closes before its result is yielded.  Untraced runs compile no probes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

import numpy as np

from repro.core.kernels import _radix_order
from repro.errors import ExecutionError, PlanError
from repro.obs.trace import get_tracer, maybe_span
from repro.relational import expressions as ex
from repro.relational import plan as p
from repro.relational.aggregates import (
    aggregate_columns,
    evaluate_aggregates,
    evaluate_group_aggregates,
)
from repro.relational.executor import (
    check_join_key_dtypes,
    combine_rows,
    intersect_tables,
    join_codes,
    probe_sorted,
    union_tables,
)
from repro.relational.partition import chunk_bounds, required_alignment
from repro.relational.table import Table, concat_column
from repro.sampling.base import Draw, SamplingMethod
from repro.sampling.pseudorandom import LineageHashBernoulli

__all__ = ["ChunkedExecutor", "concat_tables"]


def concat_tables(chunks: list[Table]) -> Table:
    """Stack chunk tables (shared schema) back into one table."""
    if not chunks:
        raise ExecutionError("cannot concatenate zero chunks")
    if len(chunks) == 1:
        return chunks[0]
    first = chunks[0]
    parts = [c.columns for c in chunks]
    columns = {name: concat_column(parts, name) for name in first.columns}
    lineage = {
        rel: np.concatenate([c.lineage[rel] for c in chunks])
        for rel in first.lineage
    }
    return Table(first.name, columns, lineage)


# -- join build ------------------------------------------------------------


class _SortedJoinBuild:
    """The general build: the keys, sorted once, binary-searched per probe.

    The sort is stable, so equal keys stay in original row order, and
    :func:`~repro.relational.executor.probe_sorted` then emits every
    probe chunk's matches in the canonical (right-major,
    left-ascending) order of the reference sort-probe join.  Float
    (NaN) keys, mixed integer/float sides, ``uint64`` keys and integer
    keys scattered over a sparse span join this way.
    """

    __slots__ = ("_sorted_keys", "_positions")

    #: The one probe path, named like :attr:`_AddressedJoinBuild.path`.
    path = "sorted"

    def __init__(self, keys: np.ndarray) -> None:
        self._positions = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._positions]

    def probe(self, probe_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Match one probe chunk; canonical-order ``(li, ri_local)``."""
        return probe_sorted(self._sorted_keys, self._positions, probe_keys)


class _AddressedJoinBuild:
    """Integer keys over a compact span: addressed, never searched per key.

    The build rows in key order are *nothing* when one comparison pass
    finds the keys non-decreasing (a scan-order sample of a fact table
    clustered on its parent key) and a stable radix order otherwise.
    Each probe chunk takes one of three paths, named by :attr:`path`
    after the call:

    * ``ascending`` — the chunk's keys strictly ascend (a scanned
      primary key) over a span of at most ``4·m + 65 536`` for its ``m``
      rows.  The canonical order (right-major, then build key order) is
      then the build's own key order: two scalar bisections find the
      build rows whose keys lie in the chunk's range, and a lookup over
      the chunk's key span turns each of their keys into its probe row
      or drops it (contiguous probe keys need no lookup: key ``first +
      i`` is row ``i``).  No probe row is expanded into its build
      run, and a fully matched run of a key-ordered build comes back
      as a ``slice``, which the gathers downstream take as views.
    * ``distinct`` / ``expanded`` — any other chunk reads the count
      table: ``counts[k - lo]`` build rows carry key ``k`` and sit at
      ``starts[k - lo]`` onward in key order, so a probe is two gathers,
      and repeated build keys are expanded run by run.  Slot ``span`` is
      the empty run every probe key outside ``[lo, lo + span)`` is sent
      to.  The table is built on the first chunk that needs it.

    Every path emits exactly the ``(li, ri)`` of
    :class:`_SortedJoinBuild`, ``li`` possibly as a ``slice``.
    """

    __slots__ = ("_lo", "_span", "_keys", "_positions", "_table", "path")

    def __init__(
        self, keys: np.ndarray, lo: int, span: int, ordered: bool
    ) -> None:
        self._lo = lo
        self._span = span
        if ordered:
            self._positions = None
            self._keys = keys
        else:
            self._positions = _radix_order(keys - lo, span)
            self._keys = keys[self._positions]
        self._table = None
        self.path: str | None = None

    def probe(
        self, probe_keys: np.ndarray
    ) -> tuple[np.ndarray | slice, np.ndarray]:
        """Match one probe chunk; canonical-order ``(li, ri_local)``."""
        keys = probe_keys.astype(np.int64, copy=False)
        m = keys.shape[0]
        if not m:
            self.path = "ascending"
            return keys, keys
        if m == 1 or bool(np.all(keys[1:] > keys[:-1])):
            first, last = int(keys[0]), int(keys[-1])
            if last - first < 4 * m + (1 << 16):
                self.path = "ascending"
                return self._walk(keys, first, last)
        return self._expand(keys)

    def _walk(
        self, probe_keys: np.ndarray, first: int, last: int
    ) -> tuple[np.ndarray | slice, np.ndarray]:
        """The ``ascending`` path: the build's key order over the chunk."""
        start = bisect_left(self._keys, first)
        stop = bisect_right(self._keys, last, start)
        # Over contiguous probe keys, key ``first + i`` is probe row i.
        ri = self._keys[start:stop] - first
        hit = None
        m = probe_keys.shape[0]
        span = last - first + 1
        if span > m:  # gaps: look each key's row up
            lookup = np.full(span, -1, dtype=np.int64)
            lookup[probe_keys - first] = np.arange(m, dtype=np.int64)
            ri = lookup[ri]
            matched = ri >= 0
            if not matched.all():
                hit = np.flatnonzero(matched)
                ri = ri[hit]
        if hit is None:
            if self._positions is None:
                return slice(start, stop), ri
            return self._positions[start:stop], ri
        hit += start
        return (hit if self._positions is None else self._positions[hit]), ri

    def _expand(
        self, probe_keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``distinct`` / ``expanded`` paths: through the count table."""
        if self._table is None:
            counts = np.bincount(
                self._keys - self._lo, minlength=self._span + 1
            )
            distinct = int(counts.max()) <= 1
            self._table = counts, np.cumsum(counts) - counts, distinct
        counts, starts, distinct = self._table
        self.path = "distinct" if distinct else "expanded"
        # Modulo 2^64 a key below ``lo`` wraps to a huge unsigned offset,
        # so one unsigned minimum sends both sides' strays to slot span.
        offsets = probe_keys - self._lo
        slots = np.minimum(
            offsets.view(np.uint64), np.uint64(self._span)
        ).view(np.int64)
        hits = counts[slots]
        if distinct:
            ri = np.flatnonzero(hits)
            at = starts[slots[ri]]
        else:
            ri = np.repeat(np.arange(slots.shape[0], dtype=np.int64), hits)
            # Run r's matches sit at starts[r], starts[r] + 1, …: the
            # output position minus the run's first output position.
            first = np.cumsum(hits) - hits
            at = np.repeat(starts[slots] - first, hits)
            at += np.arange(at.shape[0], dtype=np.int64)
        return (at if self._positions is None else self._positions[at]), ri


def _addressable(dtype: np.dtype) -> bool:
    """Whether every value of ``dtype`` is an integer that fits int64."""
    return dtype.kind in "ib" or (dtype.kind == "u" and dtype.itemsize < 8)


def _join_build(keys: np.ndarray, probe_dtype: np.dtype):
    """The build side of a chunked join, shared by every probe task.

    Chosen from the two key dtypes and the build keys' span alone:
    integers on both sides whose build span is within a fixed multiple
    of the build rows are addressed directly, everything else is sorted
    and searched.  Both emit the same index pairs in the same order.
    """
    n = keys.shape[0]
    if n and _addressable(keys.dtype) and _addressable(probe_dtype):
        keys = keys.astype(np.int64, copy=False)
        ordered = bool(np.all(keys[1:] >= keys[:-1]))
        if ordered:
            lo, hi = int(keys[0]), int(keys[-1])
        else:
            lo, hi = int(keys.min()), int(keys.max())
        span = hi - lo + 1
        if span <= 4 * n + (1 << 16):
            return _AddressedJoinBuild(keys, lo, span, ordered)
    return _SortedJoinBuild(keys)


# -- chunk operators -----------------------------------------------------
#
# Every compiled chunk function is a closure, made by its plan node's
# ``_compile_*`` method over what the operator reads: a task is its
# ``(start, stop)`` bounds (or a buffered chunk's index), and the
# operator stack maps it to one output chunk.  Chunks run in order on
# the thread that compiled them, the one that owns the tracer.


def _identity(table: Table) -> Table:
    return table


def _unnumbered(chunk: Table, start: int, stop: int) -> Table:
    return chunk


def _probe(fn: Callable, name: str, kind: str) -> Callable:
    """Traced runs only: run ``fn`` inside a span of its own.

    The span opens under whatever span is current — the chunk's, or
    the probe of the operator that called this one — reports the rows
    of a table result as ``rows_out``, and closes even when ``fn``
    raises.
    """
    tracer = get_tracer()

    def probed(*args):
        span = tracer.start(name, kind)
        try:
            out = fn(*args)
            rows = getattr(out, "n_rows", None)
            if rows is not None:
                span.attrs["rows_out"] = rows
            return out
        finally:
            tracer.finish(span)

    return probed


def _sampler_filter(
    sampler, left_t: Table, rt: Table, li: np.ndarray | slice, ri: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a fused lineage sample to index pairs pre-gather."""
    if isinstance(li, slice):
        li = np.arange(li.start, li.stop, dtype=np.int64)
    lin = {}
    for rel in sampler.rates:
        if rel in left_t.lineage:
            lin[rel] = left_t.lineage[rel][li]
        else:
            lin[rel] = rt.lineage[rel][ri]
    keep = sampler.keep(lin)
    return li[keep], ri[keep]


# -- block-stat scan pruning ----------------------------------------------

#: Comparison operators a (col, op, literal) conjunct can prune on.
_PRUNE_OPS = frozenset(("=", "<", "<=", ">", ">="))
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def _predicate_conjuncts(predicate) -> list[tuple[str, str, float]]:
    """Extract ``col OP literal`` conjuncts reachable through ANDs.

    Only conjunctions are safe to prune on (an OR branch could still
    match); anything that is not a plain column-vs-numeric-literal
    comparison is ignored, which is always conservative.
    """
    out: list[tuple[str, str, float]] = []

    def walk(node) -> None:
        if isinstance(node, ex.And):
            walk(node.left)
            walk(node.right)
            return
        if not isinstance(node, ex.Comparison) or node.op not in _PRUNE_OPS:
            return
        left, right, op = node.left, node.right, node.op
        if isinstance(left, ex.Lit) and isinstance(right, ex.Col):
            left, right, op = right, left, _FLIP[op]
        if not (isinstance(left, ex.Col) and isinstance(right, ex.Lit)):
            return
        value = right.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        out.append((left.name, op, float(value)))

    walk(predicate)
    return out


def _range_may_satisfy(op: str, lo: float, hi: float, value: float) -> bool:
    if op == "=":
        return lo <= value <= hi
    if op == "<":
        return lo < value
    if op == "<=":
        return lo <= value
    if op == ">":
        return hi > value
    return hi >= value  # ">="


def _ruled_out(
    conjuncts: list[tuple[str, str, float]], stats: Mapping[str, list]
) -> list[tuple[int, int]]:
    """The row ranges no row of which can satisfy every conjunct.

    Each is a stats block in which some conjunct is unsatisfiable;
    they come merged and in row order.  Blocks with ``None`` bounds
    (all-NaN or unindexed) conservatively may match, and rows no stats
    block covers are conservatively kept.
    """
    blocks = sorted(
        (bstart, bstop)
        for col, op, value in conjuncts
        for bstart, bstop, lo, hi in stats.get(col) or ()
        if lo is not None and not _range_may_satisfy(op, lo, hi, value)
    )
    merged: list[tuple[int, int]] = []
    for bstart, bstop in blocks:
        if merged and bstart <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], bstop))
        else:
            merged.append((bstart, bstop))
    return merged


def _kept_runs(
    bound: tuple[int, int], dropped: list[tuple[int, int]], align: int
) -> list[tuple[int, int]]:
    """The runs of ``bound`` outside the ``dropped`` ranges.

    Each run widens outward to multiples of ``align`` (within
    ``bound``, whose start is one), so a sampling block never straddles
    two tasks; runs that then meet are joined.
    """
    start, stop = bound
    runs: list[tuple[int, int]] = []
    at = start
    first = bisect_right(dropped, start, key=itemgetter(1))
    for dstart, dstop in islice(dropped, first, None):
        if dstart >= stop:
            break
        if dstart > at:
            runs.append((at, dstart))
        at = dstop
    if at < stop:
        runs.append((at, stop))
    widened: list[tuple[int, int]] = []
    for rstart, rstop in runs:
        rstart -= rstart % align
        rstop = min(stop, rstop + -rstop % align)
        if widened and rstart <= widened[-1][1]:
            widened[-1] = (widened[-1][0], rstop)
        else:
            widened.append((rstart, rstop))
    return widened


# -- the pipeline --------------------------------------------------------


@dataclass
class _Source:
    """A compiled chunk stream: task descriptors plus a pure mapper."""

    tasks: list
    fn: Callable


class ChunkedExecutor:
    """Chunked plan execution over the columnar engine.

    The supplied generator is consumed in plan post-order, so results
    are bit-for-bit equal at the same seed for any ``chunk_size``.
    Every task runs on the calling thread, in order.  The chunking is
    the source's own: with ``chunk_size`` ``None`` a source of up to
    :data:`~repro.relational.partition.CHUNK_ROWS` rows is one chunk
    and a larger one is cut into chunks of that many rows; an explicit
    ``chunk_size`` is always honoured.
    """

    def __init__(
        self,
        catalog: Mapping[str, Table],
        rng: np.random.Generator | None = None,
        *,
        workers: int | None = None,  # ignored; goes with ROADMAP item 2(f)
        chunk_size: int | None = None,
        shared_draws: dict | None = None,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ExecutionError(f"chunk_size must be >= 1, got {chunk_size}")
        self.catalog = dict(catalog)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.chunk_size = None if chunk_size is None else int(chunk_size)
        self._shared_draws = shared_draws
        self._draws: dict[int, Draw] = {}
        self._draw_nodes: list[p.PlanNode] = []
        self._probing = False

    # -- public API -----------------------------------------------------

    def execute(self, plan: p.PlanNode) -> Table:
        """Materialize the plan (the concatenation of its chunks)."""
        chunks = list(self.iter_chunks(plan))
        return concat_tables(chunks)

    def iter_chunks(
        self, plan: p.PlanNode, columns: frozenset[str] | None = None
    ) -> Iterator[Table]:
        """Stream the plan's output as chunk tables, in chunk order."""
        yield from self.map_chunks(plan, _identity, columns=columns)

    def map_chunks(
        self,
        plan: p.PlanNode,
        per_chunk: Callable[[Table], object],
        columns: frozenset[str] | None = None,
    ) -> Iterator[object]:
        """Apply ``per_chunk`` to every output chunk, in chunk order.

        This is the streaming-consumer entry point: ``per_chunk`` runs
        as part of the chunk task (e.g. folding the chunk into a
        compact moment contribution), and only its — typically tiny —
        result is yielded, so no chunk outlives its task.
        """
        self._probing = get_tracer() is not None
        self._prepare_draws(plan)
        align = required_alignment(plan)
        source = self._compile(plan, columns, align)
        yield from self._run_tasks(source, per_chunk, "chunk")

    def _run_tasks(
        self, source: "_Source", per_chunk: Callable, kind: str
    ) -> Iterator[object]:
        """Run a source's tasks on this thread, one after another.

        Traced, each task runs inside a ``kind[i]`` span, parent of its
        operators' probe spans, that closes before the task's result is
        yielded: no span stays open while the consumer holds it.
        """
        tracer = get_tracer()
        if tracer is None:
            for task in source.tasks:
                yield per_chunk(source.fn(task))
            return
        for index, task in enumerate(source.tasks):
            span = tracer.start(f"{kind}[{index}]", kind, chunk=index)
            try:
                chunk = source.fn(task)
                span.attrs["rows"] = chunk.n_rows
                out = per_chunk(chunk)
            finally:
                tracer.finish(span)
            yield out

    # -- sampling draws --------------------------------------------------

    def _prepare_draws(self, plan: p.PlanNode) -> None:
        """Fix every sampling node's randomness before execution.

        Draws are keyed by node identity and made over the whole base
        table in plan post-order (left to right) — the order the
        reference interpreter consumes the generator in, so both
        produce the same sample.  Given ``shared_draws``, a lineage-hash
        draw comes from that map when an executor before this one made
        it over as many rows (:func:`shared_draw`).
        """
        self._draws.clear()
        self._draw_nodes.clear()
        tracer = get_tracer()
        for node in _post_order(plan):
            if not isinstance(node, p.TableSample):
                continue
            base = self._base_table(node.child.table_name)
            with maybe_span(tracer, "draw.table_sample", kind="kernel"):
                draw = shared_draw(self._shared_draws, node.method, base.n_rows, self.rng)
            self._draws[id(node)] = draw
            self._draw_nodes.append(node)  # keep ids alive

    def _base_table(self, name: str) -> Table:
        try:
            return self.catalog[name]
        except KeyError:
            raise PlanError(
                f"unknown table {name!r}; catalog has {sorted(self.catalog)}"
            ) from None

    # -- static schema ---------------------------------------------------

    def _output_columns(self, node: p.PlanNode) -> list[str]:
        """Data columns this node's output carries (static walk)."""
        if isinstance(node, p.Scan):
            return list(self._base_table(node.table_name).schema.names)
        if isinstance(node, p.Project):
            if node.outputs is None:
                return self._output_columns(node.child)
            return list(node.outputs)
        if isinstance(node, (p.Join, p.CrossProduct)):
            return self._output_columns(node.left) + self._output_columns(
                node.right
            )
        if isinstance(node, (p.Union, p.Intersect)):
            return self._output_columns(node.left)
        if isinstance(node, p.Aggregate):
            return [s.alias for s in node.specs]
        if isinstance(node, p.GroupAggregate):
            return list(node.keys) + [s.alias for s in node.specs]
        if isinstance(
            node, (p.Select, p.TableSample, p.LineageSample, p.GUSNode)
        ):
            return self._output_columns(node.child)
        raise PlanError(f"cannot infer columns of {type(node).__name__}")

    def _column_dtype(self, node: p.PlanNode, name: str) -> np.dtype | None:
        """Dtype of an output column where a static walk can tell.

        Base columns keep their dtype through sampling, filtering,
        joins, set operations, grouping and renaming projections;
        computed columns and aggregates are ``None`` (unknown).
        """
        if isinstance(node, p.Scan):
            columns = self._base_table(node.table_name).columns
            return columns.dtype(name) if name in columns else None
        if isinstance(node, p.Project) and node.outputs is not None:
            expr = node.outputs.get(name)
            if not isinstance(expr, ex.Col):
                return None
            return self._column_dtype(node.child, expr.name)
        if isinstance(node, p.Aggregate) or (
            isinstance(node, p.GroupAggregate) and name not in node.keys
        ):
            return None
        for child in node.children:
            dtype = self._column_dtype(child, name)
            if dtype is not None:
                return dtype
        return None

    # -- compilation -----------------------------------------------------

    def _compile(
        self,
        node: p.PlanNode,
        needed: frozenset[str] | None,
        align: int,
    ) -> _Source:
        handler = self._COMPILERS.get(type(node))
        if handler is None:
            raise ExecutionError(f"cannot execute {type(node).__name__}")
        source = handler(self, node, needed, align)
        if self._probing:
            source.fn = _probe(source.fn, repr(node), "node")
        return source

    def _scan_source(
        self,
        table_name: str,
        needed: frozenset[str] | None,
        align: int,
        wrap: Callable[[Table, int, int], Table],
    ) -> _Source:
        base = self._base_table(table_name)
        n_rows = base.n_rows
        keep = list(base.schema.names)
        schema = base.schema
        if needed is not None:
            keep = [c for c in keep if c in needed]
            # Pruned schema only — the scan holds the *base* table (so
            # its mmap backing and block stats survive) and slices the
            # kept columns per chunk.
            schema = base.select_columns(keep).schema

        def scan(bound: tuple[int, int]) -> Table:
            # Slices the base table per chunk rather than holding
            # pre-sliced views: an mmap-backed table pages in only the
            # blocks its chunks touch.  The explicit row count keeps the
            # rows of a fully pruned scan (COUNT(*) reads no data
            # columns).
            start, stop = bound
            chunk = Table._share(
                base.name,
                base.columns.rows(slice(start, stop), keep),
                {},
                schema,
                stop - start,
            )
            return wrap(chunk, start, stop)

        bounds = chunk_bounds(n_rows, self.chunk_size, align)
        return _Source(tasks=bounds, fn=scan)

    def _compile_scan(
        self, node: p.Scan, needed: frozenset[str] | None, align: int
    ) -> _Source:
        name = node.table_name

        def positional_lineage(chunk: Table, start: int, stop: int) -> Table:
            return chunk.with_lineage(
                name, np.arange(start, stop, dtype=np.int64)
            )

        return self._scan_source(name, needed, align, positional_lineage)

    def _compile_table_sample(
        self, node: p.TableSample, needed: frozenset[str] | None, align: int
    ) -> _Source:
        name = node.child.table_name
        draw = self._draws[id(node)]
        rows, lineage = draw.rows, draw.lineage

        def sample(chunk: Table, start: int, stop: int) -> Table:
            # The draw ascends, so a task's kept positions are the run
            # two scalar bisections find: any [start, stop) will do.
            lo = bisect_left(rows, start)
            hi = bisect_left(rows, stop, lo)
            if hi - lo < stop - start:
                kept = rows[lo:hi]
                chunk = chunk.take(kept - start if start else kept)
            return chunk.with_lineage(name, lineage[lo:hi])

        if self._probing:
            # One operator per plan node, so the Scan reports its own
            # rows.  The sample stamps the lineage of the rows it keeps,
            # so the scan numbers none: a chunk's worth of positions
            # would be the largest allocation of a traced run.
            child = self._scan_source(name, needed, align, _unnumbered)
            scan = _probe(child.fn, repr(node.child), "node")
            return _Source(
                tasks=child.tasks, fn=lambda bound: sample(scan(bound), *bound)
            )
        return self._scan_source(name, needed, align, sample)

    def _compile_lineage_sample(
        self, node: p.LineageSample, needed: frozenset[str] | None, align: int
    ) -> _Source:
        if isinstance(node.child, p.Join) and not self._probing:
            # Fuse the lineage filter into the join probe: the keep
            # decision is a pure hash of lineage ids, so it can run on
            # the matched (li, ri) index pairs before any data column
            # is gathered — rows the sample drops are never built.
            return self._compile_join(
                node.child, needed, align, sampler=node.sampler
            )
        child = self._compile(node.child, needed, align)
        child_fn, keep = child.fn, node.sampler.keep
        if self._probing:
            keep = _probe(keep, "draw.lineage_hash", "kernel")

        def lineage_sample(task) -> Table:
            t = child_fn(task)
            return t.filter(keep(t.lineage))

        return _Source(tasks=child.tasks, fn=lineage_sample)

    def _scan_stats(self, node: p.PlanNode) -> Mapping[str, list] | None:
        """Block min/max stats of the base table a node scans, if any.

        Pruning below a TableSample is sound because draws are fixed
        per *global* row position in :meth:`_prepare_draws` (never per
        surviving task), so skipping rows the predicate would discard
        anyway changes no draw and no surviving row.
        """
        if isinstance(node, p.Scan):
            return self._base_table(node.table_name).block_stats
        if isinstance(node, p.TableSample):
            return self._base_table(node.child.table_name).block_stats
        return None

    def _compile_select(
        self, node: p.Select, needed: frozenset[str] | None, align: int
    ) -> _Source:
        child_needed = (
            None if needed is None else needed | node.predicate.columns_used()
        )
        child = self._compile(node.child, child_needed, align)
        tasks = child.tasks
        stats = self._scan_stats(node.child)
        dropped = (
            _ruled_out(_predicate_conjuncts(node.predicate), stats)
            if stats
            else []
        )
        if dropped:
            # Cut each task to the runs of blocks the predicate may
            # match: one chunk over a whole table prunes what a chunk
            # per block would.
            tasks = [
                run for bound in tasks for run in _kept_runs(bound, dropped, align)
            ]
            if not tasks:
                # Consumers need at least one (empty) chunk to carry
                # the schema.
                tasks = [(0, 0)]
        child_fn, predicate = child.fn, node.predicate

        def select(task) -> Table:
            t = child_fn(task)
            return t.filter(predicate.eval(t))

        return _Source(tasks=tasks, fn=select)

    def _compile_project(
        self, node: p.Project, needed: frozenset[str] | None, align: int
    ) -> _Source:
        if node.outputs is None:
            return self._compile(node.child, needed, align)
        outputs = dict(node.outputs)
        if needed is not None:
            outputs = {n: e for n, e in outputs.items() if n in needed}
        child_needed = (
            None
            if needed is None
            else frozenset().union(
                *[e.columns_used() for e in outputs.values()]
            )
            if outputs
            else frozenset()
        )
        child = self._compile(node.child, child_needed, align)
        child_fn = child.fn

        def project(task) -> Table:
            t = child_fn(task)
            columns = {n: expr.eval(t) for n, expr in outputs.items()}
            return Table(t.name, columns, t.lineage)

        return _Source(tasks=child.tasks, fn=project)

    def _compile_join(
        self,
        node: p.Join,
        needed: frozenset[str] | None,
        align: int,
        sampler=None,
    ) -> _Source:
        left_out = set(self._output_columns(node.left))
        right_out = set(self._output_columns(node.right))
        left_needed = (
            None
            if needed is None
            else frozenset(needed & left_out) | frozenset(node.left_keys)
        )
        right_needed = (
            None
            if needed is None
            else frozenset(needed & right_out) | frozenset(node.right_keys)
        )
        # Statically known key dtypes refuse a string-to-number join
        # before either side runs, and pick the probe: raw keys stream
        # only when both sides are known to be numeric (a computed key
        # is known once its chunks are buffered, and checked there).
        left_keys, right_keys = tuple(node.left_keys), tuple(node.right_keys)
        right_dtypes = [self._column_dtype(node.right, k) for k in right_keys]
        check_join_key_dtypes(
            left_keys,
            [self._column_dtype(node.left, k) for k in left_keys],
            right_keys,
            right_dtypes,
        )
        left_table = self._materialize(node.left, left_needed, align)
        right_src = self._compile(node.right, right_needed, align)
        left_key_cols = [left_table.column(k) for k in left_keys]
        single_numeric = (
            len(left_keys) == 1
            and left_key_cols[0].dtype.kind in "iufb"
            and right_dtypes[0] is not None
            and right_dtypes[0].kind in "iufb"
        )
        tracer = get_tracer()

        if single_numeric:
            # Streaming probe: raw keys compare directly across sides.
            with maybe_span(tracer, "join.factorize_probe", kind="kernel"):
                build = _join_build(left_key_cols[0], right_dtypes[0])
            tasks, right_fn, key = right_src.tasks, right_src.fn, right_keys[0]

            def chunk_keys(task) -> tuple[Table, np.ndarray]:
                rt = right_fn(task)
                return rt, rt.column(key)

        else:
            # Object or multi-column keys: buffer the (pruned) probe
            # chunks and factorize both sides jointly to dense int64
            # codes, then probe per chunk on the codes.  Inputs are
            # bounded by the base tables; the join output still streams.
            rights = list(self._run_tasks(right_src, _identity, "build"))
            check_join_key_dtypes(
                left_keys,
                [c.dtype for c in left_key_cols],
                right_keys,
                [rights[0].columns.dtype(k) for k in right_keys],
            )
            with maybe_span(tracer, "join.factorize_probe", kind="kernel"):
                right_cols = [
                    np.concatenate([rt.column(k) for rt in rights])
                    for k in right_keys
                ]
                lcodes, rcodes = join_codes(left_key_cols, right_cols)
                build = _join_build(lcodes, rcodes.dtype)
            offsets = np.cumsum([0] + [rt.n_rows for rt in rights])
            tasks = list(range(len(rights)))

            def chunk_keys(index: int) -> tuple[Table, np.ndarray]:
                start, stop = offsets[index], offsets[index + 1]
                return rights[index], rcodes[start:stop]

        probing = self._probing

        def probe(task) -> Table:
            rt, keys = chunk_keys(task)
            li, ri = build.probe(keys)
            if probing:  # this join's node span is the innermost open one
                tracer.current().attrs["probe"] = build.path
            if sampler is not None:
                li, ri = _sampler_filter(sampler, left_table, rt, li, ri)
            return combine_rows(left_table, rt, li, ri)

        return _Source(tasks=tasks, fn=probe)

    def _compile_cross(
        self, node: p.CrossProduct, needed: frozenset[str] | None, align: int
    ) -> _Source:
        left_out = set(self._output_columns(node.left))
        right_out = set(self._output_columns(node.right))
        left_needed = (
            None if needed is None else frozenset(needed & left_out)
        )
        right_needed = (
            None if needed is None else frozenset(needed & right_out)
        )
        # Stream the *left* side so chunk concatenation reproduces the
        # reference interpreter's left-major output order.
        right_table = self._materialize(node.right, right_needed, align)
        left_src = self._compile(node.left, left_needed, align)
        left_fn, n_right = left_src.fn, right_table.n_rows

        def cross(task) -> Table:
            lt = left_fn(task)
            li = np.repeat(np.arange(lt.n_rows, dtype=np.int64), n_right)
            ri = np.tile(np.arange(n_right, dtype=np.int64), lt.n_rows)
            return combine_rows(lt, right_table, li, ri)

        return _Source(tasks=left_src.tasks, fn=cross)

    def _compile_materialized(
        self, node: p.PlanNode, needed: frozenset[str] | None, align: int
    ) -> _Source:
        """Pipeline breakers: evaluate whole, then re-chunk the result."""
        table = self._evaluate_breaker(node, needed, align)
        bounds = chunk_bounds(table.n_rows, self.chunk_size, 1)
        return _Source(tasks=bounds, fn=lambda bound: table.slice(*bound))

    def _evaluate_breaker(
        self, node: p.PlanNode, needed: frozenset[str] | None, align: int
    ) -> Table:
        if isinstance(node, p.Union):
            return union_tables(
                self._materialize(node.left, needed, align),
                self._materialize(node.right, needed, align),
            )
        if isinstance(node, p.Intersect):
            return intersect_tables(
                self._materialize(node.left, needed, align),
                self._materialize(node.right, needed, align),
            )
        if isinstance(node, p.Aggregate):
            child_needed = aggregate_columns(node.specs)
            return evaluate_aggregates(
                self._materialize(node.child, child_needed, align), node.specs
            )
        if isinstance(node, p.GroupAggregate):
            child_needed = aggregate_columns(node.specs, node.keys)
            return evaluate_group_aggregates(
                self._materialize(node.child, child_needed, align),
                node.keys,
                node.specs,
                node.having,
            )
        raise ExecutionError(
            f"cannot materialize {type(node).__name__}"
        )  # pragma: no cover - guarded by _COMPILERS

    def _compile_gus(
        self, node: p.GUSNode, needed: frozenset[str] | None, align: int
    ) -> _Source:
        raise ExecutionError(
            "GUS is a quasi-operator used for analysis only; executable "
            "plans carry TableSample/LineageSample nodes instead"
        )

    def _materialize(
        self, node: p.PlanNode, needed: frozenset[str] | None, align: int
    ) -> Table:
        source = self._compile(node, needed, align)
        return concat_tables(list(self._run_tasks(source, _identity, "build")))

    _COMPILERS = {
        p.Scan: _compile_scan,
        p.TableSample: _compile_table_sample,
        p.LineageSample: _compile_lineage_sample,
        p.Select: _compile_select,
        p.Project: _compile_project,
        p.Join: _compile_join,
        p.CrossProduct: _compile_cross,
        p.Union: _compile_materialized,
        p.Intersect: _compile_materialized,
        p.Aggregate: _compile_materialized,
        p.GroupAggregate: _compile_materialized,
        p.GUSNode: _compile_gus,
    }


def shared_draw(
    shared: dict | None,
    method: SamplingMethod,
    n_rows: int,
    rng: np.random.Generator,
) -> Draw:
    """``method.draw(n_rows, rng)``, made once per ``shared`` map.

    A lineage-hash draw is a pure function of ``(class, seed, p)`` and
    the base row count, so the sides of one coordinated version
    difference over versions of one length keep the same positions:
    ``shared`` maps ``(class, seed, p, n_rows)`` to its draw, and the
    second side takes the first side's.  A draw's arrays are read-only
    (:class:`~repro.sampling.base.Draw`), so the sides can hold them at
    once.  An RNG-driven method (Bernoulli, without replacement, block)
    never shares: it consumes the generator, and skipping a draw would
    move every later one.
    """
    if shared is None or not isinstance(method, LineageHashBernoulli):
        return method.draw(n_rows, rng)
    key = (type(method), method.seed, method.p, n_rows)
    draw = shared.get(key)
    if draw is None:
        draw = shared[key] = method.draw(n_rows, rng)
    return draw


def _post_order(node: p.PlanNode):
    """Children before parents, left to right — the reference
    interpreter's generator-consumption order."""
    for child in node.children:
        yield from _post_order(child)
    yield node

"""The plan execution engine: chunked, folded in order on the caller.

:class:`ChunkedExecutor` is the one engine behind ``Database.sql`` /
``estimate`` / ``execute``.  A plan compiles into *(tasks, fn)* sources
where each task is one chunk of base rows and ``fn`` runs the whole
operator stack — scan → sample → filter → project → join probe — over
that chunk.  Tasks are pure and independent; the calling thread runs
them one after another in chunk order.  With no worker count given
there is nothing to partition for: every source is one chunk — the
unpartitioned case is the pipeline with k = 1, not a second engine.

Reproducibility contract (tested property, not aspiration):

* **Worker invariance** — ``workers`` only picks the chunking, the
  same task callables run in the same order, so every ``workers``
  value >= 1 produces bit-for-bit identical output.
* **Partition invariance** — randomness is a function of the *global*
  row position, never of chunk boundaries: every sampling node draws
  once over its whole base table before any chunk runs, and a chunk
  only slices that draw.  The draws consume the generator in plan
  post-order, exactly as the reference interpreter
  (:class:`~repro.relational.executor.Executor`) does, so one seed maps
  to one realization on both — which is what lets the interpreter be
  the independent reference this engine is tested against.

Joins execute as build/probe: the build side is materialized once and
its (factorized) join keys indexed once — one build shared by every
probe task — and probe chunks stream through it.
Integer keys over a compact span are addressed directly
(:class:`_AddressedJoinBuild`: a histogram of the keys, its running
sum, and no row order at all when the keys already ascend); any other
keys are sorted once and binary-searched (:class:`_SortedJoinBuild`).
:func:`_join_build` picks between them from the key dtypes and the
build span alone.  Each output chunk is emitted in the canonical
(right-major, left-ascending) order the reference sort-probe join
produces, so concatenating the chunks reproduces it bit-for-bit while
the join *output* is never materialized by streaming consumers.

Column pruning: estimation consumers pass the columns they need and
every operator forwards only those (plus whatever its own predicates
and keys read) — scans slice views instead of gathering, and join
probes gather a handful of arrays instead of both tables' full width.

Tracing: when (and only when) a tracer is active, every compiled
operator is wrapped in a :class:`_Probe` and fused operators are
compiled apart, so each plan node reports its own ``rows_out`` and
timing from inside the chunk task; the driver replays those records as
``node`` spans under the chunk's span.  Untraced runs compile no
probes.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterator, Mapping
from contextvars import ContextVar
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

from repro.errors import ExecutionError, PlanError
from repro.obs.trace import get_tracer, maybe_span
from repro.relational import expressions as ex
from repro.relational import plan as p
from repro.relational.aggregates import (
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
from repro.relational.partition import (
    DEFAULT_CHUNK_ROWS,
    chunk_bounds,
    required_alignment,
)
from repro.relational.table import Table, concat_column
from repro.sampling.base import Draw

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

    def __init__(self, keys: np.ndarray) -> None:
        self._positions = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._positions]

    def probe(self, probe_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Match one probe chunk; canonical-order ``(li, ri_local)``."""
        return probe_sorted(self._sorted_keys, self._positions, probe_keys)


def _radix_order(offsets: np.ndarray, span: int) -> np.ndarray:
    """The stable sort order of ``offsets`` in ``[0, span)``, in O(n).

    ``np.argsort`` of a 16-bit key, ``kind="stable"``, is numpy's radix
    sort; wider keys take one such pass per 16-bit digit, least
    significant first.
    """
    order = np.argsort(offsets.astype(np.uint16), kind="stable")
    shift = 16
    while span > 1 << shift:
        digit = (offsets[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


class _AddressedJoinBuild:
    """Integer keys over a compact span: addressed, never searched.

    ``counts[k - lo]`` build rows carry key ``k`` and sit at
    ``starts[k - lo]`` onward in key order, so a probe is two gathers
    where the sorted build needs two binary searches per key.  The key
    order of the build rows is *nothing* when one comparison pass finds
    the keys non-decreasing (a scan-order sample of a fact table
    clustered on its parent key) and a stable radix order otherwise.
    Slot ``span`` of both arrays is the empty run every probe key
    outside ``[lo, lo + span)`` is sent to.  Emits exactly the
    ``(li, ri)`` of :class:`_SortedJoinBuild`.
    """

    __slots__ = ("_lo", "_counts", "_starts", "_positions", "_distinct")

    def __init__(
        self, keys: np.ndarray, lo: int, span: int, ordered: bool
    ) -> None:
        offsets = keys - lo
        counts = np.bincount(offsets, minlength=span + 1)
        self._lo = lo
        self._counts = counts
        self._starts = np.cumsum(counts) - counts
        self._positions = None if ordered else _radix_order(offsets, span)
        self._distinct = int(counts.max()) <= 1

    def probe(self, probe_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Match one probe chunk; canonical-order ``(li, ri_local)``."""
        # Modulo 2^64 a key below ``lo`` wraps to a huge unsigned offset,
        # so one unsigned minimum sends both sides' strays to slot span.
        offsets = probe_keys.astype(np.int64, copy=False) - self._lo
        span = np.uint64(self._counts.shape[0] - 1)
        slots = np.minimum(offsets.view(np.uint64), span).view(np.int64)
        counts = self._counts[slots]
        if self._distinct:
            ri = np.flatnonzero(counts)
            at = self._starts[slots[ri]]
        else:
            ri = np.repeat(np.arange(slots.shape[0], dtype=np.int64), counts)
            # Run r's matches sit at starts[r], starts[r] + 1, …: the
            # output position minus the run's first output position.
            first = np.cumsum(counts) - counts
            at = np.repeat(self._starts[slots] - first, counts)
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
# Every compiled chunk function is a module-level ``__slots__`` class:
# a task is its ``(start, stop)`` bounds (or a buffered chunk's index),
# and the operator stack maps it to one output chunk.


def _identity(table: Table) -> Table:
    return table


#: The running traced task's ``(log, open-probe stack)``.  Set by
#: :class:`_TracedTask` for the extent of one task, so probes never
#: share a log across tasks.
_PROBE_FRAME: ContextVar[tuple[list, list]] = ContextVar("repro_probe_frame")


class _Probe:
    """Traced runs only: time one operator or kernel inside a chunk task.

    Appends ``[name, kind, parent index, start_ns, end_ns, rows_out]``
    to the task's log in call order (parents before children) — never
    to the tracer: the driver replays the log under the task's span.
    """

    __slots__ = ("fn", "name", "kind")

    def __init__(self, fn: Callable, name: str, kind: str) -> None:
        self.fn = fn
        self.name = name
        self.kind = kind

    def __call__(self, *args):
        log, stack = _PROBE_FRAME.get()
        entry = [
            self.name,
            self.kind,
            stack[-1] if stack else None,
            perf_counter_ns(),
            0,
            None,
        ]
        stack.append(len(log))
        log.append(entry)
        out = self.fn(*args)
        entry[4] = perf_counter_ns()
        entry[5] = getattr(out, "n_rows", None)
        stack.pop()
        return out


class _TracedTask:
    """Task wrapper that measures its own chunk.

    The task never touches the tracer: it returns the measurement (and
    the probes' log) and the driver records the spans in chunk order.
    """

    __slots__ = ("fn", "per_chunk")

    def __init__(self, fn: Callable, per_chunk: Callable) -> None:
        self.fn = fn
        self.per_chunk = per_chunk

    def __call__(self, task):
        log: list = []
        token = _PROBE_FRAME.set((log, []))
        try:
            t0 = perf_counter_ns()
            chunk = self.fn(task)
            rows = chunk.n_rows
            out = self.per_chunk(chunk)
            t1 = perf_counter_ns()
        finally:
            _PROBE_FRAME.reset(token)
        return out, (t0, t1, rows, log)


class _ScanFn:
    """Slice one chunk out of a base table, column-pruned, zero-copy.

    Holds the base table itself, not pre-sliced views: an mmap-backed
    table pages in only the blocks its chunks touch.
    """

    __slots__ = ("table", "keep", "schema", "wrap")

    def __init__(self, table: Table, keep, schema, wrap) -> None:
        self.table = table
        self.keep = keep
        self.schema = schema
        self.wrap = wrap

    def __call__(self, bound: tuple[int, int]) -> Table:
        # Slice with an explicit row count: a fully pruned scan
        # (COUNT(*) reads no data columns) still carries its rows.
        start, stop = bound
        chunk = Table._share(
            self.table.name,
            self.table.columns.rows(slice(start, stop), self.keep),
            {},
            self.schema,
            stop - start,
        )
        return self.wrap(chunk, start, stop)


class _LineageWrap:
    """Scan epilogue: attach positional lineage ids."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __call__(self, chunk: Table, start: int, stop: int) -> Table:
        return chunk.with_lineage(
            self.name, np.arange(start, stop, dtype=np.int64)
        )


class _SampleWrap:
    """TableSample epilogue: lineage ids plus the draw's keep-mask.

    ``draw`` covers the whole base table; a chunk slices its rows.
    """

    __slots__ = ("name", "draw")

    def __init__(self, name: str, draw: Draw) -> None:
        self.name = name
        self.draw = draw

    def __call__(self, chunk: Table, start: int, stop: int) -> Table:
        kept = chunk.with_lineage(self.name, self.draw.lineage[start:stop])
        return kept.filter(self.draw.mask[start:stop])


class _SampleFn:
    """Un-fused TableSample (traced runs): draw over a scanned chunk."""

    __slots__ = ("child_fn", "wrap")

    def __init__(self, child_fn: Callable, wrap: _SampleWrap) -> None:
        self.child_fn = child_fn
        self.wrap = wrap

    def __call__(self, bound: tuple[int, int]) -> Table:
        return self.wrap(self.child_fn(bound), *bound)


class _LineageSampleFn:
    """Un-fused lineage sample: filter the child chunk by lineage hash."""

    __slots__ = ("child_fn", "keep")

    def __init__(self, child_fn: Callable, keep: Callable) -> None:
        self.child_fn = child_fn
        self.keep = keep

    def __call__(self, task) -> Table:
        t = self.child_fn(task)
        return t.filter(self.keep(t.lineage))


class _SelectFn:
    __slots__ = ("child_fn", "predicate")

    def __init__(self, child_fn: Callable, predicate) -> None:
        self.child_fn = child_fn
        self.predicate = predicate

    def __call__(self, task) -> Table:
        t = self.child_fn(task)
        return t.filter(self.predicate.eval(t))


class _ProjectFn:
    __slots__ = ("child_fn", "outputs")

    def __init__(self, child_fn: Callable, outputs: dict) -> None:
        self.child_fn = child_fn
        self.outputs = outputs

    def __call__(self, task) -> Table:
        t = self.child_fn(task)
        return Table(
            t.name,
            {n: expr.eval(t) for n, expr in self.outputs.items()},
            t.lineage,
        )


def _sampler_filter(
    sampler, left_t: Table, rt: Table, li: np.ndarray, ri: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a fused lineage sample to index pairs pre-gather."""
    lin = {}
    for rel in sampler.rates:
        if rel in left_t.lineage:
            lin[rel] = left_t.lineage[rel][li]
        else:
            lin[rel] = rt.lineage[rel][ri]
    keep = sampler.keep(lin)
    return li[keep], ri[keep]


class _StreamJoinFn:
    """Single-numeric-key join probe over a streaming right side."""

    __slots__ = ("build", "right_fn", "key_name", "left_table", "sampler")

    def __init__(self, build, right_fn, key_name, left_table, sampler) -> None:
        self.build = build
        self.right_fn = right_fn
        self.key_name = key_name
        self.left_table = left_table
        self.sampler = sampler

    def __call__(self, task) -> Table:
        rt = self.right_fn(task)
        li, ri = self.build.probe(rt.column(self.key_name))
        if self.sampler is not None:
            li, ri = _sampler_filter(self.sampler, self.left_table, rt, li, ri)
        return combine_rows(self.left_table, rt, li, ri)


class _BufferedJoinFn:
    """Joint-factorized join probe over buffered right chunks."""

    __slots__ = ("build", "rights", "rcodes", "offsets", "left_table", "sampler")

    def __init__(
        self, build, rights, rcodes, offsets, left_table, sampler
    ) -> None:
        self.build = build
        self.rights = rights
        self.rcodes = rcodes
        self.offsets = offsets
        self.left_table = left_table
        self.sampler = sampler

    def __call__(self, index: int) -> Table:
        rt = self.rights[index]
        codes = self.rcodes[self.offsets[index] : self.offsets[index + 1]]
        li, ri = self.build.probe(codes)
        if self.sampler is not None:
            li, ri = _sampler_filter(self.sampler, self.left_table, rt, li, ri)
        return combine_rows(self.left_table, rt, li, ri)


class _CrossFn:
    __slots__ = ("left_fn", "right_table")

    def __init__(self, left_fn: Callable, right_table: Table) -> None:
        self.left_fn = left_fn
        self.right_table = right_table

    def __call__(self, task) -> Table:
        lt = self.left_fn(task)
        li = np.repeat(
            np.arange(lt.n_rows, dtype=np.int64), self.right_table.n_rows
        )
        ri = np.tile(
            np.arange(self.right_table.n_rows, dtype=np.int64), lt.n_rows
        )
        return combine_rows(lt, self.right_table, li, ri)


class _SliceFn:
    """Pipeline breakers re-chunk a materialized result by slicing."""

    __slots__ = ("table",)

    def __init__(self, table: Table) -> None:
        self.table = table

    def __call__(self, bound: tuple[int, int]) -> Table:
        return self.table.slice(*bound)


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


def _chunk_may_match(
    start: int,
    stop: int,
    conjuncts: list[tuple[str, str, float]],
    stats: Mapping[str, list],
) -> bool:
    """Whether any row of ``[start, stop)`` can satisfy every conjunct.

    A chunk is pruned when some conjunct is unsatisfiable in *all* the
    stats blocks it overlaps.  Blocks with ``None`` bounds (all-NaN or
    unindexed) conservatively may match, and a chunk overlapping no
    stats block at all is conservatively kept.
    """
    for col, op, value in conjuncts:
        blocks = stats.get(col)
        if not blocks:
            continue
        possible = overlapped = False
        for bstart, bstop, lo, hi in blocks:
            if bstop <= start or bstart >= stop:
                continue
            overlapped = True
            if lo is None or _range_may_satisfy(op, lo, hi, value):
                possible = True
                break
        if overlapped and not possible:
            return False
    return True


# -- the pipeline --------------------------------------------------------


@dataclass
class _Source:
    """A compiled chunk stream: task descriptors plus a pure mapper."""

    tasks: list
    fn: Callable


class ChunkedExecutor:
    """Chunked plan execution over the columnar engine.

    The supplied generator is consumed in plan post-order, so results
    are bit-for-bit equal at the same seed for any ``workers`` and
    ``chunk_size``.  Every task runs on the calling thread, in order;
    ``workers`` only picks the partitioning when ``chunk_size`` is
    ``None``: ``None`` (or 0) makes each source one chunk, any value
    >= 1 makes :data:`~repro.relational.partition.DEFAULT_CHUNK_ROWS`
    chunks — a count above 1 changes nothing further.  An explicit
    ``chunk_size`` is always honoured.
    """

    def __init__(
        self,
        catalog: Mapping[str, Table],
        rng: np.random.Generator | None = None,
        *,
        workers: int | None = 1,
        chunk_size: int | None = None,
    ) -> None:
        if chunk_size is None:
            one_chunk = workers is None or workers < 1
            chunk_size = sys.maxsize if one_chunk else DEFAULT_CHUNK_ROWS
        if chunk_size < 1:
            raise ExecutionError(f"chunk_size must be >= 1, got {chunk_size}")
        self.catalog = dict(catalog)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.chunk_size = int(chunk_size)
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

        Traced, each task measures itself (never touching the tracer)
        and the driver records a ``kind[i]`` span per task with the
        task's probe log replayed beneath it.
        """
        tracer = get_tracer()
        if tracer is None:
            for task in source.tasks:
                yield per_chunk(source.fn(task))
            return
        parent = tracer.current_id()
        traced = _TracedTask(source.fn, per_chunk)
        for index, task in enumerate(source.tasks):
            out, (t0, t1, rows, log) = traced(task)
            task_id = tracer.record_span(
                f"{kind}[{index}]",
                kind,
                start_ns=t0,
                end_ns=t1,
                parent_id=parent,
                chunk=index,
                rows=rows,
            )
            ids: list[int | None] = []
            for name, span_kind, up, p0, p1, rows_out in log:
                attrs = {} if rows_out is None else {"rows_out": rows_out}
                ids.append(
                    tracer.record_span(
                        name,
                        span_kind,
                        start_ns=p0,
                        end_ns=p1,
                        parent_id=task_id if up is None else ids[up],
                        **attrs,
                    )
                )
            yield out

    # -- sampling draws --------------------------------------------------

    def _prepare_draws(self, plan: p.PlanNode) -> None:
        """Fix every sampling node's randomness before execution.

        Draws are keyed by node identity and made over the whole base
        table in plan post-order (left to right) — the order the
        reference interpreter consumes the generator in, so both
        produce the same sample.
        """
        self._draws.clear()
        self._draw_nodes.clear()
        tracer = get_tracer()
        for node in _post_order(plan):
            if not isinstance(node, p.TableSample):
                continue
            base = self._base_table(node.child.table_name)
            with maybe_span(tracer, "draw.table_sample", kind="kernel"):
                draw = node.method.draw(base.n_rows, self.rng)
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
            source.fn = _Probe(source.fn, repr(node), "node")
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
        bounds = chunk_bounds(n_rows, self.chunk_size, align)
        return _Source(tasks=bounds, fn=_ScanFn(base, keep, schema, wrap))

    def _compile_scan(
        self, node: p.Scan, needed: frozenset[str] | None, align: int
    ) -> _Source:
        name = node.table_name
        return self._scan_source(name, needed, align, _LineageWrap(name))

    def _compile_table_sample(
        self, node: p.TableSample, needed: frozenset[str] | None, align: int
    ) -> _Source:
        name = node.child.table_name
        wrap = _SampleWrap(name, self._draws[id(node)])
        if self._probing:
            # One operator per plan node, so the Scan reports its own rows.
            child = self._compile(node.child, needed, align)
            return _Source(tasks=child.tasks, fn=_SampleFn(child.fn, wrap))
        return self._scan_source(name, needed, align, wrap)

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
        keep = node.sampler.keep
        if self._probing:
            keep = _Probe(keep, "draw.lineage_hash", "kernel")
        return _Source(tasks=child.tasks, fn=_LineageSampleFn(child.fn, keep))

    def _scan_stats(self, node: p.PlanNode) -> Mapping[str, list] | None:
        """Block min/max stats of the base table a node scans, if any.

        Pruning below a TableSample is sound because draws are fixed
        per *global* row position in :meth:`_prepare_draws` (never per
        surviving chunk), so skipping a chunk whose rows the predicate
        would discard anyway changes no draw and no surviving row.
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
        if stats:
            conjuncts = _predicate_conjuncts(node.predicate)
            if conjuncts:
                tasks = [
                    bound
                    for bound in tasks
                    if _chunk_may_match(bound[0], bound[1], conjuncts, stats)
                ]
                if not tasks:
                    # Consumers need at least one (empty) chunk to
                    # carry the schema.
                    tasks = [(0, 0)]
        return _Source(tasks=tasks, fn=_SelectFn(child.fn, node.predicate))

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
        return _Source(tasks=child.tasks, fn=_ProjectFn(child.fn, outputs))

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
            return _Source(
                tasks=right_src.tasks,
                fn=_StreamJoinFn(
                    build, right_src.fn, right_keys[0], left_table, sampler
                ),
            )

        # Object or multi-column keys: buffer the (pruned) probe chunks
        # and factorize both sides jointly to dense int64 codes, then
        # probe per chunk on the codes.  Inputs are bounded by the base
        # tables; the join output still streams.
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
        return _Source(
            tasks=list(range(len(rights))),
            fn=_BufferedJoinFn(
                build, rights, rcodes, offsets, left_table, sampler
            ),
        )

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
        return _Source(
            tasks=left_src.tasks, fn=_CrossFn(left_src.fn, right_table)
        )

    def _compile_materialized(
        self, node: p.PlanNode, needed: frozenset[str] | None, align: int
    ) -> _Source:
        """Pipeline breakers: evaluate whole, then re-chunk the result."""
        table = self._evaluate_breaker(node, needed, align)
        bounds = chunk_bounds(table.n_rows, self.chunk_size, 1)
        return _Source(tasks=bounds, fn=_SliceFn(table))

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
            child_needed = _spec_columns(node.specs)
            return evaluate_aggregates(
                self._materialize(node.child, child_needed, align), node.specs
            )
        if isinstance(node, p.GroupAggregate):
            child_needed = _spec_columns(node.specs) | frozenset(node.keys)
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


def _spec_columns(specs) -> frozenset[str]:
    cols: frozenset[str] = frozenset()
    for spec in specs:
        if spec.expr is not None:
            cols |= spec.expr.columns_used()
    return cols


def _post_order(node: p.PlanNode):
    """Children before parents, left to right — the reference
    interpreter's generator-consumption order."""
    for child in node.children:
        yield from _post_order(child)
    yield node

"""The reference plan interpreter, and the operator kernels it shares.

:class:`Executor` materializes each plan node bottom-up as one whole
table.  It is **not** on the query path: ``Database.sql`` / ``estimate``
/ ``execute`` always run the chunked pipeline
(:mod:`repro.relational.pipeline`).  The interpreter stays because it
is the independent reference — ``Database.execute_exact`` /
``sql_exact`` (the fuzzer's and the benchmark's ground truth), the
Monte-Carlo checks in :mod:`repro.core.soa` and the pipeline's own
tests compare against it.  Running the exact answer through the engine
under test would blind the oracle to exactly that engine's failure
modes (a pruned column, a wrongly skipped zone-map chunk, the fused
lineage filter), so it shares only the operator kernels below with the
pipeline, never the plan walk — and not the join either: the pipeline
addresses integer keys directly (``pipeline._join_build``), so
:func:`join_indices` here is the independent reference its index pairs
are tested against, and the general build it falls back to.

Sampling nodes draw from the supplied RNG (``TableSample``) or evaluate
their deterministic lineage hash (``LineageSample``).  ``GUSNode`` is
analysis-only and refuses to execute, matching the paper's
quasi-operator semantics.

Joins are equi-joins implemented with a sort + ``searchsorted``
multi-range gather — O((n+m)·log n) with fully vectorized index
construction.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.estimator import group_firsts, group_ids
from repro.errors import ExecutionError, PlanError, SchemaError
from repro.relational import plan as p
from repro.relational.aggregates import (
    evaluate_aggregates,
    evaluate_group_aggregates,
)
from repro.relational.table import Table


def join_indices(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-index pairs ``(li, ri)`` with ``left_keys[li] == right_keys[ri]``.

    Sorts the left side once, then finds each right key's run with two
    binary searches and expands the runs with a vectorized
    repeat/cumsum gather (no Python-level loop over rows).
    """
    if left_keys.shape[0] == 0 or right_keys.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(left_keys, kind="stable")
    return probe_sorted(left_keys[order], order, right_keys)


def probe_sorted(
    sorted_keys: np.ndarray,
    left_positions: np.ndarray,
    right_keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Probe an already-sorted build side.

    ``sorted_keys`` are the build keys in ascending order and
    ``left_positions[i]`` the original row index of ``sorted_keys[i]``.
    Returns ``(li, ri)`` in the canonical join output order: right keys
    major, matching left rows ascending within each (the stable sort
    guarantees run order equals original left row order).  This is the
    probe core of the interpreter's join and of the chunked pipeline's
    general (sorted) build.
    """
    empty = np.empty(0, dtype=np.int64)
    n_right = right_keys.shape[0]
    if sorted_keys.shape[0] == 0 or n_right == 0:
        return empty, empty
    # Foreign keys arrive in runs of equal values (a fact table clusters
    # its parent key); binary-search once per run, not once per row.
    # NaNs compare unequal to themselves so each gets its own run —
    # correct, merely uncompressed.
    run_starts = None
    if n_right >= 64 and right_keys.dtype.kind != "O":
        new_run = np.empty(n_right, dtype=bool)
        new_run[0] = True
        np.not_equal(right_keys[1:], right_keys[:-1], out=new_run[1:])
        n_runs = int(np.count_nonzero(new_run))
        if 2 * n_runs <= n_right:
            run_starts = new_run
    if run_starts is not None:
        run_ids = np.cumsum(run_starts) - 1
        reps = right_keys[run_starts]
        starts = np.searchsorted(sorted_keys, reps, side="left")[run_ids]
        ends = np.searchsorted(sorted_keys, reps, side="right")[run_ids]
    else:
        starts = np.searchsorted(sorted_keys, right_keys, side="left")
        ends = np.searchsorted(sorted_keys, right_keys, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return empty, empty
    ri = np.repeat(np.arange(right_keys.shape[0], dtype=np.int64), counts)
    # Positions within each run: global arange minus each run's offset.
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total, dtype=np.int64) - offsets
    li = left_positions[np.repeat(starts, counts) + within]
    return li, ri


def join_codes(
    left_cols: list[np.ndarray], right_cols: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Encode both sides' join keys into directly comparable arrays.

    Single numeric columns join on their raw values (the int64 fast
    path feeds numpy's radix sort).  Object/string columns and
    multi-column keys are *jointly* factorized to dense int64 codes —
    one grouping pass over the concatenated key columns — so the
    sort + ``searchsorted`` probe runs on radix-friendly int64 instead
    of comparing Python objects element by element.

    Joint factorization is also what makes multi-column keys correct:
    codes assigned per side independently would be incomparable (side
    A's code 0 and side B's code 0 can encode different key tuples).
    Float key columns group under numpy's sort total order — all NaNs
    equal, sorted last — matching exactly what the raw-value
    sort/searchsorted path does with NaN keys.
    """
    if len(left_cols) == 1:
        lk, rk = left_cols[0], right_cols[0]
        if lk.dtype.kind in "iufb" and rk.dtype.kind in "iufb":
            return lk, rk
    n_left = left_cols[0].shape[0]
    n_right = right_cols[0].shape[0]
    n_total = n_left + n_right
    expanded: list[np.ndarray] = []
    for lc, rc in zip(left_cols, right_cols):
        combined = np.concatenate([lc, rc])
        if combined.dtype.kind == "f":
            # Split into (value-with-NaN-filled, is-NaN): grouping then
            # equates NaNs with each other and orders them last, i.e.
            # numpy's sort order, so output row order matches the
            # raw-value probe exactly.
            isnan = np.isnan(combined)
            expanded.append(np.where(isnan, 0.0, combined))
            expanded.append(isnan)
        else:
            expanded.append(combined)
    codes, _ = group_ids(expanded, n_total)
    return codes[:n_left], codes[n_left:]


def check_join_key_dtypes(
    left_keys: Sequence[str],
    left_dtypes: Sequence[np.dtype | None],
    right_keys: Sequence[str],
    right_dtypes: Sequence[np.dtype | None],
) -> None:
    """Refuse an equi-join of a string key to a numeric key.

    The two never compare equal, and sorting or searching them together
    would surface as a bare ``TypeError`` from inside numpy.  A dtype of
    ``None`` (not known yet) is skipped.
    """
    for lk, ld, rk, rd in zip(left_keys, left_dtypes, right_keys, right_dtypes):
        if ld is None or rd is None:
            continue
        if (ld.kind in "OUS") != (rd.kind in "OUS"):
            raise SchemaError(
                f"cannot join {lk} ({ld}) to {rk} ({rd}): a string key "
                "and a numeric key never match"
            )


def join_rows(
    left: Table,
    right: Table,
    left_keys: tuple[str, ...] | list[str],
    right_keys: tuple[str, ...] | list[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Matching row-index pairs of an equi-join between two tables."""
    check_join_key_dtypes(
        left_keys,
        [left.columns.dtype(k) for k in left_keys],
        right_keys,
        [right.columns.dtype(k) for k in right_keys],
    )
    lkey, rkey = join_codes(
        [left.column(k) for k in left_keys],
        [right.column(k) for k in right_keys],
    )
    return join_indices(lkey, rkey)


def combine_rows(
    left: Table, right: Table, li: np.ndarray | slice, ri: np.ndarray
) -> Table:
    """Matched rows of a join/cross as one output table.

    Both sides' lineage is gathered here; every data column stays a
    pending gather from its side (:class:`~repro.relational.table.Columns`),
    run when the column is first read — a join output is as wide as
    both inputs and its consumers read a few columns of it.  ``li`` may
    be a ``slice`` (a run of left rows, matched whole): the left side's
    lineage and columns are then views.
    """
    overlap = set(left.columns) & set(right.columns)
    if overlap:
        raise SchemaError(
            f"join sides share column names {sorted(overlap)}"
        )
    lineage = {r: ids[li] for r, ids in left.lineage.items()}
    lineage.update({r: ids[ri] for r, ids in right.lineage.items()})
    # Not the constructor: it converts, i.e. reads, every column.
    return Table._share(
        None,
        left.columns.rows(li) | right.columns.rows(ri),
        lineage,
        left.schema.concat(right.schema),
        int(ri.shape[0]),
    )


def union_tables(left: Table, right: Table) -> Table:
    """Lineage-set union (Prop 7: deduplicate by full lineage)."""
    stacked_cols = {
        n: np.concatenate([left.column(n), right.column(n)])
        for n in left.columns
    }
    stacked_lin = {
        r: np.concatenate([left.lineage[r], right.lineage[r]])
        for r in left.lineage
    }
    stacked = Table(None, stacked_cols, stacked_lin)
    rels = sorted(stacked.lineage)
    gids, n_groups = group_ids(
        [stacked.lineage[r] for r in rels], stacked.n_rows
    )
    first = group_firsts(gids, n_groups, stacked.n_rows)
    return stacked.take(np.sort(first))


def intersect_tables(left: Table, right: Table) -> Table:
    """Lineage-set intersection (the paper's compaction view)."""
    rels = sorted(left.lineage)
    combined_cols = [
        np.concatenate([left.lineage[r], right.lineage[r]]) for r in rels
    ]
    n_total = left.n_rows + right.n_rows
    gids, n_groups = group_ids(combined_cols, n_total)
    in_right = np.zeros(n_groups, dtype=bool)
    in_right[gids[left.n_rows :]] = True
    return left.filter(in_right[gids[: left.n_rows]])


class Executor:
    """Interprets plans against a named-table catalog (the reference)."""

    def __init__(
        self,
        catalog: Mapping[str, Table],
        rng: np.random.Generator | None = None,
    ) -> None:
        self.catalog = dict(catalog)
        self.rng = rng if rng is not None else np.random.default_rng()

    def execute(self, node: p.PlanNode) -> Table:
        """Materialize the plan bottom-up."""
        handler = self._HANDLERS.get(type(node))
        if handler is None:
            raise ExecutionError(f"cannot execute {type(node).__name__}")
        return handler(self, node)

    # -- node handlers ----------------------------------------------------

    def _scan(self, node: p.Scan) -> Table:
        try:
            base = self.catalog[node.table_name]
        except KeyError:
            raise PlanError(
                f"unknown table {node.table_name!r}; "
                f"catalog has {sorted(self.catalog)}"
            ) from None
        return base.with_lineage(
            node.table_name, np.arange(base.n_rows, dtype=np.int64)
        )

    def _table_sample(self, node: p.TableSample) -> Table:
        table = self.execute(node.child)
        draw = node.method.draw(table.n_rows, self.rng)
        relation = node.child.table_name
        return table.take(draw.rows).with_lineage(relation, draw.lineage)

    def _lineage_sample(self, node: p.LineageSample) -> Table:
        table = self.execute(node.child)
        missing = set(node.sampler.rates) - set(table.lineage)
        if missing:
            raise ExecutionError(
                f"lineage columns {sorted(missing)} absent at LineageSample"
            )
        return table.filter(node.sampler.keep(table.lineage))

    def _gus(self, node: p.GUSNode) -> Table:
        raise ExecutionError(
            "GUS is a quasi-operator used for analysis only; executable "
            "plans carry TableSample/LineageSample nodes instead"
        )

    def _select(self, node: p.Select) -> Table:
        table = self.execute(node.child)
        return table.filter(node.predicate.eval(table))

    def _project(self, node: p.Project) -> Table:
        table = self.execute(node.child)
        if node.outputs is None:
            return table
        columns = {
            name: expr.eval(table) for name, expr in node.outputs.items()
        }
        return Table(table.name, columns, table.lineage)

    def _join(self, node: p.Join) -> Table:
        left = self.execute(node.left)
        right = self.execute(node.right)
        li, ri = join_rows(left, right, node.left_keys, node.right_keys)
        return combine_rows(left, right, li, ri)

    def _cross(self, node: p.CrossProduct) -> Table:
        left = self.execute(node.left)
        right = self.execute(node.right)
        li = np.repeat(
            np.arange(left.n_rows, dtype=np.int64), right.n_rows
        )
        ri = np.tile(np.arange(right.n_rows, dtype=np.int64), left.n_rows)
        return combine_rows(left, right, li, ri)

    def _union(self, node: p.Union) -> Table:
        return union_tables(self.execute(node.left), self.execute(node.right))

    def _intersect(self, node: p.Intersect) -> Table:
        return intersect_tables(
            self.execute(node.left), self.execute(node.right)
        )

    def _aggregate(self, node: p.Aggregate) -> Table:
        table = self.execute(node.child)
        return evaluate_aggregates(table, node.specs)

    def _group_aggregate(self, node: p.GroupAggregate) -> Table:
        table = self.execute(node.child)
        return evaluate_group_aggregates(
            table, node.keys, node.specs, node.having
        )

    _HANDLERS = {
        p.Scan: _scan,
        p.TableSample: _table_sample,
        p.LineageSample: _lineage_sample,
        p.GUSNode: _gus,
        p.Select: _select,
        p.Project: _project,
        p.Join: _join,
        p.CrossProduct: _cross,
        p.Union: _union,
        p.Intersect: _intersect,
        p.Aggregate: _aggregate,
        p.GroupAggregate: _group_aggregate,
    }

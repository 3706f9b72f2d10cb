"""Plain (non-estimating) aggregate evaluation, grouped and ungrouped.

Used for ground-truth runs over the full data and for executing
``Aggregate`` / ``GroupAggregate`` nodes directly.  The *estimating*
path — scaling by ``1/a`` and attaching variances — lives in
:mod:`repro.core.sbox` (per-group via the vectorized grouped moments of
:mod:`repro.core.estimator`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.estimator import group_keys
from repro.errors import ExecutionError
from repro.relational.expressions import Expr
from repro.relational.plan import AggSpec
from repro.relational.table import Table


def aggregate_input_vector(table: Table, spec: AggSpec) -> np.ndarray:
    """The per-row ``f`` values of a SUM-like aggregate.

    SUM uses the expression values; COUNT uses the constant 1 — the
    paper's reduction of COUNT to SUM.  AVG has no single ``f`` (it is
    a ratio of two SUM-like aggregates): the estimating paths — SBox
    for both plain and GROUP BY queries — handle it with the delta
    method instead of calling this.
    """
    if spec.kind == "count":
        return np.ones(table.n_rows, dtype=np.float64)
    if spec.kind == "sum":
        assert spec.expr is not None
        return np.asarray(spec.expr.eval(table), dtype=np.float64)
    raise ExecutionError(
        f"{spec.kind.upper()} is not SUM-like and has no per-row f "
        "vector; the SBox estimates it as a delta-method ratio "
        "(grouped and ungrouped alike)"
    )


def evaluate_aggregates(table: Table, specs: Sequence[AggSpec]) -> Table:
    """Evaluate aggregates exactly over ``table`` (no estimation)."""
    outputs: dict[str, np.ndarray] = {}
    for spec in specs:
        if spec.kind == "avg":
            assert spec.expr is not None
            values = np.asarray(spec.expr.eval(table), dtype=np.float64)
            result = float(values.mean()) if table.n_rows else float("nan")
        else:
            result = float(aggregate_input_vector(table, spec).sum())
        outputs[spec.alias] = np.array([result], dtype=np.float64)
    return Table(None, outputs)


def evaluate_group_aggregates(
    table: Table,
    keys: Sequence[str],
    specs: Sequence[AggSpec],
    having: Expr | None = None,
) -> Table:
    """Evaluate grouped aggregates exactly (the ground-truth path).

    One :func:`~repro.core.estimator.group_keys` pass assigns dense
    group ids; every aggregate is then a ``bincount`` over them.  The
    output carries one row per group — key columns first (one
    representative value each), aggregate columns after — filtered by
    ``having`` over that output schema.
    """
    distinct, gids, n_groups = group_keys(
        [table.column(k) for k in keys], table.n_rows
    )
    outputs: dict[str, np.ndarray] = dict(zip(keys, distinct))
    counts = np.bincount(gids, minlength=n_groups)
    for spec in specs:
        if spec.kind == "count":
            outputs[spec.alias] = counts.astype(np.float64)
            continue
        assert spec.expr is not None
        values = np.asarray(spec.expr.eval(table), dtype=np.float64)
        sums = np.bincount(gids, weights=values, minlength=n_groups)
        if spec.kind == "sum":
            outputs[spec.alias] = sums
        else:  # avg; counts > 0 for every realized group
            outputs[spec.alias] = sums / counts
    result = Table(None, outputs)
    if having is not None:
        result = result.filter(np.asarray(having.eval(result), dtype=bool))
    return result

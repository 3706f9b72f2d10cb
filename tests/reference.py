"""A brute-force nested-loop reference engine.

Deliberately slow and simple: operates on Python row dicts so the
vectorized engine's operators can be validated against obviously
correct semantics.  The last section holds the whole-sample grouped
estimators — one call over a materialized sample, no chunk fold, no
moment bundle — that the engine's grouped answers are checked against.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.core.estimator import (
    GroupedEstimates,
    estimate_sum,
    group_reduce,
    group_reduce_multi,
    grouped_estimates_from_moments,
    grouped_y_terms_multi,
)
from repro.core.gus import GUSParams
from repro.core.lattice import SubsetLattice
from repro.errors import EstimationError


Row = dict[str, object]


def table_to_rows(table) -> list[Row]:
    """Convert an engine Table (data + lineage) to reference rows."""
    rows = []
    for i in range(table.n_rows):
        row: Row = {name: table.columns[name][i] for name in table.columns}
        for rel, ids in table.lineage.items():
            row[f"__lin_{rel}"] = int(ids[i])
        rows.append(row)
    return rows


def ref_select(rows: list[Row], predicate: Callable[[Row], bool]) -> list[Row]:
    return [r for r in rows if predicate(r)]


def ref_join(
    left: list[Row],
    right: list[Row],
    left_keys: Sequence[str],
    right_keys: Sequence[str],
) -> list[Row]:
    out = []
    for lr in left:
        for rr in right:
            if all(lr[a] == rr[b] for a, b in zip(left_keys, right_keys)):
                merged = dict(lr)
                merged.update(rr)
                out.append(merged)
    return out


def ref_cross(left: list[Row], right: list[Row]) -> list[Row]:
    out = []
    for lr in left:
        for rr in right:
            merged = dict(lr)
            merged.update(rr)
            out.append(merged)
    return out


def _lineage_key(row: Row) -> tuple:
    return tuple(
        (k, row[k]) for k in sorted(row) if k.startswith("__lin_")
    )


def ref_union(left: list[Row], right: list[Row]) -> list[Row]:
    seen = set()
    out = []
    for row in left + right:
        key = _lineage_key(row)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def ref_intersect(left: list[Row], right: list[Row]) -> list[Row]:
    right_keys = {_lineage_key(r) for r in right}
    return [r for r in left if _lineage_key(r) in right_keys]


def ref_sum(rows: list[Row], f: Callable[[Row], float]) -> float:
    return float(sum(f(r) for r in rows))


def ref_group_by(
    rows: list[Row],
    keys: Sequence[str],
    aggregates: dict[str, tuple[str, Callable[[Row], float] | None]],
) -> dict[tuple, dict[str, float]]:
    """Brute-force grouped aggregation.

    ``aggregates`` maps output names to ``(kind, f)`` with kind one of
    ``sum | count | avg``.  Returns ``{key-tuple: {name: value}}``.
    """
    groups: dict[tuple, list[Row]] = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in keys), []).append(row)
    out: dict[tuple, dict[str, float]] = {}
    for key, members in groups.items():
        result: dict[str, float] = {}
        for name, (kind, f) in aggregates.items():
            if kind == "count":
                result[name] = float(len(members))
            elif kind == "sum":
                assert f is not None
                result[name] = float(sum(f(r) for r in members))
            else:  # avg
                assert f is not None
                result[name] = float(
                    sum(f(r) for r in members) / len(members)
                )
        out[key] = result
    return out


# -- brute-force grouped GUS estimator oracle ---------------------------------
#
# A deliberately slow, dictionary-based reimplementation of Theorem 1
# and the Section 6.3 unbiasing recursion, applied independently to
# each group's rows.  Nothing here shares code with the vectorized
# estimator: subsets are frozensets, moments are dict lookups, and the
# per-group loop is explicit — exactly what the fast path must match.


def _subsets(dims: Sequence[str]) -> list[frozenset]:
    out = [frozenset()]
    for d in dims:
        out += [s | {d} for s in out]
    return out


def _ref_y_terms(
    rows: list[tuple[dict, float]], dims: Sequence[str]
) -> dict[frozenset, float]:
    """``y_S`` for every subset, by dict-of-lists grouping."""
    y: dict[frozenset, float] = {}
    for subset in _subsets(dims):
        sums: dict[tuple, float] = {}
        for lineage, value in rows:
            key = tuple(lineage[d] for d in sorted(subset))
            sums[key] = sums.get(key, 0.0) + value
        y[subset] = sum(v * v for v in sums.values())
    return y


def _ref_kappa(
    b: dict[frozenset, float], s: frozenset, t: frozenset
) -> float:
    total = 0.0
    for u in _subsets(sorted(t)):
        sign = -1.0 if (len(t) - len(u)) % 2 else 1.0
        total += sign * b[s | u]
    return total


def _ref_unbiased(
    y: dict[frozenset, float],
    b: dict[frozenset, float],
    dims: Sequence[str],
) -> dict[frozenset, float]:
    full = frozenset(dims)
    yhat: dict[frozenset, float] = {}
    for s in sorted(_subsets(dims), key=len, reverse=True):
        acc = y[s]
        for t in _subsets(sorted(full - s)):
            if not t:
                continue
            acc -= _ref_kappa(b, s, t) * yhat[s | t]
        yhat[s] = acc / b[s]
    return yhat


def _ref_variance(
    yhat: dict[frozenset, float],
    a: float,
    b: dict[frozenset, float],
    dims: Sequence[str],
) -> float:
    var = 0.0
    for s in _subsets(dims):
        c_s = 0.0
        for t in _subsets(sorted(s)):
            sign = -1.0 if (len(s) - len(t)) % 2 else 1.0
            c_s += sign * b[t]
        var += c_s * yhat[s] / (a * a)
    return var - yhat[frozenset()]


def ref_grouped_estimates(
    a: float,
    b: dict[frozenset, float],
    dims: Sequence[str],
    rows: Sequence[tuple[object, dict, float]],
) -> dict[object, tuple[float, float, int]]:
    """Per-group ``(estimate, variance_raw, n)`` by brute force.

    ``rows`` holds sampled ``(group_key, lineage, f)`` triples; ``b``
    maps every subset of ``dims`` to its second-order inclusion
    probability.  Each group is estimated independently with the slow
    dict-based Theorem 1 machinery above.
    """
    grouped: dict[object, list[tuple[dict, float]]] = {}
    for group_key, lineage, value in rows:
        grouped.setdefault(group_key, []).append((lineage, value))
    out: dict[object, tuple[float, float, int]] = {}
    for group_key, members in grouped.items():
        y = _ref_y_terms(members, dims)
        yhat = _ref_unbiased(y, b, dims)
        variance = _ref_variance(yhat, a, b, dims)
        total = sum(value for _, value in members)
        out[group_key] = (total / a, variance, len(members))
    return out


def rows_multiset(rows: list[Row]) -> dict:
    """Multiset view for order-insensitive comparison."""
    counted: dict = {}
    for row in rows:
        key = tuple(sorted((k, _hashable(v)) for k, v in row.items()))
        counted[key] = counted.get(key, 0) + 1
    return counted


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return str(value)
    # Normalise numpy scalars to Python for cross-engine comparison.
    if hasattr(value, "item"):
        return value.item()
    return value


# -- whole-sample grouped estimators -------------------------------------


def grouped_y_terms(
    f: np.ndarray,
    lineage: Mapping[str, np.ndarray],
    lattice: SubsetLattice,
    gids: np.ndarray,
    n_groups: int,
) -> np.ndarray:
    """Per-group plug-in moments ``Y_S`` for every group and mask.

    ``gids`` assigns each row a dense group id in ``[0, n_groups)``
    (the output of :func:`group_ids` on the GROUP BY columns).  One
    :func:`group_reduce` pass compacts the rows on *(group, full
    lineage)*; :func:`grouped_y_terms_multi` then derives every submask
    moment for all groups at once.
    """
    f = np.asarray(f, dtype=np.float64)
    gids = np.asarray(gids, dtype=np.int64)
    if gids.shape != f.shape:
        raise EstimationError(
            f"group ids have shape {gids.shape}; f has shape {f.shape}"
        )
    missing = [d for d in lattice.dims if d not in lineage]
    if missing:
        raise EstimationError(f"lineage columns missing for {missing}")
    cols = [gids] + [np.asarray(lineage[d]) for d in lattice.dims]
    keys, sums = group_reduce(cols, f)
    return grouped_y_terms_multi([sums], keys[1:], keys[0], n_groups, lattice)[0]


def estimate_sums_grouped(
    params: GUSParams,
    f_sample: np.ndarray,
    lineage_sample: Mapping[str, np.ndarray],
    gids: np.ndarray,
    n_groups: int,
    *,
    label: str = "SUM",
) -> GroupedEstimates:
    """Estimate ``Σ f`` per group with Theorem 1 error bounds.

    The grouped twin of :func:`estimate_sum`: ``gids`` assigns each
    sample row a dense group id (from :func:`group_ids` over the GROUP
    BY columns) and every group's estimate/variance comes out of one
    vectorized pass — per-mask lexsorts over the compacted *(group,
    lineage)* table and a matrix unbiasing recursion, never a per-group
    Python loop.  Restricting a GUS to a data-defined subset leaves its
    ``(a, b̄)`` unchanged, so each group's numbers equal what
    :func:`estimate_sum` would return on that group's rows alone.
    """
    if params.a <= 0.0:
        raise EstimationError("cannot estimate from a = 0 (null sampling)")
    f_sample = np.asarray(f_sample, dtype=np.float64)
    gids = np.asarray(gids, dtype=np.int64)
    if gids.shape != f_sample.shape:
        raise EstimationError(
            f"group ids have shape {gids.shape}; f has shape {f_sample.shape}"
        )
    if gids.size and (int(gids.min()) < 0 or int(gids.max()) >= n_groups):
        raise EstimationError(
            f"group ids must lie in [0, {n_groups}); got range "
            f"[{int(gids.min())}, {int(gids.max())}]"
        )
    return estimate_sums_grouped_multi(
        params, [f_sample], lineage_sample, gids, n_groups, labels=[label]
    )[0]


def estimate_sums_grouped_multi(
    params: GUSParams,
    f_vectors: Sequence[np.ndarray],
    lineage_sample: Mapping[str, np.ndarray],
    gids: np.ndarray,
    n_groups: int,
    *,
    labels: Sequence[str] | None = None,
) -> list[GroupedEstimates]:
    """Grouped estimates for several aggregate vectors over one sample.

    The expensive part of grouped estimation is keyed on the *(group,
    lineage)* columns only: the compaction sort and every lattice
    mask's subgroup structure are identical for all aggregates of one
    query.  This entry point pays for them once and adds a ``bincount``
    per weight vector — a multi-aggregate GROUP BY (TPC-H Q1 has six)
    costs barely more than a single-aggregate one.
    """
    if params.a <= 0.0:
        raise EstimationError("cannot estimate from a = 0 (null sampling)")
    f_vectors = [np.asarray(f, dtype=np.float64) for f in f_vectors]
    gids = np.asarray(gids, dtype=np.int64)
    if labels is None:
        labels = ["SUM"] * len(f_vectors)
    if len(labels) != len(f_vectors):
        raise EstimationError(
            f"{len(labels)} labels for {len(f_vectors)} aggregate vectors"
        )
    for f in f_vectors:
        if gids.shape != f.shape:
            raise EstimationError(
                f"group ids have shape {gids.shape}; f has shape {f.shape}"
            )
    if gids.size and (int(gids.min()) < 0 or int(gids.max()) >= n_groups):
        raise EstimationError(
            f"group ids must lie in [0, {n_groups}); got range "
            f"[{int(gids.min())}, {int(gids.max())}]"
        )
    pruned = params.project_out_inactive()
    missing = [d for d in pruned.lattice.dims if d not in lineage_sample]
    if missing:
        raise EstimationError(f"lineage columns missing for {missing}")
    cols = [gids] + [
        np.asarray(lineage_sample[d]) for d in pruned.lattice.dims
    ]
    keys, sums_list = group_reduce_multi(cols, f_vectors)
    plugins = grouped_y_terms_multi(
        sums_list, keys[1:], keys[0], n_groups, pruned.lattice
    )
    counts = np.bincount(gids, minlength=n_groups)
    return [
        grouped_estimates_from_moments(
            pruned,
            params.a,
            plugin,
            np.bincount(gids, weights=f, minlength=n_groups),
            counts,
            label=label,
        )
        for f, plugin, label in zip(f_vectors, plugins, labels)
    ]


def covariance_estimate(
    params: GUSParams,
    f: np.ndarray,
    g: np.ndarray,
    lineage: Mapping[str, np.ndarray],
) -> float:
    """Unbiased estimate of ``Cov(X_f, X_g)`` by polarization.

    Unbiasedness is inherited: each of the three variance estimates is
    unbiased and expectation is linear.
    """
    var_sum = estimate_sum(params, np.asarray(f) + np.asarray(g), lineage)
    var_f = estimate_sum(params, f, lineage)
    var_g = estimate_sum(params, g, lineage)
    return 0.5 * (
        var_sum.variance_raw - var_f.variance_raw - var_g.variance_raw
    )


def grouped_covariance_estimate(
    params: GUSParams,
    f: np.ndarray,
    g: np.ndarray,
    lineage: Mapping[str, np.ndarray],
    gids: np.ndarray,
    n_groups: int,
    *,
    var_f: GroupedEstimates | None = None,
    var_g: GroupedEstimates | None = None,
) -> np.ndarray:
    """Per-group :func:`covariance_estimate`, one polarization pass.

    Group membership is data-defined, so the scalar argument applies
    group by group; the three variance vectors come out of the
    vectorized grouped estimator.  Callers that already hold the
    estimates for ``f`` and/or ``g`` (the AVG path always does) pass
    them via ``var_f``/``var_g`` so only the ``f+g`` moments are
    computed fresh.
    """
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    var_sum = estimate_sums_grouped(params, f + g, lineage, gids, n_groups)
    if var_f is None:
        var_f = estimate_sums_grouped(params, f, lineage, gids, n_groups)
    if var_g is None:
        var_g = estimate_sums_grouped(params, g, lineage, gids, n_groups)
    return 0.5 * (
        var_sum.variance_raw - var_f.variance_raw - var_g.variance_raw
    )

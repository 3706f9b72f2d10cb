"""Theorem 1: unbiased SUM estimation and exact variance under GUS.

Given a GUS sample ``R`` of an expression ``R`` drawn by ``G(a, b̄)``,
the estimator of ``A = Σ_{t∈R} f(t)`` is ``X = (1/a) Σ_{t∈R} f(t)``
with ``E[X] = A`` and

    ``σ²(X) = Σ_{S⊆L} (c_S / a²) · y_S  −  y_∅``

where ``c = µ(b)`` is the Möbius transform of the second-order
inclusion probabilities (a *sampling* property) and

    ``y_S = Σ_{lineage-groups g on S} ( Σ_{t∈g} f(t) )²``

is a *data* property: group the full relation by the lineage attributes
of the base relations in ``S``, sum ``f`` within each group, and add up
the squares (``y_∅ = A²``; ``y_L = Σ f(t)²`` when lineage is unique).

Because the full data is normally unavailable, the same moments are
computed on the sample (``Y_S``) and then unbiased by the triangular
recursion of Section 6.3:

    ``Ŷ_S = ( Y_S − Σ_{∅≠T⊆Sᶜ} κ_{S,T} · Ŷ_{S∪T} ) / b_S``

solved from ``S = L`` downward, after which
``σ̂² = Σ_S (c_S/a²)·Ŷ_S − Ŷ_∅``.

All of this is exact, non-asymptotic, and verified in the test suite by
brute-force enumeration of entire sampling distributions.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core import confidence, kernels
from repro.core.gus import GUSParams
from repro.core.lattice import (
    SubsetLattice,
    iter_submasks,
    kappa,
)
from repro.errors import EstimationError

__all__ = [
    "group_ids",
    "group_keys",
    "group_firsts",
    "group_reduce",
    "group_reduce_multi",
    "y_terms",
    "y_terms_from_groups",
    "grouped_y_terms",
    "grouped_y_terms_from_groups",
    "grouped_y_terms_multi",
    "theorem1_variance",
    "grouped_theorem1_variance",
    "exact_moments",
    "unbiased_y_terms",
    "unbiased_y_terms_grouped",
    "estimate_from_moments",
    "grouped_estimates_from_moments",
    "estimate_sum",
    "estimate_sums_grouped",
    "estimate_sums_grouped_multi",
    "difference_inputs",
    "estimate_subset_sum",
    "estimate_difference",
    "estimate_subset_sums_grouped",
    "Estimate",
    "GroupedEstimates",
    "ClosedFormGroupedEstimates",
]


def _ordered_codes(column) -> tuple[np.ndarray, np.ndarray]:
    """A string key column as ``(codes, values)`` with ``values`` sorted.

    A plain object/string array pays the per-row hashing pass of
    :func:`repro.core.kernels.factorize`.  A dictionary-encoded column
    — a ``(codes, values)`` pair as
    :meth:`repro.relational.table.Columns.encoded` hands out, its
    dictionary in any order — only has its distinct values ranked; the
    row codes are remapped when the dictionary was not sorted already.
    """
    if type(column) is not tuple:
        return kernels.factorize(column)
    codes, values = column
    rank, ordered = kernels.factorize(values)
    if not np.array_equal(rank, np.arange(rank.shape[0])):
        codes = rank[codes]
    return codes, ordered


def _group(
    columns: Sequence, n_rows: int, with_keys: bool
) -> tuple[np.ndarray, int, list[np.ndarray] | None]:
    """Dense ids in sorted key order and, on request, each group's key.

    Every column is first made something integers can stand for:
    strings become dictionary codes (:func:`_ordered_codes`) and a
    float column holding NaN splits into ``(value with NaN filled,
    is-NaN)`` — the split :func:`repro.relational.executor.join_codes`
    uses — so NaNs are one group, ordered last.  Keys whose packed
    domain is small are ranked by counting, everything else by one
    stable sort; both assign the same ids.
    """
    ranked: list[np.ndarray] = []
    decode: list[tuple[int, np.ndarray | None, np.ndarray | None]] = []
    for col in columns:
        position = len(ranked)
        if type(col) is tuple or np.asarray(col).dtype.kind in "OUS":
            codes, values = _ordered_codes(col)
            ranked.append(codes)
            decode.append((position, values, None))
            continue
        col = np.asarray(col)
        decode.append((position, None, col))
        isnan = np.isnan(col) if col.dtype.kind == "f" else None
        if isnan is not None and isnan.any():
            ranked += [np.where(isnan, 0.0, col), isnan]
        else:
            ranked.append(col)
    counted = kernels.count_ranks(ranked, n_rows)
    if counted is not None:
        # Counting takes integer columns only, so none was split and
        # ``present`` lines up with ``columns``.
        gids, present = counted
        if not with_keys:
            return gids, present[0].shape[0], None
        return gids, present[0].shape[0], [
            present[i] if values is None else values[present[i]]
            for i, values, _ in decode
        ]
    order, boundary = kernels.sorted_boundaries(ranked, n_rows)
    gids_sorted = np.cumsum(boundary) - 1
    gids = np.empty(n_rows, dtype=np.int64)
    gids[order] = gids_sorted
    n_groups = int(gids_sorted[-1]) + 1
    if not with_keys:
        return gids, n_groups, None
    firsts = order[boundary]
    return gids, n_groups, [
        col[firsts] if values is None else values[ranked[i][firsts]]
        for i, values, col in decode
    ]


def group_ids(columns: Sequence, n_rows: int) -> tuple[np.ndarray, int]:
    """Assign a dense group id to each row, grouping by ``columns``.

    With no columns every row falls in one group (the ``S = ∅`` case).
    Ids follow sorted key order (last column primary; ``None`` before
    every string, NaN after every number).  A column is an array or a
    dictionary-encoded ``(codes, values)`` pair; object and string
    arrays become codes first (:func:`repro.core.kernels.factorize`),
    so the ranking runs on packed integers whenever every other column
    is an integer too.
    """
    if n_rows == 0:
        return np.empty(0, dtype=np.int64), 0
    if not columns:
        return np.zeros(n_rows, dtype=np.int64), 1
    gids, n_groups, _ = _group(columns, n_rows, False)
    return gids, n_groups


def group_keys(
    columns: Sequence, n_rows: int
) -> tuple[list[np.ndarray], np.ndarray, int]:
    """:func:`group_ids` plus the dictionary of distinct key tuples.

    Returns ``(key_columns, gids, n_groups)``: ``key_columns[j][g]`` is
    group ``g``'s value of column ``j`` (string columns as object
    arrays, decoded from the dictionary — no row is read again).  Needs
    at least one column.
    """
    if n_rows == 0:
        empty = [
            (col[1] if type(col) is tuple else np.asarray(col))[:0]
            for col in columns
        ]
        return empty, np.empty(0, dtype=np.int64), 0
    gids, n_groups, keys = _group(columns, n_rows, True)
    return keys, gids, n_groups


def group_firsts(
    gids: np.ndarray, n_groups: int, n_rows: int
) -> np.ndarray:
    """Index of each group's first occurrence in row order.

    For consumers that need each group's *earliest* row (set union
    keeps first occurrences); a group's key values come from
    :func:`group_keys` without looking at rows.  Handles the
    empty-input case and keeps the ``np.minimum.at`` idiom in one
    place.
    """
    if n_rows == 0:
        return np.empty(0, dtype=np.int64)
    first = np.full(n_groups, n_rows, dtype=np.int64)
    np.minimum.at(first, gids, np.arange(n_rows))
    return first


def group_reduce(
    columns: Sequence[np.ndarray], weights: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Compact rows to their distinct keys, summing ``weights`` per key.

    Returns ``(key_columns, sums)``: one array per input column holding
    each distinct key combination once (in sorted key order), and the
    total weight that fell on it.  This is the accumulator core shared
    by the batch :func:`y_terms` and the mergeable
    :class:`repro.stream.sketch.MomentSketchBundle`: a group-sum table
    is additive, so two tables (from two batches, shards, or sketches)
    merge exactly by concatenating and reducing again.
    """
    keys, sums_list = group_reduce_multi(columns, [weights])
    return keys, sums_list[0]


def group_reduce_multi(
    columns: Sequence[np.ndarray], weight_vectors: Sequence[np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """:func:`group_reduce` for several weight vectors over one sort.

    The sort dominates the cost of a reduce; accumulators that track
    both ``Σ f`` and a row count per key (the grouped sketch) pay for it
    once and run one ``bincount`` per weight vector.

    A single integer key column that is strictly increasing — the
    lineage of any tuple-level single-relation sample in scan order, or
    of an FK join probed in key order — is its own compaction: every
    row is a group and the rows are in key order already, so the keys
    come back as given and each sum is ``w + 0.0``, which is what
    ``np.bincount`` accumulates for a one-row group bit for bit
    (``-0.0`` becomes ``+0.0`` on both routes).  Equal neighbours,
    descending ids, several key columns and non-integer keys sort.
    """
    weights = [np.asarray(w, dtype=np.float64) for w in weight_vectors]
    n_rows = weights[0].shape[0]
    if n_rows == 0:
        return (
            [np.empty(0, dtype=c.dtype) for c in columns],
            [np.empty(0) for _ in weights],
        )
    if not columns:
        return [], [np.array([float(np.sum(w))]) for w in weights]
    if len(columns) == 1 and kernels.strictly_increasing(columns[0]):
        return [np.asarray(columns[0])], [w + 0.0 for w in weights]
    order, boundary = kernels.sorted_boundaries(columns, n_rows)
    gids_sorted = np.cumsum(boundary) - 1
    n_groups = int(gids_sorted[-1]) + 1
    firsts = order[boundary]
    keys = [np.asarray(col)[firsts] for col in columns]
    sums = [
        kernels.group_sums(gids_sorted, w[order], n_groups)
        for w in weights
    ]
    return keys, sums


def y_terms_from_groups(
    group_sums: np.ndarray,
    key_columns: Sequence[np.ndarray],
    lattice: SubsetLattice,
) -> np.ndarray:
    """``y_S`` for every ``S``, from a compacted full-lineage group table.

    ``key_columns`` holds one distinct full-lineage key per row (column
    ``i`` is ``lattice.dims[i]``) and ``group_sums`` the per-group sum
    of ``f``.  Because a lineage group on ``S ⊂ L`` is a union of
    full-lineage groups, grouping the *compacted* table on the ``S``
    columns gives the same sums as grouping the raw rows — so each
    per-mask lexsort runs over ``#groups`` rows, not ``#rows``, and the
    full-lineage sort was paid exactly once.
    """
    group_sums = np.asarray(group_sums, dtype=np.float64)
    if len(key_columns) != lattice.n:
        raise EstimationError(
            f"{len(key_columns)} key columns for a lattice of {lattice.n} dims"
        )
    n_groups = group_sums.shape[0]
    out = np.zeros(lattice.size, dtype=np.float64)
    if n_groups == 0:
        return out
    total = float(np.sum(group_sums))
    for mask in lattice.masks():
        if mask == 0:
            out[0] = total * total
        elif mask == lattice.full_mask:
            out[mask] = float(np.dot(group_sums, group_sums))
        else:
            cols = [key_columns[i] for i in range(lattice.n) if mask >> i & 1]
            gids, n_sub = group_ids(cols, n_groups)
            sums = np.bincount(gids, weights=group_sums, minlength=n_sub)
            out[mask] = float(np.dot(sums, sums))
    return out


def y_terms(
    f: np.ndarray,
    lineage: Mapping[str, np.ndarray],
    lattice: SubsetLattice,
) -> np.ndarray:
    """Compute ``y_S`` for every ``S`` in the lattice.

    ``f`` holds the aggregated expression per row; ``lineage`` maps each
    base-relation name in the lattice to its int64 lineage column.
    Applied to the full data this yields the exact data moments; applied
    to a sample it yields the plug-in ``Y_S``.

    Thin batch wrapper over the accumulator core: one
    :func:`group_reduce` pass compacts the rows on the full lineage, and
    :func:`y_terms_from_groups` derives every submask moment from the
    compacted table.
    """
    f = np.asarray(f, dtype=np.float64)
    missing = [d for d in lattice.dims if d not in lineage]
    if missing:
        raise EstimationError(f"lineage columns missing for {missing}")
    cols = [np.asarray(lineage[d]) for d in lattice.dims]
    keys, sums = group_reduce(cols, f)
    return y_terms_from_groups(sums, keys, lattice)


def grouped_y_terms_multi(
    sums_list: Sequence[np.ndarray],
    key_columns: Sequence[np.ndarray],
    owner: np.ndarray,
    n_out: int,
    lattice: SubsetLattice,
) -> list[np.ndarray]:
    """Per-output-group ``y_S`` matrices for several weight vectors.

    The compacted table holds one row per distinct *(output group,
    full-lineage key)* pair: each ``sums_list[j][i]`` is entry ``i``'s
    ``Σ f_j``, ``key_columns`` its lineage key (column ``k`` is
    ``lattice.dims[k]``), and ``owner[i]`` the dense id of the output
    group it belongs to.  Returns one ``(n_out, lattice.size)`` matrix
    per weight vector; matrix ``j``'s row ``g`` is the moment vector
    :func:`y_terms` would produce on group ``g``'s ``f_j`` rows alone —
    computed for *all* groups simultaneously, never a per-group Python
    loop.  The subgroup structure of each lattice mask depends only on
    the keys, so its sort is paid once and each weight vector adds only
    ``bincount`` passes — this is what lets a multi-aggregate GROUP BY
    query reuse one compaction for every aggregate.

    This works because a GUS filter restricted to any data-defined row
    subset is the same GUS: group membership is a property of the data,
    so Theorem 1 applies verbatim group by group.
    """
    sums_list = [np.asarray(s, dtype=np.float64) for s in sums_list]
    owner = np.asarray(owner, dtype=np.int64)
    if len(key_columns) != lattice.n:
        raise EstimationError(
            f"{len(key_columns)} key columns for a lattice of {lattice.n} dims"
        )
    for sums in sums_list:
        if owner.shape != sums.shape:
            raise EstimationError(
                f"owner ids have shape {owner.shape}; group sums have "
                f"shape {sums.shape}"
            )
    outs = [
        np.zeros((n_out, lattice.size), dtype=np.float64) for _ in sums_list
    ]
    n_entries = owner.shape[0]
    if n_entries == 0 or n_out == 0 or not sums_list:
        return outs
    for mask in lattice.masks():
        if mask == 0:
            for out, sums in zip(outs, sums_list):
                totals = np.bincount(owner, weights=sums, minlength=n_out)
                out[:, 0] = totals * totals
        elif mask == lattice.full_mask:
            for out, sums in zip(outs, sums_list):
                out[:, mask] = np.bincount(
                    owner, weights=sums * sums, minlength=n_out
                )
        else:
            cols = [owner] + [
                key_columns[i] for i in range(lattice.n) if mask >> i & 1
            ]
            sub_ids, n_sub = group_ids(cols, n_entries)
            # Each sub-group lies inside exactly one output group; any
            # member's owner id identifies it.
            sub_owner = np.empty(n_sub, dtype=np.int64)
            sub_owner[sub_ids] = owner
            for out, sums in zip(outs, sums_list):
                sub_sums = np.bincount(
                    sub_ids, weights=sums, minlength=n_sub
                )
                out[:, mask] = np.bincount(
                    sub_owner, weights=sub_sums * sub_sums, minlength=n_out
                )
    return outs


def grouped_y_terms_from_groups(
    group_sums: np.ndarray,
    key_columns: Sequence[np.ndarray],
    owner: np.ndarray,
    n_out: int,
    lattice: SubsetLattice,
) -> np.ndarray:
    """Per-output-group ``y_S`` matrix from a compacted group table.

    Single-vector wrapper over :func:`grouped_y_terms_multi`.
    """
    return grouped_y_terms_multi(
        [group_sums], key_columns, owner, n_out, lattice
    )[0]


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
    lineage)*; :func:`grouped_y_terms_from_groups` then derives every
    submask moment for all groups at once.
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
    return grouped_y_terms_from_groups(
        sums, keys[1:], keys[0], n_groups, lattice
    )


def theorem1_variance(params: GUSParams, y: np.ndarray) -> float:
    """``σ²(X) = Σ_S (c_S/a²)·y_S − y_∅`` for given data moments."""
    if params.a <= 0.0:
        raise EstimationError("variance undefined for a = 0 (null sampling)")
    c = params.c_vector()
    return float(np.dot(c, y) / (params.a * params.a) - y[0])


def exact_moments(
    params: GUSParams,
    f: np.ndarray,
    lineage: Mapping[str, np.ndarray],
) -> tuple[float, float]:
    """Exact ``(E[X], σ²(X))`` computed from the *full* data.

    Used by the test oracles, the SOA checker, and the Section 8
    robustness application (where the "sample" is the database itself).
    """
    pruned = params.project_out_inactive()
    y = y_terms(f, lineage, pruned.lattice)
    total = float(np.sum(np.asarray(f, dtype=np.float64)))
    return total, theorem1_variance(pruned, y)


def unbiased_y_terms(params: GUSParams, plugin_y: np.ndarray) -> np.ndarray:
    """Solve the triangular system for unbiased ``Ŷ_S``.

    ``E[Y_S] = Σ_{T⊆Sᶜ} κ_{S,T} · y_{S∪T}`` with ``κ_{S,∅} = b_S``; the
    system is triangular in ``|S|`` and solved from the full set down.
    Requires every ``b_S > 0`` (a GUS that can never retain a pair with
    agreement pattern ``S`` carries no information about ``y_S``).
    """
    _check_unbiasable(params)
    b = params.b
    full = params.lattice.full_mask
    yhat = np.zeros(params.lattice.size, dtype=np.float64)
    for mask in params.lattice.masks_by_descending_size():
        comp = full ^ mask
        acc = float(plugin_y[mask])
        for t_mask in iter_submasks(comp):
            if t_mask == 0:
                continue
            acc -= kappa(b, mask, t_mask) * yhat[mask | t_mask]
        yhat[mask] = acc / float(b[mask])
    return yhat


def _check_unbiasable(params: GUSParams) -> None:
    """Raise when some ``b_T = 0`` makes the recursion unsolvable."""
    b = params.b
    if np.any(b <= 0.0):
        bad = [
            sorted(params.lattice.set_of(m))
            for m in params.lattice.masks()
            if b[m] <= 0.0
        ]
        raise EstimationError(
            f"cannot unbias y-terms: b_T = 0 for T in {bad}; the sampling "
            "process never observes such pairs"
        )


def unbiased_y_terms_grouped(
    params: GUSParams, plugin_y: np.ndarray
) -> np.ndarray:
    """:func:`unbiased_y_terms` applied to every row of a moment matrix.

    ``plugin_y`` is ``(n_groups, lattice.size)``; the triangular
    recursion runs once per mask with all groups advanced together.
    The per-mask operation sequence matches the scalar solver exactly,
    so a one-group matrix reproduces :func:`unbiased_y_terms` to the
    last float operation.
    """
    _check_unbiasable(params)
    plugin_y = np.asarray(plugin_y, dtype=np.float64)
    if plugin_y.ndim != 2 or plugin_y.shape[1] != params.lattice.size:
        raise EstimationError(
            f"moment matrix of shape {plugin_y.shape} does not cover "
            f"lattice of size {params.lattice.size}"
        )
    b = params.b
    full = params.lattice.full_mask
    yhat = np.zeros_like(plugin_y)
    for mask in params.lattice.masks_by_descending_size():
        comp = full ^ mask
        acc = plugin_y[:, mask].copy()
        for t_mask in iter_submasks(comp):
            if t_mask == 0:
                continue
            acc -= kappa(b, mask, t_mask) * yhat[:, mask | t_mask]
        yhat[:, mask] = acc / float(b[mask])
    return yhat


def grouped_theorem1_variance(params: GUSParams, y: np.ndarray) -> np.ndarray:
    """Theorem 1's variance for every row of a ``(n_groups, size)`` matrix."""
    if params.a <= 0.0:
        raise EstimationError("variance undefined for a = 0 (null sampling)")
    c = params.c_vector()
    y = np.asarray(y, dtype=np.float64)
    return y @ c / (params.a * params.a) - y[:, 0]


@dataclass(frozen=True)
class Estimate:
    """A point estimate with its estimated sampling variance.

    ``variance_raw`` keeps the signed value produced by the unbiased
    estimator (which can dip below zero on very small samples);
    ``variance`` clamps at zero, and ``clamped`` records whether the
    clamp fired so callers can report honestly.
    """

    value: float
    variance_raw: float
    n_sample: int
    label: str = "SUM"
    extras: dict = field(default_factory=dict, repr=False)

    @property
    def clamped(self) -> bool:
        return self.variance_raw < 0.0

    @property
    def variance(self) -> float:
        return max(self.variance_raw, 0.0)

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    def ci(
        self, level: float = 0.95, method: str = "normal"
    ) -> confidence.ConfidenceInterval:
        """Two-sided confidence interval (``normal`` or ``chebyshev``)."""
        return confidence.interval(self.value, self.std, level, method)

    def quantile(self, q: float, method: str = "normal") -> float:
        """One-sided ``q``-quantile — the ``QUANTILE(agg, q)`` value."""
        return confidence.quantile(self.value, self.std, q, method)

    def relative_std(self) -> float:
        """Coefficient of variation ``σ̂ / |µ̂|`` (inf when µ̂ = 0)."""
        if self.value == 0.0:
            return float("inf")
        return self.std / abs(self.value)


def estimate_from_moments(
    params: GUSParams,
    plugin_y: np.ndarray,
    sample_total: float,
    n_sample: int,
    *,
    label: str = "SUM",
) -> Estimate:
    """Finish an estimate from already-accumulated plug-in moments.

    ``params`` must be the (pruned) GUS whose lattice indexes
    ``plugin_y``; ``sample_total`` is ``Σ f`` over the sample and
    ``n_sample`` its row count.  This is the single finishing step
    shared by the batch :func:`estimate_sum` and the streaming
    :class:`repro.stream.StreamingEstimator` — both feed the same
    unbiasing recursion and variance formula, they only accumulate the
    moments differently.
    """
    if params.a <= 0.0:
        raise EstimationError("cannot estimate from a = 0 (null sampling)")
    yhat = unbiased_y_terms(params, np.asarray(plugin_y, dtype=np.float64))
    var_raw = theorem1_variance(params, yhat)
    return Estimate(
        value=float(sample_total) / params.a,
        variance_raw=var_raw,
        n_sample=int(n_sample),
        label=label,
        extras={"a": params.a, "active_dims": params.lattice.dims},
    )


def estimate_sum(
    params: GUSParams,
    f_sample: np.ndarray,
    lineage_sample: Mapping[str, np.ndarray],
    *,
    label: str = "SUM",
) -> Estimate:
    """Estimate ``Σ f`` and its variance from a GUS sample.

    ``params`` is the single top GUS of the SOA-equivalent plan (the
    output of the rewriter); ``f_sample`` and ``lineage_sample`` are the
    per-row aggregate values and lineage columns of the *sample* the
    executable plan produced.  Inactive (unsampled) lineage dimensions
    are pruned first, so cost is ``O(2^k)`` group-bys in the number of
    *sampled* relations ``k``.
    """
    if params.a <= 0.0:
        raise EstimationError("cannot estimate from a = 0 (null sampling)")
    f_sample = np.asarray(f_sample, dtype=np.float64)
    pruned = params.project_out_inactive()
    plugin = y_terms(f_sample, lineage_sample, pruned.lattice)
    return estimate_from_moments(
        pruned,
        plugin,
        float(np.sum(f_sample)),
        int(f_sample.shape[0]),
        label=label,
    )


@dataclass(frozen=True)
class GroupedEstimates:
    """Per-group point estimates and variances, stored columnwise.

    The arrays are parallel over the dense group ids the estimates were
    computed for: ``values[g]`` is group ``g``'s estimate of its
    ``Σ f``, ``variance_raw[g]`` the signed unbiased variance estimate
    and ``n_samples[g]`` the group's sample row count.  :meth:`estimate`
    materializes one group as a scalar :class:`Estimate`, equal to what
    the ungrouped estimator would produce on that group's rows alone.

    Two hard edges are deliberate:

    * groups never observed in the sample simply have no row here — a
      sample carries no information about a group it missed, so callers
      comparing against ground truth must treat absent groups as
      uncovered;
    * *singleton* groups (``n_samples[g] == 1``) admit no pair-based
      variance information, and groups a caller allocated but the
      sample never populated (``n_samples[g] == 0``) carry none at all
      — so :meth:`ci_bounds` and :meth:`quantile` report ``NaN`` for
      both rather than the misleading zero-width answers a clamped
      variance would give.  The raw variance estimates are kept (still
      unbiased in expectation) for callers that aggregate across
      groups.
    """

    values: np.ndarray
    variance_raw: np.ndarray
    n_samples: np.ndarray
    label: str = "SUM"
    extras: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=np.float64)
        )
        object.__setattr__(
            self,
            "variance_raw",
            np.asarray(self.variance_raw, dtype=np.float64),
        )
        object.__setattr__(
            self, "n_samples", np.asarray(self.n_samples, dtype=np.int64)
        )
        if not (
            self.values.shape == self.variance_raw.shape == self.n_samples.shape
        ):
            raise EstimationError(
                "grouped estimate arrays must be parallel; got shapes "
                f"{self.values.shape}, {self.variance_raw.shape}, "
                f"{self.n_samples.shape}"
            )

    @property
    def n_groups(self) -> int:
        return int(self.values.shape[0])

    def __len__(self) -> int:
        return self.n_groups

    @property
    def variance(self) -> np.ndarray:
        """Variances clamped at zero (see :class:`Estimate`)."""
        return np.maximum(self.variance_raw, 0.0)

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.variance)

    @property
    def clamped(self) -> np.ndarray:
        """Boolean mask of groups whose variance clamp fired."""
        return self.variance_raw < 0.0

    @property
    def singleton(self) -> np.ndarray:
        """Boolean mask of groups observed through a single sample row."""
        return self.n_samples == 1

    def estimate(self, g: int) -> Estimate:
        """Group ``g`` as a scalar :class:`Estimate`."""
        return Estimate(
            value=float(self.values[g]),
            variance_raw=float(self.variance_raw[g]),
            n_sample=int(self.n_samples[g]),
            label=self.label,
            extras=dict(self.extras),
        )

    def __iter__(self):
        return (self.estimate(g) for g in range(self.n_groups))

    def take(self, indices: np.ndarray) -> "GroupedEstimates":
        """Gather a subset of groups (e.g. after a HAVING filter)."""
        return type(self)(
            values=self.values[indices],
            variance_raw=self.variance_raw[indices],
            n_samples=self.n_samples[indices],
            label=self.label,
            extras=dict(self.extras),
        )

    def _spread_std(self) -> np.ndarray:
        """Std with ``NaN`` for groups whose spread is unknowable.

        At most one observed row there is no pair information, so any
        finite interval or quantile would be fiction.
        """
        std = self.std.copy()
        std[self.n_samples <= 1] = np.nan
        return std

    def ci_bounds(
        self, level: float = 0.95, method: str = "normal"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-group two-sided interval bounds ``(lo, hi)``.

        Empty and singleton groups get ``NaN`` bounds.
        """
        k = confidence.interval(0.0, 1.0, level, method).hi
        std = self._spread_std()
        return self.values - k * std, self.values + k * std

    def quantile(self, q: float, method: str = "normal") -> np.ndarray:
        """Per-group one-sided ``q``-quantiles of the estimators.

        Applies the same ``NaN`` policy as :meth:`ci_bounds` — a
        quantile from a group with no pair information is equally
        fictitious.
        """
        shift = confidence.quantile(0.0, 1.0, q, method)
        return self.values + shift * self._spread_std()


def grouped_estimates_from_moments(
    params: GUSParams,
    a: float,
    plugin_y: np.ndarray,
    totals: np.ndarray,
    counts: np.ndarray,
    *,
    label: str = "SUM",
) -> GroupedEstimates:
    """Finish per-group estimates from accumulated plug-in moments.

    The grouped twin of :func:`estimate_from_moments`, and the one
    finishing step of the batch :func:`estimate_sums_grouped_multi`, the
    SBox and :class:`repro.stream.GroupedStreamingEstimator`.  ``params``
    is the pruned GUS whose lattice indexes the columns of the
    ``(n_groups, lattice.size)`` matrix ``plugin_y``, ``a`` the
    first-order inclusion probability the totals are scaled by, and
    ``totals`` / ``counts`` each group's sample ``Σ f`` and row count.
    """
    yhat = unbiased_y_terms_grouped(params, plugin_y)
    return GroupedEstimates(
        values=totals / a,
        variance_raw=grouped_theorem1_variance(params, yhat),
        n_samples=counts,
        label=label,
        extras={"a": a, "active_dims": params.lattice.dims},
    )


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


# -- coordinated subset sums and version differences -------------------------


class ClosedFormGroupedEstimates(GroupedEstimates):
    """Grouped estimates whose variance is closed-form per element.

    The pair-based Theorem 1 machinery cannot bound a singleton group
    (one row carries no pair information), so :class:`GroupedEstimates`
    reports ``NaN`` intervals for it.  Subset-sum estimates under
    independent-per-key Bernoulli draws have an exact per-element
    variance — ``(1−p)/p² · Σ f²`` needs no pairs — so here only groups
    with *no* observed key lack spread information.
    """

    def _spread_std(self) -> np.ndarray:
        std = self.std.copy()
        std[self.n_samples == 0] = np.nan
        return std


def difference_inputs(
    hi_key_columns: Sequence[np.ndarray],
    hi_f_vectors: Sequence[np.ndarray],
    lo_key_columns: Sequence[np.ndarray],
    lo_f_vectors: Sequence[np.ndarray],
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-key signed aggregate inputs ``g(k) = f_hi(k) − f_lo(k)``.

    Each side contributes its per-row aggregate values keyed by the
    coordination key columns (lineage row ids, optionally prefixed by
    GROUP BY columns).  One :func:`group_reduce_multi` over the
    hi-then-lo concatenation nets out every key: keys present on both
    sides reduce to their value change, keys on one side only keep
    their signed contribution (inserted or filtered-out rows).
    Returns ``(key_columns, g_vectors)`` in sorted key order —
    deterministic for any chunking of the inputs because the keys are
    unique per side and the reduction is a per-key sum.
    """
    if len(hi_key_columns) != len(lo_key_columns):
        raise EstimationError(
            f"{len(hi_key_columns)} hi key columns vs "
            f"{len(lo_key_columns)} lo key columns"
        )
    if len(hi_f_vectors) != len(lo_f_vectors):
        raise EstimationError(
            f"{len(hi_f_vectors)} hi aggregate vectors vs "
            f"{len(lo_f_vectors)} lo aggregate vectors"
        )
    columns = [
        np.concatenate([np.asarray(h), np.asarray(l)])
        for h, l in zip(hi_key_columns, lo_key_columns)
    ]
    weights = [
        np.concatenate(
            [
                np.asarray(h, dtype=np.float64),
                -np.asarray(l, dtype=np.float64),
            ]
        )
        for h, l in zip(hi_f_vectors, lo_f_vectors)
    ]
    return group_reduce_multi(columns, weights)


def _check_rate(p: float) -> float:
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise EstimationError(f"Bernoulli rate {p} outside (0, 1]")
    return p


def estimate_subset_sum(
    p: float, f: np.ndarray, *, label: str = "SUM"
) -> Estimate:
    """Horvitz–Thompson subset sum under per-key Bernoulli(``p``) draws.

    ``f`` holds the observed per-key values of a subset-sum aggregate
    (for a version difference, the netted ``g`` of
    :func:`difference_inputs`; for a single segment, its per-key
    contributions).  With every key kept independently with probability
    ``p``,

        ``X = Σ_sample f / p``          is unbiased for ``Σ_all f``, and
        ``σ̂² = (1−p)/p² · Σ_sample f²`` is unbiased for
        ``σ²(X) = (1−p)/p · Σ_all f²``.

    Keys whose value did not change between coordinated versions have
    ``f = 0`` and contribute nothing to the variance — the whole point
    of sharing draws across versions.  At ``p = 1`` both sums are exact
    and the variance is identically zero.

    ``extras["nonzero"]`` counts the keys with ``f != 0`` — the
    *effective* sample size.  Both the estimate and σ̂ are carried
    entirely by those keys, so any sample-size gate on interval quality
    (e.g. the fuzzer's coverage check) must look at this count, not at
    ``n_sample``.
    """
    p = _check_rate(p)
    f = np.asarray(f, dtype=np.float64)
    total = float(np.sum(f))
    squares = float(np.dot(f, f))
    return Estimate(
        value=total / p,
        variance_raw=(1.0 - p) / (p * p) * squares,
        n_sample=int(f.shape[0]),
        label=label,
        extras={
            "p": p,
            "estimator": "subset-sum",
            "nonzero": int(np.count_nonzero(f)),
        },
    )


def estimate_difference(
    p: float,
    hi_key_columns: Sequence[np.ndarray],
    hi_f: np.ndarray,
    lo_key_columns: Sequence[np.ndarray],
    lo_f: np.ndarray,
    *,
    label: str = "SUM",
) -> Estimate:
    """Estimate ``Σ f_hi − Σ f_lo`` from coordinated samples of two
    versions.

    Requires the two samples to share their Bernoulli draws by key
    (:class:`~repro.sampling.CoordinatedBernoulli`): only then is the
    per-key indicator common to both sides and the difference a single
    subset sum over ``g = f_hi − f_lo``.
    """
    _keys, gs = difference_inputs(
        hi_key_columns, [hi_f], lo_key_columns, [lo_f]
    )
    return estimate_subset_sum(p, gs[0], label=label)


def estimate_subset_sums_grouped(
    p: float,
    f: np.ndarray,
    gids: np.ndarray,
    n_groups: int,
    *,
    label: str = "SUM",
) -> ClosedFormGroupedEstimates:
    """Per-segment subset sums: :func:`estimate_subset_sum` per group.

    ``gids`` assigns each observed key a dense segment id; each
    segment's estimate and variance equal what the scalar estimator
    would produce on that segment's keys alone (segment membership is a
    data property, so the per-key draws restricted to a segment are the
    same Bernoulli process).
    """
    p = _check_rate(p)
    f = np.asarray(f, dtype=np.float64)
    gids = np.asarray(gids, dtype=np.int64)
    if gids.shape != f.shape:
        raise EstimationError(
            f"group ids have shape {gids.shape}; f has shape {f.shape}"
        )
    if gids.size and (int(gids.min()) < 0 or int(gids.max()) >= n_groups):
        raise EstimationError(
            f"group ids must lie in [0, {n_groups}); got range "
            f"[{int(gids.min())}, {int(gids.max())}]"
        )
    totals = np.bincount(gids, weights=f, minlength=n_groups)
    squares = np.bincount(gids, weights=f * f, minlength=n_groups)
    counts = np.bincount(gids, minlength=n_groups)
    return ClosedFormGroupedEstimates(
        values=totals / p,
        variance_raw=(1.0 - p) / (p * p) * squares,
        n_samples=counts,
        label=label,
        extras={"p": p, "estimator": "subset-sum"},
    )

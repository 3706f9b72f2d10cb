"""Execute :class:`~repro.versions.plan.VersionDiff` plans.

Each side of the difference is *read*, not estimated: one
:meth:`SBox.sample <repro.core.sbox.SBox.sample>` call returns the
side's sampled-and-filtered rows with their lineage — a sampled side
through the synopsis catalog when one is attached (so synopses keyed by
the versioned scan are served and stored), every other side on the
pipeline.  Both calls share one map of lineage-hash draws, made for the
statement alone: the coordinated hash keeps the same positions in every
version, so sides of one length hash the table once between them
(:func:`~repro.relational.pipeline.shared_draw`; a version before rows
were appended draws on its own).  The sides' per-row aggregate inputs
are then netted per coordination key (lineage row id, optionally
prefixed by GROUP BY columns) — by position when the sides' keys are
equal row for row and ascend, by one sort of both sides otherwise
(:func:`~repro.core.estimator.difference_inputs`) — and the
closed-form subset-sum estimator of :mod:`repro.core.estimator` turns
the netted ``g`` values into unbiased change estimates with exact
variance: a coordinated difference needs each side's per-key values,
never a Theorem 1 estimate of a side.

Determinism: coordinated Bernoulli draws are pure per-key hashes (no
RNG), the per-side samples are bit-identical at any chunking, and the
netting reduce keys are unique per side — so a versioned query's
numbers do not depend on the chunking or ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.estimator import (
    Estimate,
    GroupedEstimates,
    difference_inputs,
    estimate_subset_sum,
    estimate_subset_sums_grouped,
    group_firsts,
    group_ids,
)
from repro.core.sbox import apply_having_grouped
from repro.errors import PlanError
from repro.relational.aggregates import (
    aggregate_columns,
    aggregate_input_vector,
)
from repro.relational.plan import PlanNode
from repro.relational.table import Table
from repro.versions.plan import VersionDiff

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Trace
    from repro.relational.database import Database
    from repro.store import ReuseInfo


@dataclass(frozen=True)
class VersionDiffResult:
    """A scalar version-difference estimate, one entry per aggregate.

    ``values`` holds the per-alias answers (point estimate, or the
    requested quantile for ``QUANTILE`` columns); ``estimates`` the
    full :class:`~repro.core.estimator.Estimate` objects so any
    interval can be derived afterwards.  ``n_matched`` counts the
    distinct coordination keys the netting observed across both sides;
    ``reuse`` maps ``"hi"``/``"lo"`` to the synopsis-catalog reuse info
    of each side (``None`` off the catalog path).
    """

    values: dict[str, float]
    estimates: dict[str, Estimate]
    plan: VersionDiff | None = field(default=None, repr=False)
    n_matched: int = 0
    reuse: "dict[str, ReuseInfo | None]" = field(
        default_factory=dict, repr=False
    )
    trace: "Trace | None" = field(default=None, repr=False, compare=False)

    def __getitem__(self, alias: str) -> float:
        return self.values[alias]


@dataclass(frozen=True)
class GroupedVersionDiffResult:
    """Per-segment version-difference estimates (GROUP BY form).

    ``keys`` holds one array per GROUP BY column, parallel over the
    realized segments in sorted key order; a segment appears when
    either side's sample observed it.  When the plan carried a HAVING
    clause it was applied to the *estimated* changes, so segment
    membership is itself approximate.
    """

    keys: dict[str, np.ndarray]
    values: dict[str, np.ndarray]
    estimates: dict[str, GroupedEstimates]
    plan: VersionDiff | None = field(default=None, repr=False)
    n_matched: int = 0
    reuse: "dict[str, ReuseInfo | None]" = field(
        default_factory=dict, repr=False
    )
    trace: "Trace | None" = field(default=None, repr=False, compare=False)

    def __getitem__(self, alias: str) -> np.ndarray:
        return self.values[alias]

    @property
    def n_groups(self) -> int:
        first = next(iter(self.keys.values()))
        return int(first.shape[0])

    def __len__(self) -> int:
        return self.n_groups

    def table(
        self, level: float | None = None, method: str = "normal"
    ) -> Table:
        """Materialize as a result table, one row per segment."""
        columns: dict[str, np.ndarray] = dict(self.keys)
        for alias, vals in self.values.items():
            columns[alias] = vals
            if level is not None:
                lo, hi = self.estimates[alias].ci_bounds(level, method)
                columns[f"{alias}_lo"] = lo
                columns[f"{alias}_hi"] = hi
        return Table(None, columns)


def _lineage_key(child: PlanNode, sample: Table) -> np.ndarray:
    """The coordination key column: the side's single lineage dim."""
    names = child.lineage_schema()
    if len(names) != 1:
        raise PlanError(
            f"a version-difference side must scan one relation; "
            f"got lineage {sorted(names)}"
        )
    (name,) = names
    return np.asarray(sample.lineage[name])


def estimate_version_diff(
    db: "Database",
    plan: VersionDiff,
    *,
    seed: int | None = None,
    workers: int | None = None,  # ignored; goes with ROADMAP item 2(f)
    chunk_size: int | None = None,
) -> VersionDiffResult | GroupedVersionDiffResult:
    """Estimate every aggregate of a :class:`VersionDiff` plan."""
    if not isinstance(plan, VersionDiff):
        raise PlanError(
            f"estimate_version_diff expects a VersionDiff plan; "
            f"got {type(plan).__name__}"
        )
    # Each side's rows, exact or sampled alike: the GROUP BY keys and
    # the columns the specs read, with lineage, and their reuse info.
    if chunk_size is None:
        chunk_size = db.chunk_size
    columns = aggregate_columns(plan.specs, plan.keys)
    sbox = db.sbox()
    # One map per statement: the sides share their coordinated draw,
    # and nothing outlives the call.
    shared_draws: dict = {}
    (hi_sample, hi_reuse), (lo_sample, lo_reuse) = (
        sbox.sample(
            child,
            columns,
            rng=db.rng(seed),
            chunk_size=chunk_size,
            shared_draws=shared_draws,
        )
        for child in (plan.hi_child, plan.lo_child)
    )
    p = 1.0 if plan.rate is None else plan.rate
    reuse = {"hi": hi_reuse, "lo": lo_reuse}
    hi_lin = _lineage_key(plan.hi_child, hi_sample)
    lo_lin = _lineage_key(plan.lo_child, lo_sample)
    hi_fs = [aggregate_input_vector(hi_sample, s) for s in plan.specs]
    lo_fs = [aggregate_input_vector(lo_sample, s) for s in plan.specs]

    if not plan.keys:
        key_cols, gs = difference_inputs([hi_lin], hi_fs, [lo_lin], lo_fs)
        n_matched = int(key_cols[0].shape[0])
        values: dict[str, float] = {}
        estimates: dict[str, Estimate] = {}
        for spec, g in zip(plan.specs, gs):
            est = estimate_subset_sum(p, g, label=spec.kind.upper())
            estimates[spec.alias] = est
            values[spec.alias] = (
                est.quantile(spec.quantile)
                if spec.quantile is not None
                else est.value
            )
        return VersionDiffResult(
            values=values,
            estimates=estimates,
            plan=plan,
            n_matched=n_matched,
            reuse=reuse,
        )

    hi_keys = [np.asarray(hi_sample.column(k)) for k in plan.keys]
    lo_keys = [np.asarray(lo_sample.column(k)) for k in plan.keys]
    key_cols, gs = difference_inputs(
        [*hi_keys, hi_lin], hi_fs, [*lo_keys, lo_lin], lo_fs
    )
    n_matched = int(key_cols[-1].shape[0]) if key_cols else 0
    # key_cols come out lexsorted on (segment keys..., lineage key), so
    # segment ids — and therefore the output order — are already in
    # sorted segment order, matching the grouped estimate convention.
    gids, n_groups = group_ids(key_cols[:-1], n_matched)
    first = group_firsts(gids, n_groups, n_matched)
    grouped_keys = {
        k: col[first] for k, col in zip(plan.keys, key_cols)
    }
    grouped_values: dict[str, np.ndarray] = {}
    grouped_estimates: dict[str, GroupedEstimates] = {}
    for spec, g in zip(plan.specs, gs):
        est = estimate_subset_sums_grouped(
            p, g, gids, n_groups, label=spec.kind.upper()
        )
        grouped_estimates[spec.alias] = est
        grouped_values[spec.alias] = (
            est.quantile(spec.quantile)
            if spec.quantile is not None
            else est.values
        )
    if plan.having is not None:
        grouped_keys, grouped_values, grouped_estimates = (
            apply_having_grouped(
                plan.having, grouped_keys, grouped_values, grouped_estimates
            )
        )
    return GroupedVersionDiffResult(
        keys=grouped_keys,
        values=grouped_values,
        estimates=grouped_estimates,
        plan=plan,
        n_matched=n_matched,
        reuse=reuse,
    )


def exact_version_diff(db: "Database", plan: VersionDiff) -> Table:
    """Ground truth for a version difference: both sides at rate 1.

    Strips the coordinated samples, reruns the same netting at
    ``p = 1`` (every estimate is then exact with zero variance), and
    materializes the answers as a result table — one row for the
    scalar form, one row per segment for the grouped form — matching
    the exact executor's aggregate output conventions.
    """
    from repro.relational.plan import strip_sampling

    stripped = VersionDiff(
        strip_sampling(plan.hi_child),
        strip_sampling(plan.lo_child),
        plan.specs,
        base=plan.base,
        lo_version=plan.lo_version,
        hi_version=plan.hi_version,
        keys=plan.keys,
        having=plan.having,
        rate=None,
        seed=None,
    )
    result = estimate_version_diff(db, stripped)
    if isinstance(result, GroupedVersionDiffResult):
        return result.table()
    return Table(
        None,
        {
            alias: np.array([value], dtype=np.float64)
            for alias, value in result.values.items()
        },
    )

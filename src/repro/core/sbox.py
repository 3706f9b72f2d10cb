"""The SBox: the paper's Section 6 statistical estimator component.

The SBox sits between the query plan and the aggregate.  It receives
exactly what Section 6 says it needs — the result tuples of the sampled
plan, their lineage, and the plan itself — and produces, per aggregate:

1. the single top GUS of the SOA-equivalent plan (Section 6.1, via the
   rewriter);
2. unbiased ``Ŷ_S`` estimates from the sample, or from a Section 7
   sub-sample when a :class:`~repro.core.subsample.SubsampleSpec` is
   given (Section 6.3);
3. the point estimate, variance, and confidence-interval /
   ``QUANTILE`` outputs (Section 6.4).

It is deliberately a self-contained "black box": nothing in it touches
the execution engine beyond consuming its output chunks.  Theorem 1
reads the estimate off per-lineage-key sums — additive state — so there
is one estimator route: fold each chunk of sample rows into a moment
bundle, merge the bundles, finish.  One already-executed sample
(:meth:`SBox.estimate_from_sample`) is the same route with one chunk.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.core.estimator import (
    Estimate,
    GroupedEstimates,
    estimate_from_moments,
    grouped_estimates_from_moments,
)
from repro.core.gus import GUSParams
from repro.core.rewrite import RewriteResult, rewrite_to_top_gus
from repro.core.subsample import SubsampleSpec, subsampled_estimate
from repro.errors import EstimationError, PlanError
from repro.obs.metrics import observe_phase_seconds
from repro.obs.trace import (
    env_trace_enabled,
    get_tracer,
    maybe_span,
    start_trace,
)
from repro.relational.aggregates import aggregate_input_vector
from repro.relational.plan import Aggregate, AggSpec, GroupAggregate, PlanNode
from repro.relational.table import Table
from repro.stats.delta import ratio_estimate, ratio_estimates_grouped

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Trace
    from repro.store import ReuseInfo, SynopsisCatalog


def apply_having_grouped(
    having,
    keys: dict[str, np.ndarray],
    values: dict[str, np.ndarray],
    estimates: dict[str, "GroupedEstimates"],
) -> tuple[dict, dict, dict]:
    """Filter grouped output through a HAVING predicate, NaN-safely.

    Empty and singleton groups carry ``NaN`` estimates (and CI bounds)
    by design, so a raw comparison would decide their fate via IEEE
    NaN truthiness — ``NaN > x`` is False, but ``NOT (NaN > x)`` is
    True, which silently *kept* uninformative groups under negated
    predicates.  Policy: a group whose HAVING predicate references an
    aggregate whose estimate is ``NaN`` is dropped, never admitted by
    NaN semantics.  Key columns are exempt — NaN keys are data, and
    the exact engine keeps them consistently.
    """
    probe = Table(None, {**keys, **values})
    mask = np.asarray(having.eval(probe), dtype=bool)
    for name in having.columns_used():
        col = values.get(name)
        if col is not None and np.issubdtype(col.dtype, np.floating):
            mask &= ~np.isnan(col)
    picked = np.flatnonzero(mask)
    return (
        {k: col[picked] for k, col in keys.items()},
        {a: v[picked] for a, v in values.items()},
        {a: e.take(picked) for a, e in estimates.items()},
    )


@dataclass(frozen=True)
class QueryResult:
    """Everything an approximate aggregate query returns.

    ``values`` holds the per-alias answer the query's SELECT list asked
    for (point estimate, or the requested quantile for ``QUANTILE``
    columns).  ``estimates`` carries the full estimator objects so the
    caller can derive any interval afterwards; ``gus`` is the top
    quasi-operator of the SOA-equivalent plan; ``sample`` is the
    pre-aggregation result sample (with lineage) the estimates came
    from — pruned to the aggregate-relevant columns at every
    ``workers`` value and on a synopsis-catalog hit (which also keeps
    the query's predicate columns); on a catalog miss it *has* every
    column of the sampled child, of which only the ones the estimate
    read have been gathered — the rest are copied from the base tables
    when first read (:class:`~repro.relational.table.Columns`) — and
    ``None`` when the caller asked not to keep it
    (``keep_sample=False``: the estimate then never materializes the
    sample at all, only merged moment state).
    """

    values: dict[str, float]
    estimates: dict[str, Estimate]
    gus: GUSParams
    sample: Table | None
    rewrite: RewriteResult = field(repr=False)
    plan: Aggregate | None = field(default=None, repr=False)
    reuse: "ReuseInfo | None" = field(default=None, repr=False)
    trace: "Trace | None" = field(default=None, repr=False, compare=False)

    def __getitem__(self, alias: str) -> float:
        return self.values[alias]

    def summary(self, level: float = 0.95, method: str = "normal") -> str:
        """Human-readable per-aggregate report."""
        lines = []
        for alias, est in self.estimates.items():
            ci = est.ci(level, method)
            lines.append(
                f"{alias}: {est.value:.6g}  ±{(ci.hi - ci.lo) / 2:.4g} "
                f"({level:.0%} {method}; n={est.n_sample}"
                + (", variance clamped" if est.clamped else "")
                + ")"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class GroupedQueryResult:
    """Everything an approximate GROUP BY query returns.

    ``keys`` holds one array per GROUP BY column, parallel over the
    realized groups (in sorted key order); ``values`` the per-alias
    answer arrays; ``estimates`` the full per-group estimator bundles
    so any interval can be derived afterwards.  Only groups the sample
    *observed* appear — a sample carries no information about groups it
    missed, so their absence is the honest output (compare against
    ground truth accordingly).  When the plan carried a HAVING clause
    it was applied to the *estimated* values, so group membership in
    the output is itself approximate.
    """

    keys: dict[str, np.ndarray]
    values: dict[str, np.ndarray]
    estimates: dict[str, GroupedEstimates]
    gus: GUSParams
    sample: Table | None
    rewrite: RewriteResult = field(repr=False)
    plan: GroupAggregate | None = field(default=None, repr=False)
    reuse: "ReuseInfo | None" = field(default=None, repr=False)
    trace: "Trace | None" = field(default=None, repr=False, compare=False)

    def __getitem__(self, alias: str) -> np.ndarray:
        return self.values[alias]

    @property
    def n_groups(self) -> int:
        first = next(iter(self.keys.values()))
        return int(first.shape[0])

    def __len__(self) -> int:
        return self.n_groups

    def group_rows(self) -> list[tuple]:
        """The group key tuples, in output order."""
        names = list(self.keys)
        return [
            tuple(self.keys[n][g] for n in names)
            for g in range(self.n_groups)
        ]

    def table(
        self, level: float | None = None, method: str = "normal"
    ) -> Table:
        """Materialize as a result table, one row per group.

        With ``level`` given, each aggregate column is flanked by
        ``<alias>_lo`` / ``<alias>_hi`` interval-bound columns
        (``NaN`` for singleton groups — see
        :class:`~repro.core.estimator.GroupedEstimates`).
        """
        columns: dict[str, np.ndarray] = dict(self.keys)
        for alias, vals in self.values.items():
            columns[alias] = vals
            if level is not None:
                lo, hi = self.estimates[alias].ci_bounds(level, method)
                columns[f"{alias}_lo"] = lo
                columns[f"{alias}_hi"] = hi
        return Table(None, columns)

    def summary(self, level: float = 0.95, method: str = "normal") -> str:
        """Human-readable per-group report."""
        lines = []
        key_names = list(self.keys)
        bounds = {
            alias: est.ci_bounds(level, method)
            for alias, est in self.estimates.items()
        }
        for g in range(self.n_groups):
            key_text = ", ".join(
                f"{n}={self.keys[n][g]}" for n in key_names
            )
            parts = []
            for alias, vals in self.values.items():
                lo, hi = bounds[alias][0][g], bounds[alias][1][g]
                parts.append(
                    f"{alias}: {vals[g]:.6g} [{lo:.6g}, {hi:.6g}]"
                )
            lines.append(f"({key_text})  " + "  ".join(parts))
        return "\n".join(lines)


def _vector_plan(
    specs: "tuple[AggSpec, ...] | list[AggSpec]",
) -> tuple[list[tuple], list[str], dict[str, tuple[int, ...]]]:
    """Weight-vector recipes every aggregate of a query needs.

    All aggregates share one compaction, so their per-row weight
    vectors are planned together: the all-ones COUNT vector is shared
    by ``COUNT(*)`` specs and every AVG denominator; each AVG adds its
    numerator and the ``f+1`` polarization vector for the covariance.
    Returns ``(recipes, labels, spec_inputs)`` where a recipe is
    ``("ones",)``, ``("expr", expr)`` or ``("plus1", base_index)`` and
    ``spec_inputs`` maps each spec's alias to its vector indices.
    """
    recipes: list[tuple] = []
    labels: list[str] = []
    ones_index: int | None = None

    def add(recipe: tuple, label: str) -> int:
        recipes.append(recipe)
        labels.append(label)
        return len(recipes) - 1

    spec_inputs: dict[str, tuple[int, ...]] = {}
    for spec in specs:
        if spec.kind == "avg":
            assert spec.expr is not None
            f_index = add(("expr", spec.expr), "SUM")
            if ones_index is None:
                ones_index = add(("ones",), "COUNT")
            spec_inputs[spec.alias] = (
                f_index,
                ones_index,
                add(("plus1", f_index), "SUM"),
            )
        elif spec.kind == "count":
            if ones_index is None:
                ones_index = add(("ones",), "COUNT")
            spec_inputs[spec.alias] = (ones_index,)
        else:
            assert spec.expr is not None
            spec_inputs[spec.alias] = (
                add(("expr", spec.expr), spec.kind.upper()),
            )
    return recipes, labels, spec_inputs


def _eval_vectors(recipes: list[tuple], table: Table) -> list[np.ndarray]:
    """Evaluate the planned weight vectors over one batch of rows."""
    out: list[np.ndarray] = []
    for recipe in recipes:
        if recipe[0] == "ones":
            out.append(np.ones(table.n_rows, dtype=np.float64))
        elif recipe[0] == "expr":
            out.append(np.asarray(recipe[1].eval(table), dtype=np.float64))
        else:  # ("plus1", base_index) — the AVG polarization vector
            out.append(out[recipe[1]] + 1.0)
    return out


def _key_column(chunk: Table, name: str):
    """A GROUP BY column of a chunk: strings as ``(codes, values)``
    dictionary codes (no Python string is touched), the rest as arrays."""
    pair = chunk.columns.encoded(name) if name in chunk.columns else None
    return pair or chunk.column(name)  # a missing name raises SchemaError


class _ChunkFold:
    """Per-chunk fold: chunk → (moment contribution, sample?).

    Only the compact bundle — and, when the caller keeps the sample,
    the chunk — outlives the chunk task.
    """

    __slots__ = ("recipes", "lattice", "grouped", "keys", "keep_sample")

    def __init__(self, recipes, lattice, grouped, keys, keep_sample) -> None:
        self.recipes = recipes
        self.lattice = lattice
        self.grouped = grouped
        self.keys = tuple(keys)
        self.keep_sample = keep_sample

    def __call__(self, chunk: Table):
        from repro.stream.sketch import GroupedMomentBundle, MomentSketchBundle

        fs = _eval_vectors(self.recipes, chunk)
        if self.grouped:
            contrib: object = GroupedMomentBundle(
                self.lattice, len(self.keys), len(self.recipes)
            )
            contrib.update(
                fs, chunk.lineage, [_key_column(chunk, k) for k in self.keys]
            )
        else:
            contrib = MomentSketchBundle(self.lattice, len(self.recipes))
            contrib.update(fs, chunk.lineage)
        return contrib, (chunk if self.keep_sample else None)


def _needed_columns(plan: "Aggregate | GroupAggregate") -> frozenset[str]:
    """Data columns the estimator reads from the sample."""
    cols: frozenset[str] = frozenset()
    for spec in plan.specs:
        if spec.expr is not None:
            cols |= spec.expr.columns_used()
    if isinstance(plan, GroupAggregate):
        cols |= frozenset(plan.keys)
    return cols


def _fold_plan(
    plan: "Aggregate | GroupAggregate",
    specs: "tuple[AggSpec, ...]",
    rewrite: RewriteResult,
    keep_sample: bool,
) -> tuple[_ChunkFold, list[str], dict[str, tuple[int, ...]]]:
    """The per-chunk fold of ``specs`` plus what finishing it needs."""
    params = rewrite.params
    if params.a <= 0.0:
        raise EstimationError("cannot estimate from a = 0 (null sampling)")
    recipes, labels, spec_inputs = _vector_plan(specs)
    grouped = isinstance(plan, GroupAggregate)
    fold = _ChunkFold(
        recipes,
        rewrite.active_params.lattice,
        grouped,
        plan.keys if grouped else (),
        keep_sample,
    )
    return fold, labels, spec_inputs


def _refuse_grouped_subsample(plan: "Aggregate | GroupAggregate") -> None:
    if isinstance(plan, GroupAggregate):
        raise EstimationError(
            "sub-sampled variance estimation is not supported for "
            "GROUP BY queries; the grouped moment pass is already "
            "one compaction over the sample"
        )


@contextmanager
def _estimate_phase(rows: int, aggregates: int):
    """The ``estimate`` span and phase timer around finishing an answer."""
    t0 = perf_counter()
    with maybe_span(get_tracer(), "estimate") as span:
        span.attrs["rows"] = rows
        span.attrs["aggregates"] = aggregates
        yield
    observe_phase_seconds("estimate", perf_counter() - t0)


class SBox:
    """The statistical estimator module (paper Figure in Section 6).

    ``catalog`` maps table names to :class:`Table`; it supplies both
    execution and the base-table cardinalities the rewriter needs.
    ``synopses`` optionally plugs in a
    :class:`~repro.store.SynopsisCatalog`: :meth:`run` then serves
    queries from stored samples whenever the sampling algebra proves a
    stored synopsis subsumes the query's plan, and stores fresh
    samples on every miss.
    """

    def __init__(
        self,
        catalog: Mapping[str, Table],
        rng: np.random.Generator | None = None,
        *,
        synopses: "SynopsisCatalog | None" = None,
    ) -> None:
        # Version stamps are read BEFORE the table snapshot is taken:
        # if a mutation lands in between, samples executed against the
        # (newer) snapshot carry an older stamp and are conservatively
        # discarded at put() — never the reverse, which would let a
        # stale sample outlive its table's invalidation.
        self._version_stamps = (
            synopses.version_stamps(list(catalog))
            if synopses is not None
            else {}
        )
        self.catalog = dict(catalog)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.synopses = synopses

    # -- pipeline ----------------------------------------------------------

    def analyze(self, plan: PlanNode) -> RewriteResult:
        """Section 6.1: compute the SOA-equivalent single-GUS form."""
        sizes = {name: t.n_rows for name, t in self.catalog.items()}
        return rewrite_to_top_gus(plan, sizes)

    def run(
        self,
        plan: Aggregate | GroupAggregate,
        *,
        subsample: SubsampleSpec | None = None,
        rng: np.random.Generator | None = None,
        workers: int | None = None,
        chunk_size: int | None = None,
        keep_sample: bool = True,
    ) -> "QueryResult | GroupedQueryResult":
        """Execute the sampled plan and estimate every aggregate.

        A :class:`~repro.relational.plan.GroupAggregate` plan returns a
        :class:`GroupedQueryResult`.

        There is one route at every ``workers`` value: the plan streams
        chunk by chunk through the pipeline, every chunk's rows fold
        straight into mergeable moment state inside the chunk task, and
        the estimate comes from the merged state — the result sample is
        only materialized (column-pruned) to populate
        ``result.sample``, and not at all under ``keep_sample=False``.
        Chunks run on the calling thread, in order; absent an explicit
        ``chunk_size``, ``workers`` sets the partitioning (none without
        workers: one chunk).  Results are bit-for-bit identical for any
        worker count, and for any row partitioning whenever each
        active lineage key's rows stay within one chunk (tuple-level
        sampling always; block sampling via boundary alignment); keys
        replicated across chunks by join fanout merge partial sums, so
        only there can a different chunking move the last float ulp.
        A GROUP BY plan folds each chunk into a
        :class:`~repro.stream.sketch.GroupedMomentBundle`: string keys
        arrive as the dictionary codes their base column carries
        (:meth:`~repro.relational.table.Columns.encoded`), group ids
        come from counting those codes, and the merges union small
        dictionaries of distinct key tuples; while the lineage key is
        one increasing column (one sampled relation, scan order)
        neither the fold nor a merge sorts.

        With a synopsis catalog attached, a sampled plan inside the
        reuse algebra goes through :meth:`_run_via_store` instead: a
        hit filters the stored sample, narrowed first to the columns
        the estimate and the query's predicates read, and folds it as
        one chunk; a miss executes the child once with all columns
        available, stores it, and gathers the columns the estimate
        reads.

        ``subsample`` (Section 7) estimates the variance of every SUM
        and COUNT from a lineage-keyed sub-sample of the result rows
        (``extras["n_subsample"]``).  An AVG always takes its variance
        from the full sample — valid, merely not cheaper — so it is
        bit-identical to the run without ``subsample`` and carries no
        ``n_subsample``.  GROUP BY plans refuse ``subsample``.

        With ``REPRO_TRACE=1`` in the environment (and no trace already
        active) the run is traced and the span tree attached to
        ``result.trace``; tracing never touches the RNG or fold order,
        so the numbers stay bit-identical either way.
        """
        if not isinstance(plan, (Aggregate, GroupAggregate)):
            raise PlanError(
                "SBox.run expects an Aggregate or GroupAggregate plan"
            )
        if get_tracer() is None and env_trace_enabled():
            with start_trace("sbox.run") as tracer:
                result = self._run(
                    plan,
                    subsample=subsample,
                    rng=rng,
                    workers=workers,
                    chunk_size=chunk_size,
                    keep_sample=keep_sample,
                )
            return replace(result, trace=tracer.finish_trace())
        return self._run(
            plan,
            subsample=subsample,
            rng=rng,
            workers=workers,
            chunk_size=chunk_size,
            keep_sample=keep_sample,
        )

    def _run(
        self,
        plan: Aggregate | GroupAggregate,
        *,
        subsample: SubsampleSpec | None,
        rng: np.random.Generator | None,
        workers: int | None,
        chunk_size: int | None,
        keep_sample: bool,
    ) -> "QueryResult | GroupedQueryResult":
        """Fold the plan's chunks into moment state, merge, finish."""
        from repro.relational.pipeline import ChunkedExecutor, concat_tables

        tracer = get_tracer()
        with maybe_span(tracer, "analyze"):
            rewrite = self.analyze(plan.child)
        executor = ChunkedExecutor(
            self.catalog,
            rng if rng is not None else self.rng,
            workers=workers,
            chunk_size=chunk_size,
        )
        if (
            self.synopses is not None
            and subsample is None
            and keep_sample
            and rewrite.is_sampled
        ):
            served = self._run_via_store(plan, rewrite, executor)
            if served is not None:
                return served
        needed = _needed_columns(plan)
        if subsample is not None:
            # Section 7 sub-sampling needs the raw sample rows; stream
            # the (pruned) chunks and estimate off the concatenation.
            _refuse_grouped_subsample(plan)
            t0 = perf_counter()
            with maybe_span(tracer, "draw") as sp:
                sample = concat_tables(
                    list(executor.iter_chunks(plan.child, columns=needed))
                )
                sp.attrs["rows"] = sample.n_rows
            observe_phase_seconds("draw", perf_counter() - t0)
            return self.estimate_from_sample(
                plan, sample, rewrite, subsample=subsample
            )
        per_chunk, labels, spec_inputs = _fold_plan(
            plan, plan.specs, rewrite, keep_sample
        )
        merged = None
        kept: list[Table] = []
        merge_seconds = 0.0
        t0 = perf_counter()
        with maybe_span(tracer, "draw") as sp:
            for contrib, chunk in executor.map_chunks(
                plan.child, per_chunk, columns=needed
            ):
                if merged is None:
                    merged = contrib
                else:
                    m0 = perf_counter()
                    merged = merged.merge(contrib)
                    merge_seconds += perf_counter() - m0
                if chunk is not None:
                    kept.append(chunk)
            assert merged is not None  # the pipeline always emits >= 1 chunk
            sp.attrs["rows"] = merged.n_rows
            sp.attrs["merge_ns"] = int(merge_seconds * 1e9)
        observe_phase_seconds(
            "draw", perf_counter() - t0 - merge_seconds
        )
        observe_phase_seconds("merge", merge_seconds)
        sample = concat_tables(kept) if keep_sample else None
        with _estimate_phase(merged.n_rows, len(plan.specs)):
            return self._finish(
                plan, rewrite, merged, labels, spec_inputs, sample
            )

    def _run_via_store(
        self,
        plan: Aggregate | GroupAggregate,
        rewrite: RewriteResult,
        executor,
    ) -> "QueryResult | GroupedQueryResult | None":
        """Serve from (or populate) the synopsis catalog.

        Returns ``None`` when the plan lies outside the canonical
        reuse algebra — the caller then runs the regular path.  On a
        catalog hit the sample and GUS coefficients come straight from
        the matcher (exact reuse / predicate pushdown / residual
        thinning), which gathers only the columns the estimate reads —
        aggregate inputs, GROUP BY keys and the query's predicate
        columns — plus lineage; on a miss the child executes once with
        *all* columns available, is stored, and the estimate is computed
        from it.  Available, not copied: the sample holds its lineage
        and, per data column, a pending gather from the base table
        (:class:`~repro.relational.table.Columns`); the estimate runs
        the gathers of the columns it reads, storing runs none, and a
        later hit runs a stored column's gather the first time it needs
        that column.
        """
        from repro.store import ReuseMatcher, canonicalize, materialize
        from repro.store.fingerprint import draw_token_of

        tracer = get_tracer()
        t0 = perf_counter()
        with maybe_span(tracer, "store.probe", kind="store") as sp:
            canon = canonicalize(
                plan.child,
                {name: t.n_rows for name, t in self.catalog.items()},
                draw_token=draw_token_of(executor.rng),
            )
            if canon is None:
                decision = None
                sp.attrs["outcome"] = "uncanonical"
            else:
                needed = _needed_columns(plan)
                for pred in canon.predicates:
                    needed |= pred.columns_used()
                matcher = ReuseMatcher(self.synopses)
                decision = matcher.match(canon, required_columns=needed)
                sp.attrs["outcome"] = "miss" if decision is None else "hit"
                if decision is not None:
                    sp.attrs["mode"] = decision.kind
        observe_phase_seconds("catalog_probe", perf_counter() - t0)
        if canon is None:
            return None
        if decision is not None:
            t1 = perf_counter()
            with maybe_span(tracer, "store.serve", kind="store") as sp:
                sample, params, clean, info = materialize(decision, needed)
                sp.attrs["mode"] = info.kind
                sp.attrs["entry"] = info.entry_id
                sp.attrs["rows_stored"] = info.stored_rows
                sp.attrs["rows_served"] = info.served_rows
                if info.thin_rates:
                    sp.attrs["thinned_relations"] = len(info.thin_rates)
                if info.residual_predicates:
                    sp.attrs["residual_predicates"] = (
                        info.residual_predicates
                    )
            observe_phase_seconds("residual", perf_counter() - t1)
            return self.estimate_from_sample(
                plan, sample, RewriteResult(clean, params), reuse=info
            )
        # Miss: execute the sampled child once, no column pruned, and
        # store it; only what the estimate below reads gets gathered.
        t2 = perf_counter()
        with maybe_span(tracer, "draw") as sp:
            sample = executor.execute(plan.child)
            sp.attrs["rows"] = sample.n_rows
        observe_phase_seconds("draw", perf_counter() - t2)
        with maybe_span(tracer, "store.put", kind="store") as sp:
            stored = self.synopses.put(
                canon,
                sample,
                rewrite.params,
                rewrite.clean_plan,
                versions=self._version_stamps,
            )
            sp.attrs["stored"] = stored is not None
        return self.estimate_from_sample(plan, sample, rewrite)

    def _finish(
        self,
        plan: Aggregate | GroupAggregate,
        rewrite: RewriteResult,
        bundle,
        labels: list[str],
        spec_inputs: dict[str, tuple[int, ...]],
        sample: Table | None,
        *,
        subsample: SubsampleSpec | None = None,
        reuse: "ReuseInfo | None" = None,
    ) -> "QueryResult | GroupedQueryResult":
        """Estimates from (merged) moment state — Section 6.3 and 6.4.

        ``bundle`` holds one moment vector per entry of ``labels``;
        ``spec_inputs`` maps each folded aggregate to its vectors.  An
        aggregate without an entry (``subsample`` given, kind not AVG)
        takes its variance from the Section 7 sub-sample of ``sample``.
        """
        params = rewrite.params
        pruned = rewrite.active_params
        grouped = isinstance(plan, GroupAggregate)
        raw: list = []
        keys: dict[str, np.ndarray] = {}
        if grouped:
            group_key_cols, ys, totals, counts = bundle.moments()
            keys = dict(zip(plan.keys, group_key_cols))
            raw = [
                grouped_estimates_from_moments(
                    pruned, params.a, ys[j], totals[j], counts, label=label
                )
                for j, label in enumerate(labels)
            ]
        elif bundle is not None:
            moments = bundle.moments()
            totals = bundle.totals()
            raw = [
                estimate_from_moments(
                    pruned, moments[j], totals[j], bundle.n_rows, label=label
                )
                for j, label in enumerate(labels)
            ]
        ratio = ratio_estimates_grouped if grouped else ratio_estimate
        estimates: dict = {}
        values: dict = {}
        for spec in plan.specs:
            indices = spec_inputs.get(spec.alias)
            if indices is None:
                est = subsampled_estimate(
                    params,
                    aggregate_input_vector(sample, spec),
                    sample.lineage,
                    subsample,
                    label=spec.kind.upper(),
                )
            elif spec.kind == "avg":
                num, den, both = (raw[j] for j in indices)
                # Polarization: Cov = (Var(f+1) − Var(f) − Var(1)) / 2.
                cov = 0.5 * (
                    both.variance_raw - num.variance_raw - den.variance_raw
                )
                est = ratio(num, den, cov)
            else:
                est = raw[indices[0]]
            estimates[spec.alias] = est
            if spec.quantile is not None:
                values[spec.alias] = est.quantile(spec.quantile)
            else:
                values[spec.alias] = est.values if grouped else est.value
        if not grouped:
            return QueryResult(
                values=values,
                estimates=estimates,
                gus=params,
                sample=sample,
                rewrite=rewrite,
                plan=plan,
                reuse=reuse,
            )
        if plan.having is not None:
            keys, values, estimates = apply_having_grouped(
                plan.having, keys, values, estimates
            )
        return GroupedQueryResult(
            keys=keys,
            values=values,
            estimates=estimates,
            gus=params,
            sample=sample,
            rewrite=rewrite,
            plan=plan,
            reuse=reuse,
        )

    def estimate_from_sample(
        self,
        plan: Aggregate | GroupAggregate,
        sample: Table,
        rewrite: RewriteResult | None = None,
        *,
        subsample: SubsampleSpec | None = None,
        reuse: "ReuseInfo | None" = None,
    ) -> "QueryResult | GroupedQueryResult":
        """Estimate from an already-executed sample (the pure SBox API).

        This is the entry point a host database would call: it needs
        only the result tuples with lineage and the plan description.
        The sample is folded as one chunk into the same moment state
        :meth:`run` merges, so both give the same answer bit for bit.
        """
        if rewrite is None:
            rewrite = self.analyze(plan.child)
        specs = plan.specs
        if subsample is not None:
            _refuse_grouped_subsample(plan)
            # Section 7 serves SUM-like aggregates from the sub-sample;
            # an AVG keeps its full-sample variance, like every AVG.
            specs = tuple(s for s in specs if s.kind == "avg")
        fold, labels, spec_inputs = _fold_plan(plan, specs, rewrite, False)
        with _estimate_phase(sample.n_rows, len(plan.specs)):
            bundle = fold(sample)[0] if labels else None
            return self._finish(
                plan,
                rewrite,
                bundle,
                labels,
                spec_inputs,
                sample,
                subsample=subsample,
                reuse=reuse,
            )

    def estimate_from_sample_grouped(
        self,
        plan: GroupAggregate,
        sample: Table,
        rewrite: RewriteResult | None = None,
        *,
        subsample: SubsampleSpec | None = None,
        reuse: "ReuseInfo | None" = None,
    ) -> GroupedQueryResult:
        """Per-group estimates from an already-executed sample.

        :meth:`estimate_from_sample` under its GROUP BY name: the
        sample's key columns are read as dictionary codes and the rows
        fold, as one chunk, into the
        :class:`~repro.stream.sketch.GroupedMomentBundle` that
        :meth:`run` merges; HAVING filters the estimated output.
        """
        return self.estimate_from_sample(
            plan, sample, rewrite, subsample=subsample, reuse=reuse
        )

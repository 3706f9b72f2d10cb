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
(:meth:`SBox.estimate_from_sample`) is the same route with one chunk,
and so is a synopsis catalog's hit or miss: the catalog hands the SBox
a sample, never an answer.  :meth:`SBox.sample` returns the rows by
the same route without estimating (a version difference's sides).
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
from repro.core.subsample import SubsampleSpec, subsample_state
from repro.errors import EstimationError, PlanError
from repro.obs.metrics import observe_phase_seconds
from repro.obs.trace import (
    env_trace_enabled,
    get_tracer,
    maybe_span,
    start_trace,
)
from repro.relational.aggregates import aggregate_columns
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
    chunking and on a synopsis-catalog hit (which also keeps
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


def _chunk_fold(
    plan: "Aggregate | GroupAggregate",
    rewrite: RewriteResult,
    keep_sample: bool,
):
    """Per-chunk fold: chunk → (moment contribution, sample?).

    Only the compact bundle — and, when the caller keeps the sample,
    the chunk — outlives the chunk task.
    """
    from repro.stream.sketch import GroupedMomentBundle, MomentSketchBundle

    if rewrite.params.a <= 0.0:
        raise EstimationError("cannot estimate from a = 0 (null sampling)")
    recipes = _vector_plan(plan.specs)[0]
    lattice = rewrite.active_params.lattice
    keys = plan.keys if isinstance(plan, GroupAggregate) else None

    def fold(chunk: Table):
        fs = _eval_vectors(recipes, chunk)
        if keys is None:
            contrib: object = MomentSketchBundle(lattice, len(recipes))
            contrib.update(fs, chunk.lineage)
        else:
            contrib = GroupedMomentBundle(lattice, len(keys), len(recipes))
            contrib.update(
                fs, chunk.lineage, [_key_column(chunk, k) for k in keys]
            )
        return contrib, (chunk if keep_sample else None)

    return fold


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
    :class:`~repro.store.SynopsisCatalog`: :meth:`run` and
    :meth:`sample` then take a sampled plan's rows from stored samples
    whenever the sampling algebra proves a stored synopsis subsumes the
    plan, and store fresh samples on every miss.
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
        chunk_size: int | None = None,
        keep_sample: bool = True,
    ) -> "QueryResult | GroupedQueryResult":
        """Execute the sampled plan and estimate every aggregate.

        A :class:`~repro.relational.plan.GroupAggregate` plan returns a
        :class:`GroupedQueryResult`.

        There is one route at every chunking: the plan streams chunk
        by chunk through the pipeline, every chunk's rows fold straight
        into mergeable moment state inside the chunk task, and the
        estimate comes from the merged state — the result sample is
        only materialized (column-pruned) to populate
        ``result.sample``, and not at all under ``keep_sample=False``.
        Chunks run on the calling thread, in order; absent an explicit
        ``chunk_size`` each source chunks itself (one chunk up to
        :data:`~repro.relational.partition.CHUNK_ROWS` rows).  Results
        are bit-for-bit identical for any row partitioning whenever each
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
        neither the fold nor the read-out sorts.  A merge appends the
        chunk's compacted state; the merged state is reduced once, at
        read-out (timed as the ``merge`` phase).

        With a synopsis catalog attached, a sampled plan inside the
        reuse algebra takes its rows from :meth:`_stored_sample`
        instead of the pipeline: a hit serves the stored sample,
        narrowed first to the columns the estimate and the query's
        predicates read; a miss executes the child once with all
        columns available and stores it.  Either way the rows are
        folded as one chunk by the same :meth:`estimate_from_sample`
        a host database calls, sub-sampled or not.

        ``subsample`` (Section 7) estimates the variance of every
        aggregate — SUM, COUNT and both moments and the covariance of
        an AVG, grouped or not — from a lineage-keyed sub-sample: the
        sub-sampler keeps or drops whole lineage keys, so it filters
        the merged moment state at read-out and the rows are never
        gathered again.  Point estimates are bit-identical to the run
        without ``subsample``; only variances move, and a catalog
        serves and stores a sub-sampled query like any other.
        ``extras["n_subsample"]`` counts the kept lineage keys (the
        kept rows whenever each row has its own key) and
        ``extras["subsample_rates"]`` the per-relation rates.

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
                    chunk_size=chunk_size,
                    keep_sample=keep_sample,
                )
            return replace(result, trace=tracer.finish_trace())
        return self._run(
            plan,
            subsample=subsample,
            rng=rng,
            chunk_size=chunk_size,
            keep_sample=keep_sample,
        )

    def _prepare(self, child: PlanNode, rng, chunk_size, shared_draws=None):
        """The ``analyze`` span's rewrite, and the executor to draw with."""
        from repro.relational.pipeline import ChunkedExecutor

        with maybe_span(get_tracer(), "analyze"):
            rewrite = self.analyze(child)
        executor = ChunkedExecutor(
            self.catalog,
            rng if rng is not None else self.rng,
            chunk_size=chunk_size,
            shared_draws=shared_draws,
        )
        return rewrite, executor

    def _run(
        self,
        plan: Aggregate | GroupAggregate,
        *,
        subsample: SubsampleSpec | None,
        rng: np.random.Generator | None,
        chunk_size: int | None,
        keep_sample: bool,
    ) -> "QueryResult | GroupedQueryResult":
        """Fold the plan's chunks into moment state, merge, finish."""
        from repro.relational.pipeline import concat_tables

        rewrite, executor = self._prepare(plan.child, rng, chunk_size)
        keys = plan.keys if isinstance(plan, GroupAggregate) else ()
        columns = aggregate_columns(plan.specs, keys)
        if self.synopses is not None and keep_sample and rewrite.is_sampled:
            stored = self._stored_sample(plan.child, columns, rewrite, executor)
            if stored is not None:
                sample, rewrite, reuse = stored
                return self.estimate_from_sample(
                    plan, sample, rewrite, subsample=subsample, reuse=reuse
                )
        fold = _chunk_fold(plan, rewrite, keep_sample)
        merged = None
        kept: list[Table] = []
        t0 = perf_counter()
        with maybe_span(get_tracer(), "draw") as sp:
            for contrib, chunk in executor.map_chunks(plan.child, fold, columns=columns):
                # A merge only appends; the one reduce is timed below.
                merged = contrib if merged is None else merged.merge(contrib)
                if chunk is not None:
                    kept.append(chunk)
            assert merged is not None  # the pipeline always emits >= 1 chunk
            m0 = perf_counter()
            merged.compact()
            merge_seconds = perf_counter() - m0
            sp.attrs["rows"] = merged.n_rows
            sp.attrs["merge_ns"] = int(merge_seconds * 1e9)
        observe_phase_seconds(
            "draw", perf_counter() - t0 - merge_seconds
        )
        observe_phase_seconds("merge", merge_seconds)
        sample = concat_tables(kept) if keep_sample else None
        with _estimate_phase(merged.n_rows, len(plan.specs)):
            return self._finish(plan, rewrite, merged, sample, subsample=subsample)

    def sample(
        self,
        child: PlanNode,
        columns: frozenset[str],
        *,
        rng: np.random.Generator | None = None,
        chunk_size: int | None = None,
        shared_draws: dict | None = None,
    ) -> "tuple[Table, ReuseInfo | None]":
        """``child``'s sampled rows (with lineage, at least ``columns``)
        and their catalog reuse info, by :meth:`run`'s route: a sampled
        child through the synopsis catalog when one is attached, every
        other child on the pipeline.  Nothing is estimated.

        Calls that pass one ``shared_draws`` map make each lineage-hash
        draw over one base row count once between them
        (:func:`~repro.relational.pipeline.shared_draw`): the sides of
        one version difference.
        """
        from repro.relational.pipeline import concat_tables

        rewrite, executor = self._prepare(child, rng, chunk_size, shared_draws)
        if self.synopses is not None and rewrite.is_sampled:
            stored = self._stored_sample(child, columns, rewrite, executor)
            if stored is not None:
                return stored[0], stored[2]
        t0 = perf_counter()
        with maybe_span(get_tracer(), "draw") as sp:
            rows = concat_tables(list(executor.iter_chunks(child, columns=columns)))
            sp.attrs["rows"] = rows.n_rows
        observe_phase_seconds("draw", perf_counter() - t0)
        return rows, None

    def _stored_sample(
        self,
        child: PlanNode,
        columns: frozenset[str],
        rewrite: RewriteResult,
        executor,
    ) -> "tuple[Table, RewriteResult, ReuseInfo | None] | None":
        """``(sample, rewrite, reuse)`` served from (or put into) the
        synopsis catalog; ``None`` outside the canonical reuse algebra,
        where the caller runs the pipeline.

        A hit's sample and GUS coefficients come straight from the
        matcher (exact reuse / predicate pushdown / residual thinning),
        which gathers only ``columns`` and the query's predicate
        columns, plus lineage.  A miss (``reuse`` is ``None``) executes
        the child once with *all* columns available and stores it.
        Available, not copied: each data column is a pending gather
        from the base table (:class:`~repro.relational.table.Columns`)
        that runs when the caller, or a later hit, first reads it.
        """
        from repro.store import ReuseMatcher, canonicalize, materialize
        from repro.store.fingerprint import draw_token_of

        tracer = get_tracer()
        t0 = perf_counter()
        with maybe_span(tracer, "store.probe", kind="store") as sp:
            canon = canonicalize(
                child,
                {name: t.n_rows for name, t in self.catalog.items()},
                draw_token=draw_token_of(executor.rng),
            )
            if canon is None:
                decision = None
                sp.attrs["outcome"] = "uncanonical"
            else:
                needed = columns
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
            return sample, RewriteResult(clean, params), info
        # Miss: execute the sampled child once, no column pruned, and
        # store it; only what the caller reads gets gathered.
        t2 = perf_counter()
        with maybe_span(tracer, "draw") as sp:
            sample = executor.execute(child)
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
        return sample, rewrite, None

    def _finish(
        self,
        plan: Aggregate | GroupAggregate,
        rewrite: RewriteResult,
        bundle,
        sample: Table | None,
        *,
        subsample: SubsampleSpec | None = None,
        reuse: "ReuseInfo | None" = None,
    ) -> "QueryResult | GroupedQueryResult":
        """Estimates from (merged) moment state — Section 6.3 and 6.4.

        ``bundle`` holds one moment vector per weight vector
        :func:`_vector_plan` plans for the specs.  Under
        ``subsample`` (Section 7) the moments come from the state
        entries the sub-sampler keeps and are unbiased under its
        composed design, while the totals — and so every point
        estimate — still cover the whole sample.
        """
        _, labels, spec_inputs = _vector_plan(plan.specs)
        params = rewrite.params
        pruned = rewrite.active_params
        grouped = isinstance(plan, GroupAggregate)
        keep = unbias = None
        extras: dict = {}
        if subsample is not None:
            keep, unbias, extras = subsample_state(pruned, bundle, subsample)
        keys: dict[str, np.ndarray] = {}
        if grouped:
            group_key_cols, ys, totals, counts = bundle.moments(keep=keep)
            keys = dict(zip(plan.keys, group_key_cols))
            finish = grouped_estimates_from_moments
            args = [(pruned, params.a, y, t, counts) for y, t in zip(ys, totals)]
        else:
            ys, totals = bundle.moments(keep=keep), bundle.totals()
            finish = estimate_from_moments
            args = [(pruned, y, t, bundle.n_rows) for y, t in zip(ys, totals)]
        raw = [
            finish(*arg, label=label, unbias=unbias)
            for arg, label in zip(args, labels)
        ]
        ratio = ratio_estimates_grouped if grouped else ratio_estimate
        estimates: dict = {}
        values: dict = {}
        for spec in plan.specs:
            indices = spec_inputs[spec.alias]
            if spec.kind == "avg":
                num, den, both = (raw[j] for j in indices)
                # Polarization: Cov = (Var(f+1) − Var(f) − Var(1)) / 2.
                cov = 0.5 * (
                    both.variance_raw - num.variance_raw - den.variance_raw
                )
                est = ratio(num, den, cov)
            else:
                est = raw[indices[0]]
            est.extras.update(extras)
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
        fold = _chunk_fold(plan, rewrite, False)
        with _estimate_phase(sample.n_rows, len(plan.specs)):
            return self._finish(
                plan,
                rewrite,
                fold(sample)[0],
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

"""The user-facing database façade.

Binds together the catalog, pipeline, SBox estimator, and SQL frontend:

* :meth:`Database.execute` runs any plan (sampling included);
* :meth:`Database.execute_exact` strips sampling for ground truth (on
  the independent reference interpreter);
* :meth:`Database.estimate` runs an aggregate plan through the SBox;
* :meth:`Database.sql` parses and runs SQL text;
* :meth:`Database.explain` shows the executable plan alongside its
  SOA-equivalent single-GUS analysis form (the paper's Figure 2/4/5
  transformations, rendered).
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ReproError, SchemaError
from repro.relational.plan import (
    Aggregate,
    GroupAggregate,
    PlanNode,
    strip_sampling,
)
from repro.relational.table import Table
from repro.versions.snapshots import (
    VERSION_SEP,
    SnapshotRegistry,
    versioned_name,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.rewrite import RewriteResult
    from repro.core.sbox import GroupedQueryResult, QueryResult, SBox
    from repro.core.subsample import SubsampleSpec
    from repro.obs.report import ExplainAnalyzeReport
    from repro.optimizer import (
        CostModel,
        ErrorBudget,
        OptimizedResult,
        OptimizerReport,
        SamplingPlanOptimizer,
    )
    from repro.store import SynopsisCatalog


def env_workers() -> int | None:
    """The ``REPRO_WORKERS`` engine-wide default.

    Unset, empty and ``0`` mean "no default" (one chunk per source);
    anything but a non-negative integer raises.
    """
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if raw and not raw.isdecimal():
        raise ReproError(
            f"REPRO_WORKERS={raw!r} is not a worker count; accepted "
            "values are unset/empty, 0 (one chunk) or a positive integer"
        )
    return int(raw or 0) or None


def resolve_workers(workers: int | None) -> int | None:
    """Resolve an explicit worker count against the environment default.

    ``None`` defers to ``REPRO_WORKERS`` (itself possibly unset); any
    integer >= 1 is taken literally; 0 and negatives resolve to
    ``None`` — one chunk per source.
    """
    if workers is None:
        return env_workers()
    return int(workers) if workers >= 1 else None


class Database:
    """An in-memory catalog of named tables plus the estimation stack.

    Every query runs on the chunked pipeline
    (:class:`~repro.relational.pipeline.ChunkedExecutor`), on the
    calling thread; ``workers`` selects its default partitioning,
    nothing else.  ``None`` (default) defers to the ``REPRO_WORKERS``
    environment variable and, failing that, leaves the run
    unpartitioned — each source is one chunk; any value >= 1 cuts
    :data:`~repro.relational.partition.DEFAULT_CHUNK_ROWS`-row chunks
    (a count above 1 changes nothing further).  An explicit
    ``chunk_size`` is honoured either way.  Results are bit-for-bit
    identical for every worker count at one chunking.
    Across chunkings executed tables are identical too, and estimates
    are whenever each lineage key's rows stay within one chunk
    (tuple-level sampling of a single table; block sampling via
    boundary alignment); when join fanout replicates a key across
    chunks the merged moment state adds partial sums, so a point
    estimate can move in the last float ulp (variances and moments
    stay exact).  :meth:`execute_exact` / :meth:`sql_exact` alone run
    on the independent reference interpreter
    (:mod:`repro.relational.executor`).
    """

    def __init__(
        self,
        seed: int | None = None,
        *,
        workers: int | None = None,
        chunk_size: int | None = None,
        catalog: "SynopsisCatalog | bool | None" = None,
    ) -> None:
        self.tables: dict[str, Table] = {}
        self.snapshots = SnapshotRegistry()
        self._rng = np.random.default_rng(seed)
        self._cost_model: "CostModel | None" = None
        self.workers = workers
        self.chunk_size = chunk_size
        self.synopses: "SynopsisCatalog | None" = None
        # Identity tests, not truthiness: an empty SynopsisCatalog has
        # len() == 0 and must still attach.
        if catalog is not None and catalog is not False:
            self.attach_catalog(None if catalog is True else catalog)

    def attach_catalog(
        self, catalog: "SynopsisCatalog | None" = None
    ) -> "SynopsisCatalog":
        """Enable sample-synopsis reuse for this database's queries.

        Every estimated query is then served from the catalog whenever
        a stored sample subsumes its sampling plan (exact repeat,
        predicate pushdown, or residual Bernoulli thinning), and
        populates it otherwise.  Table mutations invalidate the
        affected synopses.  Returns the attached catalog.  A hit's
        ``result.sample`` is column-pruned like every other route's:
        the stored sample is narrowed to what the estimate and the
        query's predicates read before any residual filter gathers it.

        Trade-off: populating the catalog keeps the sampled child
        result (even on the chunked engine), because that is what gets
        stored: its lineage and row positions at once, each data column
        when a query first reads it — first-seen queries pay memory
        proportional to their sample's rows for later reuse.  The
        catalog budgets a sample at its fully-read size (bounded by
        ``max_entry_bytes``: larger samples are answered but not
        stored).  Streaming callers that must never materialize
        (``keep_sample=False``) bypass the catalog entirely.
        """
        if catalog is None:
            from repro.store import SynopsisCatalog

            catalog = SynopsisCatalog()
        self.synopses = catalog
        return catalog

    def _invalidate_synopses(self, name: str) -> None:
        if self.synopses is not None:
            self.synopses.invalidate(name)

    def _resolve_workers(self, workers: int | None) -> int | None:
        """Per-call override → database default → ``REPRO_WORKERS``."""
        return resolve_workers(self.workers if workers is None else workers)

    # -- catalog -----------------------------------------------------------

    @classmethod
    def from_tables(
        cls,
        tables: Mapping[str, Table],
        seed: int | None = None,
        *,
        catalog: "SynopsisCatalog | bool | None" = None,
    ) -> "Database":
        db = cls(seed=seed, catalog=catalog)
        for name, table in tables.items():
            db.register(name, table)
        return db

    def register(self, name: str, table: Table) -> Table:
        """Register an existing :class:`Table` under ``name``."""
        if name in self.tables:
            raise SchemaError(f"table {name!r} already exists")
        if VERSION_SEP in name:
            raise SchemaError(
                f"table name {name!r} uses the reserved snapshot "
                f"namespace ({VERSION_SEP!r}); snapshots are taken with "
                "Database.snapshot()"
            )
        named = table.rename(name)
        self.tables[name] = named
        self._cost_model = None  # statistics are stale
        self._invalidate_synopses(name)
        return named

    def create_table(self, name: str, columns: Mapping[str, Any]) -> Table:
        """Create a table from column arrays."""
        return self.register(name, Table(name, columns))

    def _swap_table(self, name: str, table: Table) -> Table:
        """Swap a registered table's contents in place (no snapshot).

        Callers have already looked ``name`` up.  Invalidates every
        synopsis drawn from the old contents — the stored samples no
        longer describe the live table.  Snapshot synopses (registered
        under versioned names) are untouched.
        """
        named = table.rename(name)
        self.tables[name] = named
        self._cost_model = None
        self._invalidate_synopses(name)
        return named

    def snapshot(self, name: str) -> int:
        """Freeze the current contents of ``name`` as a new version.

        Copy-on-write: the snapshot shares every column array — and,
        for mmap tables, the colstore column files on disk — with the
        live table, so this is O(1) in data volume.  Returns the new
        version number (counting up from 1 per base table).  The
        snapshot is immediately queryable via ``db.table(name,
        version=v)`` and ``FROM name AT VERSION v``, and its synopses
        are keyed separately from the live table's, so later mutations
        never invalidate them.
        """
        table = self.table(name)
        version = self.snapshots.allocate(name)
        internal = versioned_name(name, version)
        self.tables[internal] = table.rename(internal).with_version(version)
        self._cost_model = None
        return version

    def update_table(self, name: str, table: Table) -> Table:
        """Snapshot-then-mutate: the one way to change a table's contents.

        The outgoing contents are frozen as a new snapshot version
        first, then ``table`` becomes the live contents.  Live-table
        synopses are invalidated (the samples no longer describe the
        live data) but the new snapshot keeps serving time-travel and
        difference queries from the catalog.  For coordinated
        difference estimates to stay keyed correctly, mutations should
        be update/append-shaped (row positions stable; new rows at the
        end) — :meth:`Table.with_columns` builds such updates sharing
        every untouched column.
        """
        self.snapshot(name)
        return self._swap_table(name, table)

    def versions_of(self, name: str) -> tuple[int, ...]:
        """The snapshot versions of ``name``, ascending."""
        return self.snapshots.versions_of(name)

    def persist(self, name: str, path: str, *, block_rows: int = 1 << 20) -> Table:
        """Write a registered table to columnar storage and go mmap.

        The table's columns are streamed to ``path`` in the repro
        columnar format and the catalog entry is swapped for the
        memory-mapped reader — subsequent queries against ``name`` read
        file-backed pages instead of process heap.  Like
        :meth:`update_table`, the swap invalidates synopses and the
        cost model (the *contents* are bit-identical, but synopsis
        entries hold references into the old arrays that would pin the
        heap copy alive).
        """
        table = self.table(name)
        mapped = table.persist(path, block_rows=block_rows)
        return self._swap_table(name, mapped)

    def attach(self, name: str, path: str) -> Table:
        """Register a persisted columnar directory as a live table.

        Columns are memory-mapped, not loaded: attaching a table far
        larger than RAM is O(footer), and scans fault in only the pages
        they touch.
        """
        return self.register(name, Table.from_mmap(path, name))

    def drop_table(self, name: str) -> None:
        """Drop a table and every snapshot version taken of it."""
        try:
            del self.tables[name]
        except KeyError:
            raise SchemaError(f"no table {name!r} to drop") from None
        for version in self.snapshots.drop_base(name):
            internal = versioned_name(name, version)
            self.tables.pop(internal, None)
            self._invalidate_synopses(internal)
        self._cost_model = None
        self._invalidate_synopses(name)

    def table(self, name: str, version: int | None = None) -> Table:
        """Look up a table, optionally at a frozen snapshot version."""
        if version is not None:
            return self.table(self.resolve_version(name, version))
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(
                f"no table {name!r}; available: {sorted(self.tables)}"
            ) from None

    def resolve_version(self, name: str, version: int | None) -> str:
        """The catalog name of ``name`` at ``version`` (live if None)."""
        if name not in self.tables:
            raise SchemaError(
                f"no table {name!r}; available: {sorted(self.tables)}"
            )
        if version is None:
            return name
        if not self.snapshots.has(name, version):
            raise SchemaError(
                f"table {name!r} has no snapshot version {version}; "
                f"available versions: {list(self.snapshots.versions_of(name))}"
            )
        return versioned_name(name, version)

    def sizes(self) -> dict[str, int]:
        return {name: t.n_rows for name, t in self.tables.items()}

    # -- execution -----------------------------------------------------------

    def rng(self, seed: int | None = None) -> np.random.Generator:
        """A generator: the database's own stream, or a seeded fork."""
        return self._rng if seed is None else np.random.default_rng(seed)

    def execute(
        self,
        plan: PlanNode,
        seed: int | None = None,
        *,
        workers: int | None = None,
        chunk_size: int | None = None,
    ) -> Table:
        """Execute a plan, drawing any samples from the RNG.

        Runs the chunked pipeline; ``workers`` (argument, database
        default, or ``REPRO_WORKERS``) and ``chunk_size`` set its
        partitioning and never change the output.  The result has
        every column of the plan's output; a one-chunk run (no
        ``workers``) returns the columns of sampled or joined rows as
        pending gathers that run when first read, a many-chunk run
        reads them all to concatenate the chunks.
        """
        from repro.relational.pipeline import ChunkedExecutor

        if chunk_size is None:
            chunk_size = self.chunk_size
        return ChunkedExecutor(
            self.tables,
            self.rng(seed),
            workers=self._resolve_workers(workers),
            chunk_size=chunk_size,
        ).execute(plan)

    def execute_exact(self, plan: PlanNode) -> Table:
        """Execute with all sampling removed (ground truth).

        Runs the reference interpreter, not the pipeline: the oracle
        must not share the plan walk of the engine it checks.
        """
        from repro.relational.executor import Executor

        return Executor(self.tables, self.rng(0)).execute(
            strip_sampling(plan)
        )

    # -- estimation ------------------------------------------------------------

    def sbox(self) -> "SBox":
        from repro.core.sbox import SBox

        return SBox(self.tables, self._rng, synopses=self.synopses)

    def estimate(
        self,
        plan: "Aggregate | GroupAggregate",
        *,
        seed: int | None = None,
        subsample: "SubsampleSpec | None" = None,
        workers: int | None = None,
        chunk_size: int | None = None,
        keep_sample: bool = True,
    ) -> "QueryResult | GroupedQueryResult":
        """Run an (optionally grouped) aggregate plan through the SBox.

        The SBox folds each chunk's sample rows directly into mergeable
        moment sketches — the full joined sample is never materialized
        (``keep_sample=False`` skips even the pruned copy kept for
        ``result.sample``).  ``workers`` (argument, database default, or
        ``REPRO_WORKERS``) sets the default partitioning.
        """
        resolved = self._resolve_workers(workers)
        if chunk_size is None:
            chunk_size = self.chunk_size
        return self.sbox().run(
            plan,
            subsample=subsample,
            rng=self.rng(seed),
            workers=resolved,
            chunk_size=chunk_size,
            keep_sample=keep_sample,
        )

    def analyze(self, plan: PlanNode) -> "RewriteResult":
        """The SOA-equivalent single-GUS form of (the input of) a plan."""
        target = (
            plan.child
            if isinstance(plan, (Aggregate, GroupAggregate))
            else plan
        )
        return self.sbox().analyze(target)

    def explain(self, plan: PlanNode) -> str:
        """Executable plan + its SOA-equivalent analysis plan."""
        target = (
            plan.child
            if isinstance(plan, (Aggregate, GroupAggregate))
            else plan
        )
        rewrite = self.sbox().analyze(target)
        return (
            "== executable plan ==\n"
            + plan.pretty()
            + "\n== SOA-equivalent analysis plan ==\n"
            + rewrite.analysis_plan.pretty()
            + "\n== top GUS ==\n"
            + repr(rewrite.params)
        )

    # -- optimization ----------------------------------------------------------

    def cost_model(self) -> "CostModel":
        """The micro-probe-calibrated cost model (cached per catalog)."""
        from repro.optimizer import CostModel

        if self._cost_model is None:
            self._cost_model = CostModel.calibrate(self.tables)
        return self._cost_model

    def optimizer(self, **kwargs) -> "SamplingPlanOptimizer":
        """A sampling-plan optimizer sharing this database's cost model."""
        from repro.optimizer import SamplingPlanOptimizer

        kwargs.setdefault("cost_model", self.cost_model())
        return SamplingPlanOptimizer(self, **kwargs)

    def optimize(
        self,
        plan: Aggregate,
        budget: "ErrorBudget",
        *,
        seed: int | None = None,
    ) -> "OptimizedResult":
        """Run the full choose-execute-escalate loop for a budget."""
        return self.optimizer().optimize(plan, budget, seed=seed)

    # -- SQL -----------------------------------------------------------------

    def plan_sql(self, text: str) -> PlanNode:
        """Parse SQL text into a logical plan (no execution)."""
        from repro.sql.parser import parse
        from repro.sql.planner import plan_query

        return plan_query(parse(text), self)

    def sql(
        self,
        text: str,
        *,
        seed: int | None = None,
        subsample: "SubsampleSpec | None" = None,
        workers: int | None = None,
        chunk_size: int | None = None,
    ) -> (
        "QueryResult | GroupedQueryResult | Table | OptimizedResult"
        " | OptimizerReport | ExplainAnalyzeReport"
    ):
        """Parse and run SQL.

        Aggregate queries return a :class:`QueryResult`; GROUP BY
        aggregate queries a
        :class:`~repro.core.sbox.GroupedQueryResult` with per-group
        estimates and intervals; non-aggregate queries the result
        :class:`Table`.  A ``WITHIN ... % CONFIDENCE ...`` budget
        routes through the sampling-plan optimizer and returns an
        :class:`~repro.optimizer.OptimizedResult`; an ``EXPLAIN
        SAMPLING`` prefix skips execution of the final plan and returns
        the ranked :class:`~repro.optimizer.OptimizerReport`.
        """
        from repro.sql.parser import parse
        from repro.sql.planner import plan_query

        query = parse(text)
        plan = plan_query(query, self)
        if query.explain_sampling or query.budget is not None:
            from repro.errors import SQLError
            from repro.optimizer import ErrorBudget

            if subsample is not None:
                raise SQLError(
                    "subsample applies to the plain estimate path; the "
                    "optimizer controls its own sampling design (drop "
                    "the WITHIN/EXPLAIN SAMPLING clause or the "
                    "subsample spec)"
                )
            assert isinstance(plan, Aggregate)
            clause = query.budget
            budget = (
                ErrorBudget.from_percent(clause.percent, clause.level)
                if clause is not None
                else ErrorBudget.from_percent(5.0)
            )
            optimizer = self.optimizer()
            if query.explain_sampling:
                return optimizer.report(plan, budget, seed=seed)
            return optimizer.optimize(plan, budget, seed=seed)
        from repro.versions.plan import VersionDiff

        if query.explain_analyze:
            from dataclasses import replace

            from repro.obs.report import ExplainAnalyzeReport
            from repro.obs.trace import start_trace

            with start_trace("explain analyze") as tracer:
                if isinstance(plan, VersionDiff):
                    result = self._estimate_version_diff(
                        plan, seed=seed, workers=workers, chunk_size=chunk_size
                    )
                elif isinstance(plan, (Aggregate, GroupAggregate)):
                    result = self.estimate(
                        plan,
                        seed=seed,
                        subsample=subsample,
                        workers=workers,
                        chunk_size=chunk_size,
                    )
                else:
                    result = self.execute(
                        plan, seed=seed, workers=workers, chunk_size=chunk_size
                    )
            trace = tracer.finish_trace()
            if hasattr(result, "trace"):
                result = replace(result, trace=trace)
            return ExplainAnalyzeReport(result=result, trace=trace)
        if isinstance(plan, VersionDiff):
            if subsample is not None:
                from repro.errors import SQLError

                raise SQLError(
                    "subsampling applies to the single-expression "
                    "estimate path; version-difference estimates carry "
                    "their own closed-form variance (drop the subsample "
                    "spec)"
                )
            return self._estimate_version_diff(
                plan, seed=seed, workers=workers, chunk_size=chunk_size
            )
        if isinstance(plan, (Aggregate, GroupAggregate)):
            return self.estimate(
                plan,
                seed=seed,
                subsample=subsample,
                workers=workers,
                chunk_size=chunk_size,
            )
        return self.execute(
            plan, seed=seed, workers=workers, chunk_size=chunk_size
        )

    def _estimate_version_diff(
        self,
        plan: "PlanNode",
        *,
        seed: int | None,
        workers: int | None,
        chunk_size: int | None,
    ):
        from repro.versions.engine import estimate_version_diff

        return estimate_version_diff(
            self, plan, seed=seed, workers=workers, chunk_size=chunk_size
        )

    def sql_exact(self, text: str) -> Table:
        """Ground truth for a SQL query: strip sampling, run exactly."""
        from repro.versions.plan import VersionDiff

        plan = self.plan_sql(text)
        if isinstance(plan, VersionDiff):
            from repro.versions.engine import exact_version_diff

            return exact_version_diff(self, plan)
        return self.execute_exact(plan)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}({t.n_rows})" for name, t in sorted(self.tables.items())
        )
        return f"Database({inner})"


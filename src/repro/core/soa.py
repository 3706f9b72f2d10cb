"""Executable SOA-equivalence checking (Proposition 3 as an oracle).

Proposition 3 characterizes SOA-equivalence through first- and
second-order inclusion probabilities.  This module turns that into a
verifiable claim about our rewriter: execute the *original* sampled
plan many times, measure

* the empirical inclusion rate of each full-result row,
* the empirical mean and variance of a SUM aggregate,

and compare against what the rewritten single-GUS plan *predicts*
(``a`` for every row; Theorem 1 for the moments).  Agreement within
Monte-Carlo error is exactly the paper's notion of equivalence made
testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.estimator import exact_moments
from repro.core.rewrite import rewrite_to_top_gus
from repro.errors import PlanError
from repro.relational.expressions import Expr
from repro.relational.plan import (
    GUSNode,
    LineageSample,
    PlanNode,
    Scan,
    TableSample,
)
from repro.relational.table import Table
from repro.sampling.base import Draw, SamplingMethod, row_lineage


class _LineageOnly(SamplingMethod):
    """Keeps every row but installs the wrapped method's lineage unit.

    Block sampling assigns block-granularity lineage; the ground-truth
    run must observe the *same* lineage ids as the sampled run, so the
    exact plan applies lineage assignment without any filtering — the
    wrapped method's :meth:`~SamplingMethod.lineage_of` every row, and
    no draw (the generator is not touched).
    """

    def __init__(self, inner: SamplingMethod) -> None:
        self.inner = inner

    def draw(self, n_rows: int, rng: np.random.Generator) -> Draw:
        rows = row_lineage(n_rows)
        return Draw(rows, self.inner.lineage_of(rows))

    def gus(self, relation: str, n_rows: int):  # pragma: no cover
        from repro.core.gus import identity_gus

        return identity_gus([relation])

    def describe(self) -> str:
        return f"LINEAGE-ONLY({self.inner.describe()})"


def lineage_preserving_exact(plan: PlanNode) -> PlanNode:
    """The exact (keep-everything) plan with sampling-unit lineage.

    Like :func:`~repro.relational.plan.strip_sampling` but retains each
    ``TableSample``'s lineage assignment so result rows key identically
    to the sampled plan's rows.
    """
    from repro.relational import plan as p

    if isinstance(plan, TableSample):
        return TableSample(plan.child, _LineageOnly(plan.method))
    if isinstance(plan, (LineageSample, GUSNode)):
        return lineage_preserving_exact(plan.child)
    if isinstance(plan, Scan):
        return plan
    if isinstance(plan, p.Select):
        return p.Select(lineage_preserving_exact(plan.child), plan.predicate)
    if isinstance(plan, p.Project):
        return p.Project(lineage_preserving_exact(plan.child), plan.outputs)
    if isinstance(plan, p.Join):
        return p.Join(
            lineage_preserving_exact(plan.left),
            lineage_preserving_exact(plan.right),
            plan.left_keys,
            plan.right_keys,
        )
    if isinstance(plan, p.CrossProduct):
        return p.CrossProduct(
            lineage_preserving_exact(plan.left),
            lineage_preserving_exact(plan.right),
        )
    if isinstance(plan, (p.Union, p.Intersect)):
        ctor = p.Union if isinstance(plan, p.Union) else p.Intersect
        return ctor(
            lineage_preserving_exact(plan.left),
            lineage_preserving_exact(plan.right),
        )
    if isinstance(plan, p.Aggregate):
        return p.Aggregate(lineage_preserving_exact(plan.child), plan.specs)
    raise PlanError(f"cannot build exact plan for {type(plan).__name__}")


@dataclass(frozen=True)
class SOAReport:
    """Comparison of Monte-Carlo reality vs. GUS prediction."""

    trials: int
    predicted_a: float
    max_inclusion_error: float
    predicted_mean: float
    mc_mean: float
    predicted_var: float
    mc_var: float

    @property
    def mean_z(self) -> float:
        """Standardized deviation of the MC mean from the prediction."""
        if self.predicted_var <= 0:
            return 0.0 if self.mc_mean == self.predicted_mean else math.inf
        return abs(self.mc_mean - self.predicted_mean) / math.sqrt(
            self.predicted_var / self.trials
        )

    @property
    def var_ratio(self) -> float:
        """MC variance over predicted variance (→ 1 under equivalence)."""
        if self.predicted_var == 0:
            return 1.0 if self.mc_var == 0 else math.inf
        return self.mc_var / self.predicted_var

    def ok(
        self,
        mean_z_max: float = 5.0,
        var_rel_tol: float = 0.25,
        inclusion_tol: float | None = None,
    ) -> bool:
        """Loose acceptance test sized for Monte-Carlo noise."""
        if inclusion_tol is None:
            # Binomial std of an inclusion estimate, with 6-sigma slack.
            inclusion_tol = 6.0 * math.sqrt(
                max(self.predicted_a * (1 - self.predicted_a), 1e-12)
                / self.trials
            )
        return (
            self.mean_z <= mean_z_max
            and abs(self.var_ratio - 1.0) <= var_rel_tol
            and self.max_inclusion_error <= inclusion_tol
        )


def _lineage_keys(table: Table) -> list[tuple[int, ...]]:
    rels = sorted(table.lineage)
    cols = [table.lineage[r] for r in rels]
    return list(zip(*[c.tolist() for c in cols])) if cols else [()] * table.n_rows


def soa_check(
    catalog: dict[str, Table],
    plan: PlanNode,
    f_expr: Expr,
    *,
    trials: int = 2000,
    seed: int = 0,
) -> SOAReport:
    """Monte-Carlo vs. analytic comparison for a sampled plan.

    ``plan`` is the (non-aggregate) sampled expression; ``f_expr`` the
    SUM argument used as the probe aggregate.
    """
    from repro.relational.executor import Executor

    sizes = {name: t.n_rows for name, t in catalog.items()}
    rewrite = rewrite_to_top_gus(plan, sizes)
    params = rewrite.params

    # Ground truth: keep every row, but observe the sampling-unit
    # lineage (block ids for block sampling, etc.).
    exact_exec = Executor(catalog, np.random.default_rng(0))
    full = exact_exec.execute(lineage_preserving_exact(plan))
    if full.n_rows == 0:
        raise PlanError("SOA check needs a non-empty full result")
    f_full = np.asarray(f_expr.eval(full), dtype=np.float64)
    pruned = params.project_out_inactive()
    lineage_full = {d: full.lineage[d] for d in pruned.lattice.dims}
    predicted_mean, predicted_var = exact_moments(params, f_full, lineage_full)

    # Count inclusion per distinct lineage key: under block sampling
    # many result rows share a key, and P[key present] = a holds per
    # sampling unit, not per row.
    full_keys = {key: i for i, key in enumerate(set(_lineage_keys(full)))}
    inclusion_counts = np.zeros(len(full_keys), dtype=np.int64)

    rng = np.random.default_rng(seed)
    estimates = np.empty(trials, dtype=np.float64)
    for t in range(trials):
        executor = Executor(catalog, rng)
        sample = executor.execute(plan)
        f_sample = np.asarray(f_expr.eval(sample), dtype=np.float64)
        estimates[t] = float(f_sample.sum()) / params.a if params.a else 0.0
        for key in set(_lineage_keys(sample)):
            inclusion_counts[full_keys[key]] += 1

    inclusion_rates = inclusion_counts / trials
    return SOAReport(
        trials=trials,
        predicted_a=params.a,
        max_inclusion_error=float(np.max(np.abs(inclusion_rates - params.a))),
        predicted_mean=predicted_mean,
        mc_mean=float(estimates.mean()),
        predicted_var=predicted_var,
        mc_var=float(estimates.var()),
    )


def pair_inclusion_check(
    catalog: dict[str, Table],
    plan: PlanNode,
    *,
    trials: int = 4000,
    seed: int = 0,
    max_pairs: int = 200,
) -> float:
    """Max deviation of empirical pair-inclusion rates from ``b_T``.

    The second half of Proposition 3: for row pairs with lineage
    agreement pattern ``T``, joint survival should occur at rate
    ``b_T``.  Returns the worst absolute error over (a capped number
    of) pairs.
    """
    from repro.relational.executor import Executor

    sizes = {name: t.n_rows for name, t in catalog.items()}
    params = rewrite_to_top_gus(plan, sizes).params

    exact_exec = Executor(catalog, np.random.default_rng(0))
    full = exact_exec.execute(lineage_preserving_exact(plan))
    keys = _lineage_keys(full)
    index = {key: i for i, key in enumerate(keys)}
    n = full.n_rows
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)][:max_pairs]

    rels = sorted(set(params.lattice.dims) & set(full.lineage))
    rel_cols = {r: full.lineage[r] for r in rels}

    def agreement(i: int, j: int) -> int:
        subset = [r for r in rels if rel_cols[r][i] == rel_cols[r][j]]
        return params.lattice.mask_of(subset)

    joint = np.zeros(len(pairs), dtype=np.int64)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        sample = Executor(catalog, rng).execute(plan)
        present = np.zeros(n, dtype=bool)
        for key in _lineage_keys(sample):
            present[index[key]] = True
        for k, (i, j) in enumerate(pairs):
            if present[i] and present[j]:
                joint[k] += 1

    worst = 0.0
    for k, (i, j) in enumerate(pairs):
        expected = float(params.b[agreement(i, j)])
        worst = max(worst, abs(joint[k] / trials - expected))
    return worst

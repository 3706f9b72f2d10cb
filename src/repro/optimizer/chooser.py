"""The plan chooser: budget in, cheapest qualifying plan out.

Ties the subsystem together, closing the loop from a planned query to
a guaranteed-accuracy answer:

1. :func:`~repro.optimizer.candidates.decompose` the query into its
   skeleton and enumerate (method assignment × join order) variants;
2. execute one cheap **pilot** (hash-Bernoulli on every sampled
   relation) and build a
   :class:`~repro.optimizer.predictor.VariancePredictor` from it;
3. score every candidate — predicted relative CI half-width from the
   predictor, predicted cost from the database's
   :class:`~repro.optimizer.cost.CostModel` (fixed per-row constants,
   so the ranking depends on no clock) — and choose the cheapest
   candidate whose prediction meets the
   :class:`~repro.optimizer.budget.ErrorBudget`.  What depends on the
   join order is paid once per order: its plan, its canonical core,
   the catalog read and each stored synopsis's residual predicates.
   What depends on the method assignment is paid once per assignment:
   the combined GUS and its variance, the per-relation rates, and the
   design its first attempt executes.  A candidate then costs a rate
   comparison against the order's synopses (a stored sample that would
   serve its first attempt makes it cost one pass over that sample)
   or a cost walk over the order's plan at the assignment's rates;
4. execute the chosen plan through the SBox; if the *realized* interval
   misses the budget (pilot noise, unlucky draw), **escalate**: retry
   at geometrically increased rates, with hash-keyed filters reusing
   every already-drawn tuple (nested samples), until the budget is met
   or the plan has escalated to a full scan.

``EXPLAIN SAMPLING`` is step 1–3 without execution:
:meth:`SamplingPlanOptimizer.report` returns the ranked candidate
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from time import perf_counter

from repro.errors import PlanError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import get_tracer, maybe_span
from repro.optimizer.budget import ErrorBudget, no_contributing_row
from repro.optimizer.candidates import (
    PlanCandidate,
    QuerySkeleton,
    methods_label,
    decompose,
    enumerate_assignments,
    escalate_methods,
    is_fully_escalated,
    join_orders,
    max_rate,
    relation_seed,
    reusable_methods,
)
from repro.optimizer.cost import CostEstimate
from repro.optimizer.predictor import VariancePredictor, combined_gus
from repro.core.gus import GUSParams
from repro.core.sbox import QueryResult
from repro.relational.plan import Aggregate, Scan, walk
from repro.sampling import LineageHashBernoulli

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.database import Database

#: Share of the joined result the pilot draws (hash-Bernoulli).
PILOT_RATE = 0.1
#: Rate multiplier per escalation step, of the pilot and of the ladder.
ESCALATION_FACTOR = 2.0
#: Join orders scored per method assignment.
ORDER_LIMIT = 12
#: Re-executions at escalated rates after the first attempt.
MAX_ESCALATIONS = 4
#: The seed of a ``report`` / ``optimize`` call that names none.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class ScoredCandidate:
    """One candidate with its predictions attached.

    ``reused`` marks candidates whose sampling plan is subsumed by a
    stored synopsis: their cost is the near-zero reuse cost (one pass
    over the stored sample) rather than a fresh scan-and-join.
    """

    candidate: PlanCandidate
    params: GUSParams
    predicted_relative_half_width: float
    cost: CostEstimate
    feasible: bool
    reused: bool = False

    @property
    def name(self) -> str:
        return self.candidate.name


@dataclass(frozen=True)
class AttemptRecord:
    """One execution of the escalation loop.

    ``rate`` is the largest per-relation sampling fraction of the
    attempt's method assignment — the "how much data so far" label a
    progressive client displays next to the rung's interval.
    """

    attempt: int
    methods_label: str
    n_sample: int
    realized_relative_half_width: float
    met: bool
    rate: float = float("nan")


@dataclass(frozen=True)
class OptimizerReport:
    """The ranked candidate table (the ``EXPLAIN SAMPLING`` payload).

    ``scored`` is ranked best-first: feasible candidates by predicted
    cost, then infeasible ones by predicted interval width.  ``naive``
    is the baseline the optimizer must beat — the cheapest *uniform*
    Bernoulli assignment (same rate everywhere, original join order)
    predicted to meet the same budget.
    """

    budget: ErrorBudget
    scored: tuple[ScoredCandidate, ...]
    chosen: ScoredCandidate
    naive: ScoredCandidate | None
    pilot_rows: int

    @property
    def cost_ratio(self) -> float:
        """Chosen cost / naive-uniform cost (< 1 means the win is real)."""
        if self.naive is None or self.naive.cost.seconds <= 0.0:
            return math.nan
        return self.chosen.cost.seconds / self.naive.cost.seconds

    def table(self, limit: int = 15) -> str:
        """Plain-text ranking for ``EXPLAIN SAMPLING`` output."""
        header = (
            f"{'rank':<6}{'candidate':<44}{'join order':<28}"
            f"{'pred. cost rows':>16}{'pred. ±':>10}{'meets':>7}"
        )
        lines = [
            f"budget: {self.budget.describe()}  "
            f"(pilot: {self.pilot_rows} rows)",
            header,
            "-" * len(header),
        ]
        for rank, sc in enumerate(self.scored[:limit], start=1):
            marker = "*" if sc is self.chosen else " "
            width = sc.predicted_relative_half_width
            width_text = f"{width:>10.2%}" if math.isfinite(width) else f"{'inf':>10}"
            name = sc.name + (" [cached]" if sc.reused else "")
            lines.append(
                f"{marker}{rank:<5}{name:<44}"
                f"{'⋈'.join(sc.candidate.order):<28}"
                f"{sc.cost.rows_total:>16,.0f}{width_text}"
                f"{'yes' if sc.feasible else 'no':>7}"
            )
        if len(self.scored) > limit:
            lines.append(f"... ({len(self.scored)} candidates scored)")
        lines.append(
            f"chosen: {self.chosen.name} "
            f"[{'⋈'.join(self.chosen.candidate.order)}]"
            + (
                f", {1.0 / self.cost_ratio:.1f}x cheaper than uniform"
                if math.isfinite(self.cost_ratio) and self.cost_ratio < 1.0
                else ""
            )
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class OptimizedResult:
    """Everything an error-budget query returns."""

    report: OptimizerReport
    result: QueryResult
    attempts: tuple[AttemptRecord, ...] = field(repr=False)

    @property
    def met(self) -> bool:
        return self.attempts[-1].met

    def __getitem__(self, alias: str) -> float:
        return self.result.values[alias]

    def outcome_line(self) -> str:
        """The one-line verdict :func:`repro.service.render_result`
        prints under the answer."""
        last = self.attempts[-1]
        chosen = self.report.chosen
        return (
            f"plan: {chosen.name} [{'⋈'.join(chosen.candidate.order)}]; "
            f"budget {self.report.budget.describe()} "
            f"{'met' if last.met else 'MISSED'} after "
            f"{len(self.attempts)} attempt(s), realized "
            f"±{last.realized_relative_half_width:.2%}"
        )


class SamplingPlanOptimizer:
    """Cost-based sampling-plan optimizer over one database."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        self.cost_model = db.cost_model()

    # -- pilot ------------------------------------------------------------

    def _column_owner(self, plan: Aggregate) -> dict[str, str]:
        """Column name → the table the plan scans it from.

        Only scanned tables count: a snapshot of a joined table carries
        the same column names under another catalog name.
        """
        owner: dict[str, str] = {}
        for node in walk(plan):
            if isinstance(node, Scan):
                for column in self.db.table(node.table_name).schema.names:
                    owner[column] = node.table_name
        return owner

    def _pilot(
        self,
        skeleton: QuerySkeleton,
        seed: int,
        chunk_size: int | None,
    ) -> tuple[VariancePredictor, float]:
        """The pilot's predictor and the per-relation rate it used.

        Per-relation rates multiply through the join (Prop 6), so the
        pilot starts at the k-th root of :data:`PILOT_RATE`: about that
        share of the *joined* result.  A pilot where no budgeted
        aggregate has a contributing row predicts nothing, so it is
        drawn again at :data:`ESCALATION_FACTOR` times the rate, up to
        1; the hash draw is nested, so a redraw keeps every row drawn.
        """
        # The pilot runs through the database's SBox, so with a synopsis
        # catalog attached its sample is stored and reused like any
        # other — repeated report()/optimize()/EXPLAIN SAMPLING calls
        # skip re-piloting, and a stored pilot can later serve plain
        # queries by thinning (a valid GUS sample with rescaled
        # coefficients; the algebra does not care who drew it).
        rate = PILOT_RATE ** (1.0 / max(1, len(skeleton.sampled)))
        while True:
            pilot_methods = {
                rel: LineageHashBernoulli(rate, seed=relation_seed(seed + 1, rel))
                for rel in skeleton.sampled
            }
            pilot_plan = skeleton.build(methods=pilot_methods)
            result = self.db.sbox().run(
                pilot_plan,
                rng=self.db.rng(seed),
                chunk_size=chunk_size,
            )
            budgeted = [result.estimates[a] for a in self._budget_aliases(result)]
            # An all-AVG query (no budgeted aggregate) is refused below.
            empty = budgeted and all(map(no_contributing_row, budgeted))
            if not empty or rate >= 1.0:
                return VariancePredictor.from_pilot(result), rate
            rate = min(1.0, rate * ESCALATION_FACTOR)

    # -- scoring ----------------------------------------------------------

    def _usable_synopses(
        self, skeleton: QuerySkeleton, orders, sizes
    ) -> "dict[tuple[str, ...], list] | None":
        """Per join order, the stored synopses of its core with their
        residual predicates (the matcher's residual step); ``None``
        without a synopsis catalog.

        The core is built without samplers: the as-written methods play
        no part in which synopses cover which predicates, and one that
        :func:`~repro.store.canonicalize` refuses (WITH REPLACEMENT)
        must not switch reuse off for every other assignment.
        """
        catalog = getattr(self.db, "synopses", None)
        if catalog is None:
            return None
        from repro.store import canonicalize
        from repro.store.matcher import usable_synopses

        usable = {}
        for order in orders:
            core = canonicalize(skeleton.build(order, {}).child, sizes)
            usable[order] = (
                [] if core is None
                else usable_synopses(core, catalog.candidates(core))
            )
        return usable

    def report(
        self,
        plan: Aggregate,
        budget: ErrorBudget,
        *,
        seed: int | None = None,
        on_pilot: "Callable[[QueryResult, float], None] | None" = None,
        before_execute: "Callable[[str], None] | None" = None,
        chunk_size: int | None = None,
    ) -> OptimizerReport:
        """Enumerate, score, and rank — the ``EXPLAIN SAMPLING`` path.

        ``on_pilot`` (if given) receives the executed pilot result and
        its per-relation sampling rate — the progressive serving tier's
        first streamed estimate.  ``before_execute`` is called with a
        stage label before any engine execution; raising from it aborts
        the run (cooperative cancellation).  Neither hook touches the
        RNG, so hooked and hook-free runs stay bit-identical.
        ``chunk_size`` chunks the pilot's run as it chunks
        :meth:`~repro.core.sbox.SBox.run` (default: the source's own
        chunking).
        """
        seed = DEFAULT_SEED if seed is None else int(seed)
        skeleton = decompose(plan, self._column_owner(plan))
        if not skeleton.sampled:
            raise PlanError(
                "the query samples nothing; an exact plan trivially meets "
                "any budget (run it directly)"
            )
        tracer = get_tracer()
        t_pilot = perf_counter()
        if before_execute is not None:
            before_execute("pilot")
        with maybe_span(tracer, "optimizer.pilot", kind="optimizer") as sp:
            predictor, pilot_rate = self._pilot(skeleton, seed, chunk_size)
            sp.attrs["pilot_rows"] = predictor.pilot.sample.n_rows
        REGISTRY.histogram(
            "repro_optimizer_seconds", stage="pilot"
        ).observe(perf_counter() - t_pilot)
        if on_pilot is not None:
            on_pilot(predictor.pilot, pilot_rate)
        sizes = self.db.sizes()
        schema = sorted(skeleton.relations)
        orders = join_orders(skeleton, limit=ORDER_LIMIT)
        target = budget.target_relative_std
        critical = budget.critical_value
        scored: list[ScoredCandidate] = []
        naive: ScoredCandidate | None = None
        n_scored = 0
        t_score = perf_counter()
        with maybe_span(tracer, "optimizer.score", kind="optimizer") as sp:
            # Per join order, once: the plan every candidate over it is
            # priced on, and the synopses that could serve it.
            plans = {order: skeleton.build(order) for order in orders}
            usable = self._usable_synopses(skeleton, orders, sizes)
            draw_token = None
            if usable is not None:
                from repro.store.fingerprint import design_of, draw_token_of
                from repro.store.matcher import best_decision

                # The escalation loop's first attempt executes with
                # db.rng(seed): that stream's identity is what any
                # stored RNG-drawn synopsis must match to be served.
                draw_token = draw_token_of(self.db.rng(seed))
            cost_sizes = self.cost_model.table_sizes
            for assignment in enumerate_assignments(
                skeleton, sizes, seed=seed
            ):
                label, methods = assignment.label, assignment.methods
                # Per assignment, once: the variance, the rates the
                # cost walk prices it at, and the design its first
                # attempt (reusable_methods, as optimize runs it) would
                # ask the catalog for.
                params = combined_gus(methods, sizes, schema)
                rel_std = predictor.predicted_relative_std(params)
                feasible = rel_std <= target
                rates = {
                    rel: m.gus(rel, cost_sizes.get(rel, 0)).a
                    for rel, m in methods.items()
                }
                design = (
                    None if usable is None
                    else design_of(reusable_methods(methods, seed), sizes)
                )
                # Variance is join-order independent; cost is not.  Keep
                # the cheapest order per assignment (the ranking only
                # ever needs the per-assignment winner).
                best: ScoredCandidate | None = None
                for order in orders:
                    decision = (
                        None if design is None
                        else best_decision(design, draw_token, usable[order])
                    )
                    # A cached candidate costs one pass over the stored
                    # sample (served by pushdown/thinning at execution),
                    # which is what lets the chooser prefer already-
                    # paid-for samples over fresh scans.
                    if decision is None:
                        cost = self.cost_model.estimate(plans[order], rates)
                    else:
                        cost = self.cost_model.reuse_estimate(
                            decision.synopsis.n_rows
                        )
                    n_scored += 1
                    sc = ScoredCandidate(
                        candidate=PlanCandidate(
                            label, order, methods, skeleton
                        ),
                        params=params,
                        predicted_relative_half_width=rel_std * critical,
                        cost=cost,
                        feasible=feasible,
                        reused=decision is not None,
                    )
                    if best is None or cost.seconds < best.cost.seconds:
                        best = sc
                    # The naive baseline is what a rate-knob-only system
                    # would run: uniform Bernoulli, the query's own join
                    # order.  Track it before the cheapest-order pruning
                    # so reordering wins don't erase the comparison
                    # point.
                    if (
                        feasible
                        and order == skeleton.relations
                        and assignment.uniform_bernoulli
                        and (
                            naive is None
                            or cost.seconds < naive.cost.seconds
                        )
                    ):
                        naive = sc
                assert best is not None
                scored.append(best)
            sp.attrs["candidates_scored"] = n_scored
            sp.attrs["assignments"] = len(scored)
        REGISTRY.counter(
            "repro_optimizer_candidates_scored_total"
        ).inc(n_scored)
        REGISTRY.histogram(
            "repro_optimizer_seconds", stage="score"
        ).observe(perf_counter() - t_score)

        scored.sort(
            key=lambda sc: (
                not sc.feasible,
                sc.cost.seconds if sc.feasible
                else sc.predicted_relative_half_width,
            )
        )
        return OptimizerReport(
            budget=budget,
            scored=tuple(scored),
            chosen=scored[0],
            naive=naive,
            pilot_rows=predictor.pilot.sample.n_rows,
        )

    # -- optimization -----------------------------------------------------

    def optimize(
        self,
        plan: Aggregate,
        budget: ErrorBudget,
        *,
        seed: int | None = None,
        on_pilot: "Callable[[QueryResult, float], None] | None" = None,
        on_attempt: (
            "Callable[[AttemptRecord, QueryResult], None] | None"
        ) = None,
        before_execute: "Callable[[str], None] | None" = None,
        chunk_size: int | None = None,
    ) -> OptimizedResult:
        """Choose, execute, and escalate until the budget is realized.

        The loop escalates at most :data:`MAX_ESCALATIONS` times.  The
        hooks expose the loop's intermediate state to streaming
        callers: ``on_pilot`` fires after the pilot execution,
        ``on_attempt`` after every escalation attempt (with its full
        :class:`~repro.core.sbox.QueryResult`), and ``before_execute``
        before each engine run — raising from it aborts the loop, which
        is how a serving deadline or client disconnect cancels an
        in-flight ladder between (never inside) executions.  Hooks only
        observe results; the RNG stream, the chosen plan, and the final
        answer are bit-identical to a hook-free ``optimize`` call.
        ``chunk_size`` chunks the pilot and every attempt (see
        :meth:`report`).
        """
        seed = DEFAULT_SEED if seed is None else int(seed)
        report = self.report(
            plan,
            budget,
            seed=seed,
            on_pilot=on_pilot,
            before_execute=before_execute,
            chunk_size=chunk_size,
        )
        skeleton = report.chosen.candidate.skeleton
        order = report.chosen.candidate.order
        sizes = self.db.sizes()
        methods = reusable_methods(report.chosen.candidate.methods, seed)

        tracer = get_tracer()
        attempts: list[AttemptRecord] = []
        for attempt in range(MAX_ESCALATIONS + 1):
            if before_execute is not None:
                before_execute(f"attempt[{attempt}]")
            executable = skeleton.build(order, methods)
            with maybe_span(
                tracer,
                f"optimizer.attempt[{attempt}]",
                kind="optimizer",
                methods=methods_label(methods),
            ) as sp:
                result = self.db.sbox().run(
                    executable,
                    rng=self.db.rng(seed + attempt),
                    chunk_size=chunk_size,
                )
                realized = self._realized(result, budget)
                met = all(
                    budget.met_by(result.estimates[alias])
                    for alias in self._budget_aliases(result)
                )
                sp.attrs["n_sample"] = result.sample.n_rows
                sp.attrs["met"] = met
            record = AttemptRecord(
                attempt=attempt,
                methods_label=methods_label(methods),
                n_sample=result.sample.n_rows,
                realized_relative_half_width=realized,
                met=met,
                rate=max_rate(methods, sizes),
            )
            attempts.append(record)
            if on_attempt is not None:
                on_attempt(record, result)
            if met or is_fully_escalated(methods, sizes):
                break
            REGISTRY.counter("repro_optimizer_escalations_total").inc()
            methods = escalate_methods(methods, ESCALATION_FACTOR, sizes)
        return OptimizedResult(
            report=report, result=result, attempts=tuple(attempts)
        )

    @staticmethod
    def _budget_aliases(result: QueryResult) -> list[str]:
        assert result.plan is not None
        return [s.alias for s in result.plan.specs if s.kind != "avg"]

    def _realized(self, result: QueryResult, budget: ErrorBudget) -> float:
        return max(
            budget.realized_fraction(result.estimates[alias])
            for alias in self._budget_aliases(result)
        )

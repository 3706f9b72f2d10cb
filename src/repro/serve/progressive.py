"""Progressive answers: a converging interval instead of a spinner.

The optimizer's escalation ladder draws *nested* Bernoulli supersets
(hash-keyed filters at a fixed seed: raising the rate keeps every
already-drawn tuple), which is exactly the monotone-sampling setting of
Cohen & Kaplan — each rung reuses all prior draws, so intermediate
estimates are worth streaming.  This module runs the ladder through the
:mod:`repro.optimizer` hooks and emits one
:class:`ProgressiveFrame` per executed rung: the pilot first (the
"immediate estimate from the cheapest rate"; with a warm synopsis
catalog the pilot is served from a stored sample, making the first
frame near-free), then every escalation attempt until the error budget
is met, the ladder tops out at a full scan, the deadline passes, or the
client goes away.

Each frame carries its own rung's interval, at the budget's level and
method.  A frame may be wider than the one before: the pilot runs at a
fixed rate, and under a loose budget the optimizer may answer from a
cheaper rung below it.
The hooks only observe, so the RNG stream, the chosen plan and the
final frame's estimate *and interval* equal a non-progressive
``db.sql(...)`` run of the same statement at the same seed.

Cancellation is cooperative: ``cancelled``/``deadline`` are checked
before each engine execution (never inside one), so an abandoned ladder
stops between rungs with every already-streamed frame still valid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import DeadlineExceeded, PlanError, QueryCancelled
from repro.optimizer import ErrorBudget
from repro.service import default_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sbox import QueryResult
    from repro.optimizer import AttemptRecord, OptimizedResult
    from repro.relational.database import Database

#: Budget applied when the statement itself carries no WITHIN clause.
DEFAULT_BUDGET_PERCENT = 5.0


@dataclass(frozen=True)
class ProgressiveFrame:
    """One streamed estimate: what the client renders per rung."""

    sequence: int
    stage: str
    alias: str
    estimate: float
    ci_lo: float
    ci_hi: float
    rate: float
    n_sample: int
    elapsed: float


@dataclass(frozen=True)
class ProgressiveOutcome:
    """Everything one progressive run produced.

    ``status`` is ``ok`` (budget loop ran to completion), ``deadline``,
    or ``cancelled``; the two aborts keep the frames streamed so far —
    the client's last frame stands, no further rung runs.
    """

    status: str
    frames: tuple[ProgressiveFrame, ...]
    optimized: "OptimizedResult | None"
    seed: int
    elapsed: float

    @property
    def met(self) -> bool:
        return self.optimized is not None and self.optimized.met


def _display_alias(plan) -> str:
    """The aggregate the frames track: the first budget-checked alias.

    Budgets are enforced on every non-AVG aggregate (AVG is a ratio;
    its interval comes from the linearized pair), so the first such
    alias is what the escalation loop is actually tightening.
    """
    specs = plan.specs
    for spec in specs:
        if spec.kind != "avg":
            return spec.alias
    return specs[0].alias


def run_progressive(
    db: "Database",
    statement: str,
    *,
    seed: int | None = None,
    budget_percent: float | None = None,
    confidence: float | None = None,
    emit: Callable[[ProgressiveFrame], None] | None = None,
    cancelled: Callable[[], bool] | None = None,
    deadline: float | None = None,
    note_execution: Callable[[], None] | None = None,
) -> ProgressiveOutcome:
    """Run one statement progressively, emitting frames as rungs land.

    ``deadline`` is an absolute :func:`time.monotonic` instant;
    ``cancelled`` is polled before every engine execution.  The
    statement's own ``WITHIN ... % CONFIDENCE ...`` clause wins over the
    ``budget_percent``/``confidence`` parameters; absent both, a
    ``WITHIN 5 % CONFIDENCE 0.95`` default applies (a progressive query
    *is* a budgeted query — the frames are the ladder's rungs).
    """
    from repro.relational.plan import Aggregate
    from repro.sql.parser import parse
    from repro.sql.planner import plan_query

    start = time.monotonic()
    text = statement.strip()
    query = parse(text)
    if query.explain_sampling or query.explain_analyze:
        raise PlanError(
            "EXPLAIN has no progressive form; run it as a final query"
        )
    plan = plan_query(query, db)
    if not isinstance(plan, Aggregate):
        raise PlanError(
            "progressive mode needs an ungrouped aggregate query "
            "(the escalation ladder tightens one interval)"
        )
    clause = query.budget
    if clause is not None:
        budget = ErrorBudget.from_percent(clause.percent, clause.level)
    else:
        budget = ErrorBudget.from_percent(
            DEFAULT_BUDGET_PERCENT if budget_percent is None else budget_percent,
            0.95 if confidence is None else confidence,
        )
    if seed is None:
        seed = default_seed(text)
    alias = _display_alias(plan)

    frames: list[ProgressiveFrame] = []

    def check(stage: str) -> None:
        if cancelled is not None and cancelled():
            raise QueryCancelled(f"cancelled before {stage}")
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceeded(f"deadline before {stage}")
        if note_execution is not None:
            note_execution()

    def push(stage: str, result: "QueryResult", rate: float) -> None:
        est = result.estimates[alias]
        ci = est.ci(budget.level, budget.method)
        frame = ProgressiveFrame(
            sequence=len(frames),
            stage=stage,
            alias=alias,
            estimate=float(est.value),
            ci_lo=float(ci.lo),
            ci_hi=float(ci.hi),
            rate=float(rate),
            n_sample=int(est.n_sample),
            elapsed=time.monotonic() - start,
        )
        frames.append(frame)
        if emit is not None:
            emit(frame)

    def on_pilot(result: "QueryResult", rate: float) -> None:
        push("pilot", result, rate)

    def on_attempt(record: "AttemptRecord", result: "QueryResult") -> None:
        push(f"attempt[{record.attempt}]", result, record.rate)

    optimizer = db.optimizer()
    try:
        optimized = optimizer.optimize(
            plan,
            budget,
            seed=seed,
            on_pilot=on_pilot,
            on_attempt=on_attempt,
            before_execute=check,
        )
    except QueryCancelled:
        return ProgressiveOutcome(
            "cancelled", tuple(frames), None, seed, time.monotonic() - start
        )
    except DeadlineExceeded:
        return ProgressiveOutcome(
            "deadline", tuple(frames), None, seed, time.monotonic() - start
        )
    return ProgressiveOutcome(
        "ok", tuple(frames), optimized, seed, time.monotonic() - start
    )

"""Time-boxed fuzz campaigns: generate → check → shrink → report.

``run_fuzz`` drives a deterministic query stream against the check
battery until the time budget runs out, shrinks every failure to a
minimal statement + seed, and returns a :class:`FuzzReport` that
serializes to the JSON artifact the CI job uploads.  The stream is a
pure function of the seed, so any failure replays from
``(seed, query index)`` — and the shrunk case replays from just its
statement + seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro.fuzz.checker import CheckContext, check_statement
from repro.fuzz.generator import QueryGenerator
from repro.fuzz.shrink import ReproCase, shrink_failure
from repro.sql.printer import query_to_sql

__all__ = ["FuzzReport", "run_fuzz"]

#: Run the (expensive) statistical check on every k-th query.
STATISTICAL_EVERY = 6


@dataclass
class FuzzReport:
    """Everything one fuzz campaign produced."""

    seed: int
    #: Seconds the campaign took, read off the run's clock.
    seconds: float
    queries: int = 0
    statistical_queries: int = 0
    #: ``WITHIN`` statements the optimizer planned / refused.
    budgets_planned: int = 0
    budgets_refused: int = 0
    failures: list[ReproCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "seconds": self.seconds,
            "queries": self.queries,
            "statistical_queries": self.statistical_queries,
            "budgets_planned": self.budgets_planned,
            "budgets_refused": self.budgets_refused,
            "ok": self.ok,
            "failures": [
                {
                    "kind": case.kind,
                    "statement": case.statement,
                    "seed": case.seed,
                    "detail": case.detail,
                    "test_source": case.test_source(),
                }
                for case in self.failures
            ],
        }

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2)
            handle.write("\n")

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.queries} queries "
            f"({self.statistical_queries} with sequential statistical "
            f"acceptance, {self.budgets_planned} budgets planned and "
            f"{self.budgets_refused} refused) in {self.seconds:.1f}s, "
            f"seed {self.seed}: "
            + ("all checks passed" if self.ok else
               f"{len(self.failures)} SURVIVING FAILURE(S)")
        ]
        for case in self.failures:
            lines.append(
                f"  [{case.kind}] seed={case.seed}: {case.detail}"
            )
            lines.extend(
                "    " + line for line in case.statement.splitlines()
            )
        return "\n".join(lines)


def run_fuzz(
    seconds: float = 60.0,
    seed: int = 0,
    *,
    max_queries: int | None = None,
    ctx: CheckContext | None = None,
    clock=time.perf_counter,
) -> FuzzReport:
    """Fuzz until the time budget (or ``max_queries``) is exhausted.

    Each query gets a derived per-query seed, the statistical check
    runs on every :data:`STATISTICAL_EVERY`-th query, and every
    failure is shrunk before being recorded (shrinking re-runs checks,
    so it shares the time budget).
    """
    if ctx is None:
        ctx = CheckContext()
    generator = QueryGenerator(seed)
    report = FuzzReport(seed=seed, seconds=seconds)
    start = clock()
    deadline = start + seconds
    index = 0
    while clock() < deadline:
        if max_queries is not None and index >= max_queries:
            break
        query = generator.query()
        statement = query_to_sql(query)
        query_seed = seed * 1_000_003 + index
        statistical = index % STATISTICAL_EVERY == 0
        failures = check_statement(
            ctx, statement, query_seed, statistical=statistical
        )
        report.queries += 1
        if query.budget is not None:
            if ctx.budget_plans(statement, query_seed):
                report.budgets_planned += 1
            else:
                report.budgets_refused += 1
        if statistical:
            report.statistical_queries += 1
        for failure in failures[:1]:  # shrink the first failure per query
            report.failures.append(shrink_failure(ctx, failure))
        index += 1
    report.seconds = clock() - start
    return report

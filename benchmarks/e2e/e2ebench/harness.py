"""One run of one workload: set-up, warm-up, timed rounds, checks, metrics."""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field

from repro.data.tpch import tpch_database
from repro.obs.metrics import phase_seconds_delta, phase_seconds_snapshot

from . import env
from .oracle import (
    ADHOC_TOLERANCE,
    SERVED_TOLERANCE,
    Verdict,
    exact_of,
    judge,
)
from .stats import percentile
from .workloads import FULL, RoundResult, Sizing, make_workload

#: ``setup_s`` is the fastest of at least this many set-ups; cheap set-ups
#: repeat until they have taken this long together, up to the cap.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 7, 3.5

#: name -> unit of every end-to-end metric, in reporting order.
END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "cpu_ms_per_query": "ms",
    "peak_rss_mb": "MB",
    "rel_halfwidth_p50": "ratio",
}

#: Per-round counts that must be identical in every round of a run.
ROUND_INVARIANT = (
    "executor.sample_rows",
    "optimizer.attempts",
    "store.exact_hits",
    "store.pushdown_hits",
    "store.thin_hits",
    "store.misses",
    "store.lookups",
    "store.puts",
    "service.result_cache_hits",
)


#: How the server must have answered at least 95 % of a served class.
SERVED_BY = {
    "repeat": ("result-cache",),
    "reuse": ("exact", "pushdown", "thin"),
    "miss": ("fresh",),
}


@dataclass
class Report:
    """Everything one run measured."""

    workload: str
    seed: int
    seconds: float
    sizing: Sizing
    environment: dict
    rounds: int = 0
    end_to_end: dict[str, float] = field(default_factory=dict)
    class_metrics: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    phases: dict[str, dict] = field(default_factory=dict)
    verdict: Verdict = field(default_factory=Verdict)
    problems: list[str] = field(default_factory=list)
    layer_table: str = ""
    #: The query class whose request sits at the pooled p50 / p90.
    lands_in: dict[str, str] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.verdict.failed == 0


def enough_setups(times: list[float], trace: bool) -> bool:
    if trace:
        return len(times) >= 1  # a traced run reports no set-up time
    return len(times) >= MAX_SETUPS or (
        len(times) >= MIN_SETUPS and sum(times) >= SETUP_BUDGET_S
    )


def peak_rss_mb() -> float:
    """``ru_maxrss`` (KiB on Linux) in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_rounds(workload, rounds: list[RoundResult], problems: list[str]) -> None:
    """Counts, and on the ad hoc path whole answers, repeat across rounds."""
    first = rounds[0]
    for later in rounds[1:]:
        for key in ROUND_INVARIANT:
            if first.counts.get(key) != later.counts.get(key):
                problems.append(
                    f"count {key} differs between rounds: "
                    f"{first.counts.get(key)} vs {later.counts.get(key)}"
                )
        if workload.name.startswith("adhoc"):
            same = all(
                a.answer == b.answer and a.error == b.error
                for a, b in zip(first.outcomes, later.outcomes)
            )
            if not same:
                problems.append("a replayed round returned different answers")
    for key in ("serve.degraded", "serve.rejected"):
        if any(r.counts.get(key, 0) for r in rounds):
            problems.append(f"{key} is not zero: admission altered the stream")
    if workload.name.startswith("adhoc") and first.counts["store.lookups"]:
        problems.append("the ad hoc path consulted a synopsis catalog")
    # A served class is only worth timing if the layer it is named after
    # answered it (the server tags every answer with how it was served).
    for cls, tags in SERVED_BY.items():
        answered = [
            o.tag in tags
            for r in rounds for o in r.outcomes
            if o.request.cls == cls and o.error is None and o.tag
        ]
        if answered and sum(answered) < 0.95 * len(answered):
            problems.append(
                f"only {sum(answered)} of {len(answered)} {cls} requests were "
                f"served as {'/'.join(tags)}"
            )


def judge_rounds(workload, rounds: list[RoundResult], first_index: int) -> Verdict:
    """Compare every timed answer with ``Database.sql_exact``'s."""
    verdict = Verdict()
    served = workload.name.startswith("served")
    tolerance = SERVED_TOLERANCE if served else ADHOC_TOLERANCE
    exact: dict[tuple[str, int], dict] = {}
    databases: dict[int, object] = {}
    for offset, result in enumerate(rounds):
        for outcome in result.outcomes:
            request = outcome.request
            truth = None
            if outcome.error is None:
                state = workload.state_of(first_index + offset, request)
                key = (request.exact_key, state)
                if key not in exact:
                    if state not in databases:
                        databases[state] = workload.oracle_db(state)
                    exact[key] = exact_of(
                        databases[state].sql_exact(request.exact_key)
                    )
                truth = exact[key]
            judge(
                verdict,
                error=outcome.error,
                answer=outcome.answer,
                exact=truth,
                tolerance=tolerance,
                budget=request.budget,
                from_text=served,
                replay=not served and offset > 0,
                fresh_draw=not served or outcome.tag == "fresh",
            )
    return verdict


def run(
    name: str,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    sizing: Sizing | None = None,
    out_dir: str,
    rounds: int | None = None,
) -> Report:
    """Measure one workload once."""
    env.check_environment()
    sizing = sizing or FULL[name]
    n_rounds = rounds if rounds is not None else sizing.rounds(seconds)
    report = Report(name, seed, seconds, sizing, env.describe(), n_rounds)
    workload = make_workload(name, seed, sizing, out_dir)
    tpch_database(0.1)  # throw-away: imports and first-call costs are not set-up
    try:
        setup_times = []
        while not enough_setups(setup_times, trace):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        gc.collect()
        gc.freeze()  # set-up's survivors stay out of the rounds' collections
        workload.warm_up()
        phases_before = phase_seconds_snapshot()
        timed = [workload.run_round(i) for i in range(1, n_rounds + 1)]
        report.phases = phase_seconds_delta(phases_before, phase_seconds_snapshot())
        rss = peak_rss_mb()
        synopses = workload.db.synopses
        resident_mb = 0.0 if synopses is None else synopses.resident_bytes / 1e6
        workload.quiesce()
        check_rounds(workload, timed, report.problems)
        report.verdict = judge_rounds(workload, timed, 1)
        summarize(report, timed, setup_times, rss)
        if trace:
            from . import layers, tracing

            extras = tracing.traced_round(workload, timed[0], report, out_dir)
            extras["store_resident_mb"] = resident_mb
            layers.probe(workload, report, out_dir, extras)
    finally:
        workload.teardown()
        gc.unfreeze()
    return report


def best_of_rounds(per_round: list[list[float]]) -> list[float]:
    """Per position of the stream, the smallest value any round saw.

    Position ``j`` holds the same statement in every round (ad hoc
    rounds replay it, served rounds re-draw only its seed).  The shared
    boxes this runs on flip between two clock speeds some 25 % apart
    every few seconds, so a mean or median over rounds mostly measures
    how much of the run fell into the slow phase; the minimum over
    rounds measures the program.
    """
    return [min(values) for values in zip(*per_round)]


def summarize(
    report: Report, timed: list[RoundResult], setup_times: list[float], rss: float
) -> None:
    """End-to-end metrics, class metrics and counts of the timed rounds."""
    outcomes = timed[0].outcomes
    latency = best_of_rounds([[o.latency_s for o in r.outcomes] for r in timed])
    cpu = best_of_rounds([[o.cpu_s for o in r.outcomes] for r in timed])
    writes = best_of_rounds([r.write_s for r in timed])  # served_churn only
    n = len(latency)
    e2e = report.end_to_end
    # Best of the repeats, like every other timing here (see
    # best_of_rounds): set-up is mostly first-touch allocation, which the
    # box's slow phase stretches by 1.6x.
    e2e["setup_s"] = min(setup_times)
    # One client, closed loop: a round lasts as long as its requests
    # (and, on served_churn, its writes) take one after another.
    e2e["queries_per_s"] = n / (sum(latency) + sum(writes))
    e2e["query_p50_ms"] = percentile(latency, 50) * 1e3
    e2e["query_p90_ms"] = percentile(latency, 90) * 1e3
    e2e["cpu_ms_per_query"] = sum(cpu) / n * 1e3
    e2e["peak_rss_mb"] = rss
    verdict = report.verdict
    widths = verdict.rel_halfwidths
    e2e["rel_halfwidth_p50"] = statistics.median(widths) if widths else 0.0
    report.samples.update(
        query_p50_ms=n, query_p90_ms=n, queries_per_s=n, cpu_ms_per_query=n,
        setup_s=len(setup_times), rel_halfwidth_p50=len(widths),
    )
    ranked = sorted(zip(latency, (o.request.cls for o in outcomes)))
    for name, q in (("query_p50_ms", 50), ("query_p90_ms", 90)):
        report.lands_in[name] = ranked[round((n - 1) * q / 100.0)][1]
    classes = sorted({o.request.cls for o in outcomes})
    for cls in classes:
        values = [v for v, o in zip(latency, outcomes) if o.request.cls == cls]
        report.class_metrics[f"{cls}_p50_ms"] = percentile(values, 50) * 1e3
        report.samples[f"{cls}_p50_ms"] = len(values)
    firsts = [
        [o.first_s for o in r.outcomes if o.first_s is not None] for r in timed
    ]
    if firsts[0]:
        best = best_of_rounds(firsts)
        report.class_metrics["first_estimate_p50_ms"] = percentile(best, 50) * 1e3
        report.samples["first_estimate_p50_ms"] = len(best)
    if writes:
        report.class_metrics["update_p50_ms"] = percentile(writes, 50) * 1e3
        report.samples["update_p50_ms"] = len(writes)
    for key in timed[0].counts:
        report.counts[key] = sum(r.counts[key] for r in timed)
    if verdict.coverage < verdict.coverage_floor:
        report.problems.append(
            f"pooled 95% coverage {verdict.coverage:.3f} is below "
            f"{verdict.coverage_floor:.3f}"
        )
    if not widths:
        report.problems.append("no interval-bearing answer")

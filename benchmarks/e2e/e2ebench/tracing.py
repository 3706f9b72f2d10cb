"""The traced run: spans around the calls into each layer.

End-to-end metrics come from untraced rounds.  A traced run replays
round 1 through a *staged decomposition* written here, in the harness:
the same public functions ``Database.sql`` (or the serve tier) calls,
one span each, so time lands on module names without touching the
program.  Spans stay in memory and are written to
``out/trace_<workload>.json`` when the replay ends.

Staged answers must equal the one-call answers bit for bit, or the
trace is rejected: a decomposition that computes something else cannot
say where the one-call time went.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from repro.obs.metrics import phase_seconds_delta, phase_seconds_snapshot

from .oracle import answer_of
from .workloads import Outcome, RoundResult

#: The engine's own phase timers (``obs.metrics``), as the layer that
#: spends them.  Used where one public call spans several layers.
PHASE_LAYER = {
    "catalog_probe": "store.match",
    "residual": "store.materialize",
    "draw": None,  # the engine that drew: named by the caller
    "merge": "stream.sketch",
    "estimate": "core.estimator",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    cls: str


class Recorder:
    """In-memory span store; a span's parent is the span that caused it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, parent: Span | None, request: int, cls: str):
        span = Span(
            len(self.spans), name, time.perf_counter(), 0.0,
            None if parent is None else parent.id, request, cls,
        )
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()

    def add(self, name: str, start: float, seconds: float, parent: Span) -> None:
        """A span whose duration another clock measured."""
        self.spans.append(
            Span(len(self.spans), name, start, start + seconds, parent.id,
                 parent.request, parent.cls)
        )

    def add_phases(self, parent: Span, before: dict, draw_layer: str) -> None:
        """Turn the engine's phase-timer deltas since ``before`` into
        child spans of ``parent``.

        The timers give durations, not instants, so the children are
        laid end to end from the parent's start.  ``draw_layer`` names
        the engine that did the drawing.
        """
        at = parent.start
        delta = phase_seconds_delta(before, phase_seconds_snapshot())
        for phase, layer in PHASE_LAYER.items():
            seconds = delta.get(phase, {}).get("seconds", 0.0)
            if seconds > 0.0:
                self.add(draw_layer if phase == "draw" else layer, at, seconds, parent)
                at += seconds

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([asdict(s) for s in self.spans], handle)


def layer_table(spans: list[Span], remainder: str) -> tuple[str, float]:
    """Per-layer count, busy and self time, share of request wall, by class.

    Returns the rendered table and the share of request wall that child
    spans cover.  Self time is a span's duration minus its children's
    (a child measured on another clock can only shrink it to zero); the
    request span's own self time is listed as ``remainder``.
    """
    children: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + (s.end - s.start)
    rows: dict[tuple[str, str], list[float]] = {}
    wall: dict[str, float] = {}
    for s in spans:
        busy = s.end - s.start
        own = max(0.0, busy - children.get(s.id, 0.0))
        if s.parent is None:
            wall[s.cls] = wall.get(s.cls, 0.0) + busy
        for cls in (s.cls, "*"):
            row = rows.setdefault((s.name, cls), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += busy
            row[2] += own
    wall["*"] = sum(wall.values())
    lines = [
        f"   {'layer':<32}{'class':<13}{'count':>6}{'busy ms':>11}"
        f"{'self ms':>11}{'% of wall':>10}"
    ]
    for (name, cls), (count, busy, own) in sorted(rows.items()):
        share = 100.0 * own / wall[cls] if wall.get(cls) else 0.0
        label = f"request ({remainder})" if name == "request" else name
        lines.append(
            f"   {label:<32}{cls:<13}{count:>6d}{busy * 1e3:>11.2f}"
            f"{own * 1e3:>11.2f}{share:>10.1f}"
        )
    root_self = rows.get(("request", "*"), [0, 0.0, 0.0])[2]
    attributed = 100.0 * (1.0 - root_self / wall["*"]) if wall["*"] else 0.0
    return "\n".join(lines), attributed


# -- ad hoc ----------------------------------------------------------------


def staged_adhoc(rec: Recorder, db, request, index: int, workers):
    """``Database.sql`` taken apart: parse, plan, analyze, draw, estimate."""
    from repro.optimizer import ErrorBudget
    from repro.relational.plan import GroupAggregate
    from repro.sql.parser import parse
    from repro.sql.planner import plan_query
    from repro.versions.engine import estimate_version_diff
    from repro.versions.plan import VersionDiff

    cls, seed = request.cls, request.seed
    with rec.span("request", None, index, cls) as root:
        with rec.span("sql.parser", root, index, cls):
            query = parse(request.text)
        with rec.span("sql.planner", root, index, cls):
            plan = plan_query(query, db)
        if query.budget is not None:
            budget = ErrorBudget.from_percent(
                query.budget.percent, query.budget.level
            )
            with rec.span("optimizer", root, index, cls):
                return db.optimize(plan, budget, seed=seed)
        if isinstance(plan, VersionDiff):
            with rec.span("versions", root, index, cls):
                return estimate_version_diff(
                    db, plan, seed=seed, workers=workers, chunk_size=None
                )
        if workers is not None:
            # The chunked engine folds chunks into sketches inside one
            # call; its phase timers split that call into layers.
            before = phase_seconds_snapshot()
            with rec.span("core.sbox", root, index, cls) as sp:
                result = db.estimate(plan, seed=seed, workers=workers)
            rec.add_phases(sp, before, "relational.pipeline+parallel")
            return result
        with rec.span("core.rewrite", root, index, cls):
            rewrite = db.analyze(plan)
        with rec.span("relational.executor", root, index, cls):
            sample = db.execute(plan.child, seed)
        with rec.span("core.sbox+estimator", root, index, cls):
            sbox = db.sbox()
            if isinstance(plan, GroupAggregate):
                return sbox.estimate_from_sample_grouped(plan, sample, rewrite)
            return sbox.estimate_from_sample(plan, sample, rewrite)


def trace_adhoc(workload, untraced: RoundResult, rec: Recorder) -> tuple[float, int]:
    """Replay round 1 staged; returns (traced wall, answer mismatches)."""
    mismatches = 0
    start = time.perf_counter()
    for i, (request, before) in enumerate(zip(workload.requests, untraced.outcomes)):
        result = staged_adhoc(rec, workload.db, request, i, workload.workers)
        mismatches += answer_of(result) != before.answer
    return time.perf_counter() - start, mismatches


# -- served ----------------------------------------------------------------


class Shadow:
    """An in-process twin of the served stack, fed the same requests.

    Same tables, same pre-issued families, same writes, same order — so
    its catalog and caches evolve exactly like the real server's and
    its answers must equal the TCP answers bit for bit.
    """

    def __init__(self, workload) -> None:
        from repro.serve import AdmissionController, RequestHandler

        from . import streams

        self.db, self.service = workload.build_service()
        config = workload.server.config
        self.handler = RequestHandler(
            self.service,
            admission=AdmissionController(config.capacity, config.queue_limit),
        )
        for request in streams.family_statements():
            self.service.query(request.text, seed=request.seed)
        if not workload.churn:
            self.db.cost_model()

    def staged(self, rec: Recorder, request, index: int, root: Span) -> dict:
        """decode -> admit -> execute -> encode, one span each."""
        from repro.serve import decode_request, encode

        cls = request.cls
        line = json.dumps(
            {"op": "query", "statement": request.text, "seed": request.seed,
             "mode": "progressive" if request.progressive else "final",
             "id": index + 1},
            separators=(",", ":"),
        ).encode()
        with rec.span("serve.protocol.decode", root, index, cls):
            decoded = decode_request(line)
        with rec.span("serve.admission", root, index, cls):
            decision, rejected = self.handler.admit(decoded)
        assert rejected is None
        name = "serve.progressive" if request.progressive else "service.query"
        before = phase_seconds_snapshot()
        try:
            with rec.span(name, root, index, cls) as sp:
                payload = self.handler.execute(
                    decoded, decision, None, session="shadow"
                )
        finally:
            self.handler.release(decision)
        rec.add_phases(sp, before, "relational.executor")
        with rec.span("serve.protocol.encode", root, index, cls):
            encode(payload)
        return payload


async def _traced_served_round(workload, shadow, rec: Recorder | None):
    """Round 1 over TCP; with a recorder, each request is also staged."""
    requests = workload.round_requests(1)
    writes = (
        [workload.next_state() for _ in range(workload.sizing.writes)]
        if workload.churn else []
    )
    outcomes: list[Outcome] = []
    inproc: list[float] = []
    mismatches = 0
    segment = -1
    for i, request in enumerate(requests):
        if workload.churn and request.segment != segment:
            segment = request.segment
            workload.service.refresh_table("lineitem", writes[segment])
            if shadow is not None:
                shadow.service.refresh_table("lineitem", writes[segment])
        if rec is None:
            outcomes.append(await workload.send(request))
            continue
        with rec.span("request", None, i, request.cls) as root:
            outcome = await workload.send(request)
        outcomes.append(outcome)
        t0 = time.perf_counter()
        payload = shadow.staged(rec, request, i, root)
        inproc.append(time.perf_counter() - t0)
        mismatches += payload.get("values") != outcome.values
    return outcomes, inproc, mismatches


def trace_served(workload, rec: Recorder):
    """Fresh server untraced, then fresh server + shadow traced.

    Both passes start from the same state (families pre-issued, nothing
    else), so their TCP walls compare like with like.
    """
    workload.setup()
    untraced, _, _ = workload.loop.run_until_complete(
        _traced_served_round(workload, None, None)
    )
    workload.setup()
    shadow = Shadow(workload)
    traced, inproc, mismatches = workload.loop.run_until_complete(
        _traced_served_round(workload, shadow, rec)
    )
    overhead = [
        o.latency_s - s for o, s in zip(traced, inproc) if o.error is None
    ]
    return untraced, traced, overhead, mismatches


def traced_round(workload, untraced: RoundResult, report, out_dir: str) -> dict:
    """Run the traced replay; fills the report, returns layer inputs."""
    rec = Recorder()
    extras: dict = {}
    if workload.name.startswith("adhoc"):
        traced_wall, mismatches = trace_adhoc(workload, untraced, rec)
        untraced_wall = untraced.wall_s
    else:
        fresh, traced, overhead, mismatches = trace_served(workload, rec)
        untraced_wall = sum(o.latency_s for o in fresh)
        traced_wall = sum(o.latency_s for o in traced)
        extras["serve_overhead_s"] = overhead
    path = os.path.join(out_dir, f"trace_{workload.name}.json")
    rec.write(path)
    served = not workload.name.startswith("adhoc")
    # Over TCP the staged spans run in process, after the round trip they
    # explain: what they leave of the round trip is the serve tier's own
    # socket, event-loop and thread hand-off time.
    remainder = "serve.transport" if served else "unattributed"
    table, attributed = layer_table(rec.spans, remainder)
    overhead_pct = 100.0 * (traced_wall / untraced_wall - 1.0)
    report.layer_table = (
        table
        + f"\n   {attributed:.1f}% of request wall lies in staged layer spans, "
        f"{100.0 - attributed:.1f}% is {remainder}; {len(rec.spans)} spans in "
        f"{os.path.relpath(path)}; tracing overhead {overhead_pct:+.1f}%"
    )
    if mismatches:
        report.problems.append(
            f"trace rejected: {mismatches} staged answers differ from the "
            "one-call answers"
        )
    extras["trace_overhead_pct"] = overhead_pct
    extras["attributed_pct"] = attributed
    return extras

"""Per-layer metrics: timed calls into each module's public functions.

Layers are module names.  Every probe runs on every workload, against
that workload's own tables (in RAM or mmap) and a fixed set of probe
statements, so a layer metric means the same thing everywhere and is
never a placeholder; counts that describe the workload's own rounds
(catalog hits, evictions, admissions) come from those rounds.
Probes run after the timed rounds, on private catalogs, services and
servers, so they cannot disturb what the end-to-end metrics measured.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import replace

import numpy as np

from . import streams
from .workloads import BLOCK_ROWS, SERVE_CONFIG, busy_threads, perturbed_prices

#: name -> unit of every per-layer metric, in reporting order.
PER_LAYER = {
    "sql.parse_us": "us",
    "sql.plan_us": "us",
    "rewrite.analyze_us": "us",
    "executor.draw_ms": "ms",
    "executor.rows_per_s": "1/s",
    "executor.sample_rows": "count",
    "executor.join_ms": "ms",
    "pipeline.draw_ms": "ms",
    "pipeline.rows_per_s": "1/s",
    "pipeline.chunks_per_query": "count",
    "pipeline.cpu_over_wall": "ratio",
    "kernels.hash01_mrows_s": "Mrows/s",
    "kernels.group_sums_mrows_s": "Mrows/s",
    "kernels.pack_columns_mrows_s": "Mrows/s",
    "kernels.jit_active": "count",
    "sampling.bernoulli_mrows_s": "Mrows/s",
    "estimator.scalar_ms": "ms",
    "estimator.grouped_ms": "ms",
    "estimator.ns_per_sample_row": "ns",
    "estimator.ci_coverage": "ratio",
    "estimator.bias_z_max": "sigma",
    "sketch.merge_ms": "ms",
    "phase.draw_share": "ratio",
    "phase.merge_share": "ratio",
    "phase.estimate_share": "ratio",
    "optimizer.report_ms": "ms",
    "optimizer.attempts_mean": "count",
    "optimizer.met_share": "ratio",
    "optimizer.calibrate_s": "s",
    "store.canonicalize_us": "us",
    "store.match_us": "us",
    "store.materialize_ms": "ms",
    "store.put_ms": "ms",
    "store.hit_share": "ratio",
    "store.exact_hits": "count",
    "store.pushdown_hits": "count",
    "store.thin_hits": "count",
    "store.misses": "count",
    "store.evictions": "count",
    "store.invalidations": "count",
    "store.resident_mb": "MB",
    "service.cached_query_us": "us",
    "service.result_cache_hit_share": "ratio",
    "service.refresh_ms": "ms",
    "serve.ping_us": "us",
    "serve.decode_us": "us",
    "serve.encode_us": "us",
    "serve.admit_us": "us",
    "serve.overhead_ms": "ms",
    "serve.frames_per_budget": "count",
    "serve.degraded": "count",
    "serve.rejected": "count",
    "serve.timeouts": "count",
    "colstore.persist_mb_s": "MB/s",
    "colstore.attach_ms": "ms",
    "colstore.scan_mb_s": "MB/s",
    "colstore.bytes_per_user_byte": "ratio",
    "versions.update_ms": "ms",
    "versions.diff_ms": "ms",
    "versions.mb_per_version": "MB",
    "obs.trace_overhead_pct": "%",
}

#: Rows of the synthetic arrays the kernel probes run over.
KERNEL_ROWS = 1_000_000

#: Two serve-tier defects this benchmark surfaces and does not fix: a
#: GROUP BY answer is not JSON-serializable and a version difference has
#: no ``kind``; either kills the request task, so the client never gets
#: a terminal frame.  Four statements of each, sent pipelined.
_SURFACE_PROBE = [
    "SELECT l_linestatus, SUM(l_quantity) AS q FROM lineitem "
    f"TABLESAMPLE ({rate} PERCENT) GROUP BY l_linestatus"
    for rate in (5, 10, 15, 20)
] + [
    "SELECT SUM(l_extendedprice) AS v FROM lineitem MINUS AT VERSION 1 "
    f"TABLESAMPLE ({rate} PERCENT) REPEATABLE (7)"
    for rate in (5, 10, 15, 20)
]


def timed(fn, repeats: int = 5) -> float:
    """Median wall seconds of ``fn()`` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_statements() -> list[streams.Request]:
    """What the engine probes execute: the ad hoc shapes at every rate."""
    requests = (
        streams.scalar_requests(9)
        + streams.join_requests(6)
        + streams.grouped_requests(3)
    )
    return [
        replace(r, seed=1000 + i) for i, r in enumerate(requests)
    ]


def probe_database(workload):
    """A private database over the workload's own base tables.

    Shares the column arrays (or mmap views); has its own catalog slot,
    cost model and snapshot registry, so probes mutate nothing the
    workload owns.
    """
    from repro.relational.database import Database
    from repro.versions.snapshots import VERSION_SEP

    tables = {
        name: table
        for name, table in workload.db.tables.items()
        if VERSION_SEP not in name
    }
    return Database.from_tables(tables, seed=0)


# -- engine ----------------------------------------------------------------


def probe_engine(db, m: dict) -> None:
    """sql, core.rewrite, relational.executor/pipeline, core.estimator,
    stream.sketch — one pass over the probe statements."""
    from repro.relational.executor import join_codes, probe_sorted
    from repro.relational.pipeline import ChunkedExecutor
    from repro.relational.plan import GroupAggregate
    from repro.sql.parser import parse
    from repro.sql.planner import plan_query
    from repro.stream.sketch import MomentSketchBundle

    statements = probe_statements()
    parse_s, plan_s, analyze_s = [], [], []
    draw_s, pipe_s, pipe_cpu, chunks = [], [], [], []
    scalar_s, grouped_s = [], []
    rows_in = rows_out = 0
    estimate_total = 0.0
    merge_s = []
    sbox = db.sbox()
    workers = busy_threads()
    for request in statements:
        parse_s.append(timed(lambda: parse(request.text)))
        query = parse(request.text)
        plan_s.append(timed(lambda: plan_query(query, db)))
        plan = plan_query(query, db)
        analyze_s.append(timed(lambda: db.analyze(plan)))
        rewrite = db.analyze(plan)
        n_in = sum(db.table(ref.name).n_rows for ref in query.tables)

        t0 = time.perf_counter()
        sample = db.execute(plan.child, request.seed)
        draw_s.append(time.perf_counter() - t0)
        rows_in += n_in
        rows_out += sample.n_rows

        executor = ChunkedExecutor(db.tables, db.rng(request.seed), workers=workers)
        c0, t0 = time.process_time(), time.perf_counter()
        n_chunks = sum(1 for _ in executor.iter_chunks(plan.child))
        pipe_s.append(time.perf_counter() - t0)
        pipe_cpu.append(time.process_time() - c0)
        chunks.append(n_chunks)

        if isinstance(plan, GroupAggregate):
            seconds = timed(
                lambda: sbox.estimate_from_sample_grouped(plan, sample, rewrite), 3
            )
            grouped_s.append(seconds)
        else:
            seconds = timed(
                lambda: sbox.estimate_from_sample(plan, sample, rewrite), 3
            )
            scalar_s.append(seconds)
            # Two half-sample sketches, merged: the chunked engine's fold.
            lattice = rewrite.params.project_out_inactive().lattice
            values = [np.ones(sample.n_rows)]
            half = sample.n_rows // 2

            def half_sketch(lo: int, hi: int):
                lineage = {k: v[lo:hi] for k, v in sample.lineage.items()}
                return MomentSketchBundle(lattice, 1).update(
                    [values[0][lo:hi]], lineage
                )

            left, right = half_sketch(0, half), half_sketch(half, sample.n_rows)
            t0 = time.perf_counter()
            left.merge(right)
            merge_s.append(time.perf_counter() - t0)
        estimate_total += seconds

    m["sql.parse_us"] = statistics.median(parse_s) * 1e6
    m["sql.plan_us"] = statistics.median(plan_s) * 1e6
    m["rewrite.analyze_us"] = statistics.median(analyze_s) * 1e6
    m["executor.draw_ms"] = statistics.median(draw_s) * 1e3
    m["executor.rows_per_s"] = rows_in / sum(draw_s)
    m["executor.sample_rows"] = rows_out
    m["pipeline.draw_ms"] = statistics.median(pipe_s) * 1e3
    m["pipeline.rows_per_s"] = rows_in / sum(pipe_s)
    m["pipeline.chunks_per_query"] = statistics.mean(chunks)
    m["pipeline.cpu_over_wall"] = sum(pipe_cpu) / sum(pipe_s)
    m["estimator.scalar_ms"] = statistics.median(scalar_s) * 1e3
    m["estimator.grouped_ms"] = statistics.median(grouped_s) * 1e3
    m["estimator.ns_per_sample_row"] = estimate_total / rows_out * 1e9
    m["sketch.merge_ms"] = statistics.median(merge_s) * 1e3

    # The join the workload's statements run: lineitem probing orders.
    build = np.asarray(db.table("orders").column("o_orderkey"))
    probe = np.asarray(db.table("lineitem").column("l_orderkey"))[::5]

    def join() -> None:
        left, right = join_codes([build], [probe])
        order = np.argsort(left, kind="stable")
        probe_sorted(left[order], order, right)

    m["executor.join_ms"] = timed(join) * 1e3


def probe_kernels(m: dict) -> None:
    """core.kernels and sampling, on synthetic arrays of a fixed size."""
    from repro.core import kernels
    from repro.sampling.bernoulli import Bernoulli

    n = KERNEL_ROWS
    rng = np.random.default_rng(0)
    ids = np.arange(n, dtype=np.int64)
    gids = np.sort(rng.integers(0, 1000, n))
    weights = rng.random(n)
    cols = [rng.integers(0, 50, n), rng.integers(0, 2500, n)]
    sampler = Bernoulli(0.1)

    def mrows(fn) -> float:
        return n / timed(fn) / 1e6

    m["kernels.hash01_mrows_s"] = mrows(lambda: kernels.hash01(7, ids))
    m["kernels.group_sums_mrows_s"] = mrows(
        lambda: kernels.group_sums(gids, weights, 1000)
    )
    m["kernels.pack_columns_mrows_s"] = mrows(lambda: kernels.pack_columns(cols, n))
    m["kernels.jit_active"] = int(kernels.jit_active())
    m["sampling.bernoulli_mrows_s"] = mrows(lambda: sampler.draw(n, rng))


def probe_optimizer(db, m: dict) -> None:
    from repro.optimizer import CostModel, ErrorBudget

    t0 = time.perf_counter()
    CostModel.calibrate(db.tables)
    m["optimizer.calibrate_s"] = time.perf_counter() - t0
    optimizer = db.optimizer()
    report_s, attempts, met = [], [], []
    for i, request in enumerate(streams.budget_requests(6)):
        plan = db.plan_sql(request.text)
        budget = ErrorBudget.from_percent(request.budget * 100.0, 0.95)
        t0 = time.perf_counter()
        optimizer.report(plan, budget, seed=2000 + i)
        report_s.append(time.perf_counter() - t0)
        result = db.sql(request.text, seed=2000 + i)
        attempts.append(len(result.attempts))
        met.append(result.met)
    m["optimizer.report_ms"] = statistics.median(report_s) * 1e3
    m["optimizer.attempts_mean"] = statistics.mean(attempts)
    m["optimizer.met_share"] = sum(met) / len(met)


def probe_store(db, m: dict) -> None:
    """store: fingerprint, matcher and catalog on a private catalog."""
    from repro.store import ReuseMatcher, SynopsisCatalog, canonicalize, materialize
    from repro.store.fingerprint import draw_token_of

    catalog = SynopsisCatalog()
    matcher = ReuseMatcher(catalog)
    sizes = db.sizes()
    canon_s, match_s, serve_s, put_s = [], [], [], []
    for fam in streams.FAMILIES:
        stored_text, _ = fam.sql(fam.aggs[0], streams.FAMILY_RATE, [])
        wanted_text, _ = fam.sql(fam.aggs[0], 5.0, [fam.fixed_filters[0]])
        stored_plan = db.plan_sql(stored_text).child
        wanted_plan = db.plan_sql(wanted_text).child
        token = draw_token_of(db.rng(fam.seed))
        canon_s.append(
            timed(lambda: canonicalize(wanted_plan, sizes, draw_token=token))
        )
        stored = canonicalize(stored_plan, sizes, draw_token=token)
        wanted = canonicalize(
            wanted_plan, sizes, draw_token=draw_token_of(db.rng(fam.seed + 1))
        )
        sample = db.execute(stored_plan, fam.seed)
        rewrite = db.analyze(stored_plan)
        t0 = time.perf_counter()
        catalog.put(stored, sample, rewrite.params, rewrite.clean_plan)
        put_s.append(time.perf_counter() - t0)
        match_s.append(timed(lambda: matcher.peek(wanted)))
        decision = matcher.peek(wanted)
        serve_s.append(timed(lambda: materialize(decision), 3))
    m["store.canonicalize_us"] = statistics.median(canon_s) * 1e6
    m["store.match_us"] = statistics.median(match_s) * 1e6
    m["store.materialize_ms"] = statistics.median(serve_s) * 1e3
    m["store.put_ms"] = statistics.median(put_s) * 1e3


def probe_colstore(db, m: dict, out_dir: str) -> None:
    from repro.relational.table import Table

    table = db.table("lineitem")
    user_bytes = sum(
        sum(len(v) for v in col.tolist()) if col.dtype.kind == "O" else col.nbytes
        for col in map(np.asarray, table.columns.values())
    )
    root = tempfile.mkdtemp(prefix="colstore_", dir=out_dir)
    try:
        path = os.path.join(root, "lineitem")
        t0 = time.perf_counter()
        table.persist(path, block_rows=BLOCK_ROWS)
        persist_s = time.perf_counter() - t0
        disk_bytes = sum(
            os.path.getsize(os.path.join(dirpath, name))
            for dirpath, _, names in os.walk(path)
            for name in names
        )
        m["colstore.persist_mb_s"] = user_bytes / 1e6 / persist_s
        m["colstore.attach_ms"] = timed(lambda: Table.from_mmap(path, "lineitem")) * 1e3
        mapped = Table.from_mmap(path, "lineitem")
        price = mapped.column("l_extendedprice")
        m["colstore.scan_mb_s"] = price.nbytes / 1e6 / timed(lambda: float(price.sum()))
        m["colstore.bytes_per_user_byte"] = disk_bytes / user_bytes
        del mapped, price
    finally:
        shutil.rmtree(root, ignore_errors=True)


def probe_versions(db, m: dict) -> None:
    rng = np.random.default_rng(0)
    update_s = []
    for _ in range(3):
        new = perturbed_prices(db.table("lineitem"), rng)
        t0 = time.perf_counter()
        db.update_table("lineitem", new)
        update_s.append(time.perf_counter() - t0)
    live, frozen = db.table("lineitem"), db.table("lineitem", version=3)
    changed = sum(
        np.asarray(col).nbytes
        for name, col in live.columns.items()
        if col is not frozen.columns[name]
    )
    text = (
        "SELECT SUM(l_extendedprice) AS v FROM lineitem MINUS AT VERSION 3 "
        "TABLESAMPLE (10 PERCENT) REPEATABLE (11)"
    )
    m["versions.update_ms"] = statistics.median(update_s) * 1e3
    m["versions.diff_ms"] = timed(lambda: db.sql(text, seed=1)) * 1e3
    m["versions.mb_per_version"] = changed / 1e6


# -- service and serve -----------------------------------------------------


async def _probe_serve(db, twin, m: dict, timeout_s: float) -> None:
    from repro.serve import ReproServer, ServeClient, decode_request, encode
    from repro.service import QueryService

    service, twin_service = QueryService(db), QueryService(twin)
    server = ReproServer(service, SERVE_CONFIG)
    await server.start()
    client = await ServeClient.connect("127.0.0.1", server.tcp_port)
    statements = probe_statements()
    try:
        pings = []
        for _ in range(300):
            t0 = time.perf_counter()
            await client.ping()
            pings.append(time.perf_counter() - t0)
        m["serve.ping_us"] = statistics.median(pings) * 1e6

        # Paired replay: the same statement over TCP and in process, on
        # two services in the same state.
        overhead = []
        payload = None
        for request in statements[:15]:
            t0 = time.perf_counter()
            payload = await client.query(request.text, seed=request.seed)
            tcp = time.perf_counter() - t0
            t0 = time.perf_counter()
            twin_service.query(request.text, seed=request.seed)
            overhead.append(tcp - (time.perf_counter() - t0))
        m["serve.overhead_ms"] = statistics.median(overhead) * 1e3

        line = json.dumps(
            {"id": 1, "op": "query", "statement": statements[0].text,
             "seed": 7, "mode": "final"}
        ).encode()
        request = decode_request(line)
        m["serve.decode_us"] = timed(lambda: decode_request(line), 200) * 1e6
        m["serve.encode_us"] = timed(lambda: encode(payload), 200) * 1e6

        def admit() -> None:
            decision, _ = server.handler.admit(request)
            server.handler.release(decision)

        m["serve.admit_us"] = timed(admit, 200) * 1e6

        frames = []
        for i, budget in enumerate(streams.budget_requests(6, progressive=True)):
            seen: list[dict] = []
            await client.query(
                budget.text, seed=3000 + i, progressive=True, on_frame=seen.append
            )
            frames.append(len(seen))
        m["serve.frames_per_budget"] = statistics.mean(frames)

        repeat = statements[0]
        service.query(repeat.text, seed=repeat.seed)
        m["service.cached_query_us"] = (
            timed(lambda: service.query(repeat.text, seed=repeat.seed), 300) * 1e6
        )

        # Surface probe: statements the serve tier is known to drop.  A
        # version must exist for the MINUS statements to get that far.
        rng = np.random.default_rng(0)
        refresh_s = []
        for _ in range(3):
            new = perturbed_prices(db.table("lineitem"), rng)
            t0 = time.perf_counter()
            service.refresh_table("lineitem", new)
            refresh_s.append(time.perf_counter() - t0)
        m["service.refresh_ms"] = statistics.median(refresh_s) * 1e3
        ids = [
            await client.start_query(text, seed=4000 + i, mode="final")
            for i, text in enumerate(_SURFACE_PROBE)
        ]
        # The server's one worker runs requests in arrival order, so when
        # this sentinel's answer is back every probe statement has run:
        # one that still has no terminal frame will never get one.
        async with asyncio.timeout(timeout_s):
            await client.query(statements[0].text, seed=4999)

        async def terminal(rid: int) -> bool:
            try:
                async with asyncio.timeout(0.05):
                    return (await client.wait(rid)).get("type") == "result"
            except TimeoutError:
                return False

        answered = await asyncio.gather(*(terminal(rid) for rid in ids))
        m["serve.timeouts"] = answered.count(False)
        decisions = server.admission.decisions
        m["serve.degraded"] = decisions["degrade"]
        m["serve.rejected"] = decisions["reject"]
    finally:
        await client.close()
        await server.drain()


def probe(workload, report, out_dir: str, extras: dict) -> None:
    """Fill ``report.per_layer`` with every metric of :data:`PER_LAYER`."""
    m = report.per_layer
    db = probe_database(workload)
    probe_engine(db, m)
    probe_kernels(m)
    probe_optimizer(db, m)
    probe_store(db, m)
    probe_colstore(db, m, out_dir)
    loop = asyncio.new_event_loop()
    # The surface probe kills request tasks inside the server; asyncio
    # would print each as "Task exception was never retrieved".  They are
    # counted (serve.timeouts), not news.
    loop.set_exception_handler(lambda loop, context: None)
    try:
        loop.run_until_complete(
            _probe_serve(
                probe_database(workload), probe_database(workload), m,
                workload.sizing.request_timeout_s,
            )
        )
    finally:
        loop.close()
    probe_versions(db, m)

    # What the workload's own timed rounds say about the layers.
    phases = {k: v["seconds"] for k, v in report.phases.items()}
    total = sum(phases.values())
    for phase in ("draw", "merge", "estimate"):
        m[f"phase.{phase}_share"] = phases.get(phase, 0.0) / total if total else 0.0
    counts = report.counts
    lookups = counts.get("store.lookups", 0)
    hits = sum(
        counts.get(f"store.{kind}_hits", 0) for kind in ("exact", "pushdown", "thin")
    )
    m["store.hit_share"] = hits / lookups if lookups else 0.0
    for key in ("exact_hits", "pushdown_hits", "thin_hits", "misses",
                "evictions", "invalidations"):
        m[f"store.{key}"] = counts.get(f"store.{key}", 0)
    m["store.resident_mb"] = extras.get("store_resident_mb", 0.0)
    queries = counts.get("service.queries", 0)
    m["service.result_cache_hit_share"] = (
        counts.get("service.result_cache_hits", 0) / queries if queries else 0.0
    )
    m["serve.degraded"] += counts.get("serve.degraded", 0)
    m["serve.rejected"] += counts.get("serve.rejected", 0)
    verdict = report.verdict
    m["estimator.ci_coverage"] = verdict.coverage
    m["estimator.bias_z_max"] = max((abs(z) for z in verdict.z_scores), default=0.0)
    m["obs.trace_overhead_pct"] = extras["trace_overhead_pct"]
    if "serve_overhead_s" in extras and extras["serve_overhead_s"]:
        # The served workloads measured this on their own stream.
        m["serve.overhead_ms"] = statistics.median(extras["serve_overhead_s"]) * 1e3
    missing = set(PER_LAYER) - set(m)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")

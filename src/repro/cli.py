"""Interactive SQL shell, batch runner, and streaming demo.

Usage::

    python -m repro                          # TPC-H scale 0.1, shell
    python -m repro --scale 0.5 --seed 7     # bigger instance
    python -m repro --load orders=o.csv --load lineitem=l.csv
    python -m repro -c "SELECT COUNT(*) AS n FROM lineitem TABLESAMPLE (10 PERCENT)"
    python -m repro stream --windows 8              # streaming engine demo
    cat workload.sql | python -m repro serve        # catalog service
    python -m repro serve --selftest                # service self-check
    python -m repro serve --tcp --port 7799         # network serving tier
    python -m repro query --connect 127.0.0.1:7799 --progressive \
        "SELECT SUM(l_extendedprice) AS rev FROM lineitem \
         TABLESAMPLE (5 PERCENT) WITHIN 2 % CONFIDENCE 0.95"
    python -m repro ingest big.csv tables/big        # CSV -> columnar dir
    python -m repro --attach big=tables/big          # query it out-of-core
    python -m repro --mmap                           # TPC-H, spilled to mmap

Shell commands:

* any SQL statement — runs it; aggregate queries print estimates with
  95% intervals (GROUP BY queries one row per group, each aggregate as
  ``value [lo, hi]``), others print rows; a ``WITHIN 5 % CONFIDENCE
  0.95`` suffix routes through the sampling-plan optimizer, and an
  ``EXPLAIN SAMPLING`` prefix prints the ranked candidate plans;
* ``\\explain <sql>`` — show the executable plan and its SOA-equivalent
  single-GUS analysis plan;
* ``\\exact <sql>`` — run with sampling stripped (ground truth);
* ``\\tables`` — list the catalog;
* ``\\quit`` — leave.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.service import render_result


def _build_database(args):
    from repro.relational.database import Database

    attach = getattr(args, "attach", None) or []
    if args.load or attach:
        db = Database(seed=args.seed)
        if args.load:
            from repro.relational.io import read_csv

            for spec in args.load:
                if "=" not in spec:
                    raise ReproError(
                        f"--load expects name=path.csv, got {spec!r}"
                    )
                name, path = spec.split("=", 1)
                db.register(name, read_csv(path, name=name))
        for spec in attach:
            if "=" not in spec:
                raise ReproError(
                    f"--attach expects name=directory, got {spec!r}"
                )
            name, path = spec.split("=", 1)
            db.attach(name, path)
    else:
        from repro.data.tpch import tpch_database

        db = tpch_database(scale=args.scale, seed=args.seed)
    if getattr(args, "mmap", False):
        import os
        import tempfile

        tmpdir = tempfile.TemporaryDirectory(prefix="repro-mmap-")
        # Keep the directory alive for the session; queries read the
        # mapped files lazily, so cleanup must wait for the db.
        db._mmap_tmpdir = tmpdir
        for name, table in list(db.tables.items()):
            if not table.is_mmap:
                db.persist(name, os.path.join(tmpdir.name, name))
    return db


def run_statement(db, text: str, level: float = 0.95) -> str:
    """Execute one shell statement and return the printable output."""
    stripped = text.strip()
    if not stripped:
        return ""
    if stripped.startswith("\\"):
        command, _, rest = stripped[1:].partition(" ")
        if command == "tables":
            from repro.versions.snapshots import split_versioned_name

            lines = []
            for name, table in sorted(db.tables.items()):
                text = (
                    f"{name}  ({table.n_rows} rows: "
                    + ", ".join(table.schema.names)
                    + ")"
                )
                base, version = split_versioned_name(name)
                if version is not None:
                    text += f"  [snapshot v{version} of {base}]"
                else:
                    versions = db.versions_of(name)
                    if versions:
                        text += "  [versions: " + ", ".join(
                            str(v) for v in versions
                        ) + "]"
                lines.append(text)
            return "\n".join(lines)
        if command == "explain":
            return db.explain(db.plan_sql(rest))
        if command == "exact":
            return render_result(db.sql_exact(rest), level)
        if command in ("quit", "q", "exit"):
            raise EOFError
        return f"unknown command \\{command}; try \\tables, \\explain, \\exact, \\quit"
    return render_result(db.sql(stripped), level)


def _add_serve_subcommand(subcommands) -> None:
    """Register ``repro serve`` — the catalog-backed query service.

    Reads one SQL statement per line from stdin, serves them in order
    over one sample-synopsis catalog (plus a result cache), and prints
    each answer tagged with how it was served (``fresh`` / ``exact`` /
    ``pushdown`` / ``thin`` / ``result-cache``).  ``--selftest`` runs
    a built-in workload instead and exits non-zero on any
    inconsistency.
    """
    serve = subcommands.add_parser(
        "serve",
        help="query service over a shared sample-synopsis "
        "catalog (reads SQL statements from stdin)",
        description="Approximate-query service: statements "
        "share a sample-synopsis catalog, so repeated and subsumed "
        "queries are served from stored samples instead of fresh scans.",
    )
    serve.add_argument(
        "--selftest", action="store_true",
        help="run the built-in workload and verify "
        "answers are repeat-identical",
    )
    serve.add_argument(
        "--tcp", action="store_true",
        help="serve the NDJSON protocol plus HTTP /query /metrics "
        "/healthz over TCP instead of reading stdin",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (--tcp)"
    )
    serve.add_argument(
        "--port", type=int, default=7799,
        help="NDJSON port, 0 for ephemeral (--tcp; default 7799)",
    )
    serve.add_argument(
        "--http-port", type=int, default=0,
        help="HTTP port, 0 for ephemeral (--tcp; default ephemeral)",
    )
    serve.add_argument(
        "--capacity", type=float, default=32.0,
        help="admission capacity in requests/second before queries "
        "are degraded to lower sampling rates (--tcp; default 32)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64,
        help="waiting requests before arrivals are rejected "
        "(--tcp; default 64)",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=30_000.0,
        help="default per-request deadline for progressive queries "
        "(--tcp; default 30000)",
    )
    serve.add_argument(
        "--scale", type=float, default=argparse.SUPPRESS,
        help="TPC-H scale factor",
    )
    serve.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="RNG seed"
    )
    serve.add_argument(
        "--level", type=float, default=argparse.SUPPRESS,
        help="confidence level for printed intervals",
    )


def _run_serve(args) -> int:
    from repro.service import QueryService, selftest, serve_statements

    if args.selftest:
        scale = min(args.scale, 0.05)  # the self-test stays small
        ok = selftest(scale=scale, seed=args.seed)
        return 0 if ok else 1
    try:
        db = _build_database(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    db.attach_catalog()
    service = QueryService(db, level=args.level)
    if args.tcp:
        return _run_serve_tcp(service, args)
    statements = [line.strip() for line in sys.stdin if line.strip()]
    if not statements:
        print("serve: no statements on stdin", file=sys.stderr)
        return 0
    served = serve_statements(service, statements)
    # Per-statement errors are printed in-stream; the exit code only
    # signals total failure.
    return 0 if served else 1


def _run_serve_tcp(service, args) -> int:
    import asyncio

    from repro.serve import ServeConfig, start_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        http_port=args.http_port,
        capacity=args.capacity,
        queue_limit=args.queue_limit,
        default_deadline_ms=args.deadline_ms,
    )

    async def run() -> None:
        server = await start_server(service, config)
        print(
            f"serving NDJSON on {config.host}:{server.tcp_port}, "
            f"HTTP on {config.host}:{server.http_port}",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.drain()
            print(f"-- {service.stats_line()}", flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _add_query_subcommand(subcommands) -> None:
    """Register ``repro query`` — the remote client of a ``serve --tcp``.

    Connects, runs one statement, prints progressive frames as they
    stream in (``--progressive``), and exits with the terminal answer.
    """
    query = subcommands.add_parser(
        "query",
        help="run one statement against a running `repro serve --tcp`",
        description="Remote query client: connects to a serving tier, "
        "streams progressive frames if asked, prints the final answer.",
    )
    query.add_argument("statement", help="SQL statement to run")
    query.add_argument(
        "--connect", default="127.0.0.1:7799", metavar="HOST:PORT",
        help="server address (default 127.0.0.1:7799)",
    )
    query.add_argument(
        "--progressive", action="store_true",
        help="stream one (estimate, ci) frame per rung as the "
        "escalation ladder runs",
    )
    query.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline (progressive)",
    )
    query.add_argument(
        "--budget", type=float, default=None, metavar="PERCENT",
        help="error budget when the statement has no WITHIN clause",
    )
    query.add_argument(
        "--confidence", type=float, default=None,
        help="confidence level of the budget (default 0.95)",
    )
    query.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="RNG seed"
    )


def _run_query(args) -> int:
    from repro.errors import ServeError
    from repro.serve.client import query_once

    host, _, port_text = args.connect.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        print(f"error: --connect needs HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2

    def on_frame(frame: dict) -> None:
        print(
            f"-- frame {frame['sequence']} [{frame['stage']}] "
            f"{frame['alias']} = {frame['estimate']:.6g} "
            f"[{frame['ci_lo']:.6g}, {frame['ci_hi']:.6g}] "
            f"rate {frame['rate']:.3g}, n={frame['n_sample']}",
            flush=True,
        )

    try:
        result = query_once(
            host,
            port,
            args.statement,
            seed=getattr(args, "seed", None),
            progressive=args.progressive,
            deadline_ms=args.deadline_ms,
            budget_percent=args.budget,
            confidence=args.confidence,
            on_frame=on_frame if args.progressive else None,
        )
    except (ServeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    status = result.get("status", "ok")
    if "text" in result:
        print(result["text"])
    elif "estimate" in result:
        print(
            f"{result.get('alias', 'value')} = {result['estimate']:.6g}   "
            f"[{result['ci_lo']:.6g}, {result['ci_hi']:.6g}]"
        )
    if status != "ok":
        print(f"-- {status} after {result.get('frames', 0)} frame(s)")
        return 1
    return 0


def _add_profile_subcommand(subcommands) -> None:
    """Register ``repro profile`` — one traced run plus the hot-path table.

    Executes the statement once under a tracer and prints the answer,
    the span tree, and the self-time table that names the engine's
    kernels (lineage-hash draw, join key factorization, group_reduce).
    """
    profile = subcommands.add_parser(
        "profile",
        help="run one statement traced and print the hot-path table",
        description="Trace one statement end to end and attribute wall "
        "time to the engine's kernels by span self-time.",
    )
    profile.add_argument("statement", help="SQL statement to profile")
    profile.add_argument(
        "--scale", type=float, default=argparse.SUPPRESS,
        help="TPC-H scale factor",
    )
    profile.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="RNG seed"
    )
    profile.add_argument(
        "--level", type=float, default=argparse.SUPPRESS,
        help="confidence level for printed intervals",
    )


def _run_profile(args) -> int:
    from repro.obs.report import profile_table, render_trace
    from repro.obs.trace import start_trace

    try:
        db = _build_database(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with start_trace("profile") as tracer:
            result = db.sql(args.statement)
        trace = tracer.finish_trace()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_result(result, args.level))
    print()
    print(render_trace(trace))
    print()
    print(profile_table(trace))
    return 0


def _add_fuzz_subcommand(subcommands) -> None:
    """Register ``repro fuzz`` — the differential fuzzer.

    Generates random queries over the built-in adversarial schema,
    checks each against the exact oracle, engine determinism, catalog
    reuse, and (on a subsample) sequential statistical acceptance, and
    shrinks every failure to a minimal statement + seed.  Exit status 1
    means surviving counterexamples; ``--json`` writes them (with
    ready-to-paste regression tests) for CI artifact upload.
    """
    fuzz = subcommands.add_parser(
        "fuzz",
        help="differential fuzzing: random queries vs exact oracle, "
        "determinism, reuse, and statistical acceptance",
        description="Fuzz the engine with random sampled queries and "
        "report shrunk counterexamples.",
    )
    fuzz.add_argument(
        "--seconds", type=float, default=60.0, metavar="N",
        help="time budget for the campaign (default 60)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS,
        help="campaign seed: the query stream is a pure function of it",
    )
    fuzz.add_argument(
        "--max-queries", type=int, default=None, metavar="N",
        help="stop after N queries even if time remains",
    )
    fuzz.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full report (shrunk statements, seeds, "
        "generated regression tests) as JSON",
    )


def _run_fuzz(args) -> int:
    from repro.fuzz import run_fuzz

    if args.seconds <= 0:
        print(f"error: --seconds {args.seconds} must be > 0", file=sys.stderr)
        return 2
    report = run_fuzz(
        seconds=args.seconds, seed=args.seed, max_queries=args.max_queries
    )
    print(report.summary())
    if args.json is not None:
        report.write_json(args.json)
        print(f"report written to {args.json}")
    return 0 if report.ok else 1


def _add_ingest_subcommand(subcommands) -> None:
    """Register ``repro ingest`` — streaming CSV → columnar conversion.

    Streams a CSV of any size into the on-disk columnar layout with
    O(block) memory (two passes: type inference, then conversion), and
    prints the resulting table's shape.  The output directory can then
    be served out-of-core via ``--attach name=dir``.
    """
    ingest = subcommands.add_parser(
        "ingest",
        help="stream a CSV into an out-of-core columnar table directory",
        description="Convert a CSV to the memory-mapped columnar layout "
        "with O(block) memory; attach the result with --attach.",
    )
    ingest.add_argument("csv", help="source CSV path")
    ingest.add_argument("dest", help="destination table directory")
    ingest.add_argument(
        "--name", default=None,
        help="table name stored in the footer (default: CSV stem)",
    )
    ingest.add_argument(
        "--block-rows", type=int, default=None, metavar="N",
        help="rows per streamed block (default 65536)",
    )


def _run_ingest(args) -> int:
    from repro.relational.io import INGEST_BLOCK_ROWS, ingest_csv

    block_rows = (
        args.block_rows if args.block_rows is not None else INGEST_BLOCK_ROWS
    )
    if block_rows < 1:
        print(f"error: --block-rows {block_rows} must be >= 1", file=sys.stderr)
        return 2
    try:
        table = ingest_csv(
            args.csv, args.dest, name=args.name, block_rows=block_rows
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"{table.name}: {table.n_rows} rows x "
        f"{len(table.schema.names)} columns -> {args.dest}"
    )
    return 0


def _add_stream_subcommand(parser: argparse.ArgumentParser) -> None:
    """Register ``repro stream`` — the streaming-engine demo.

    Simulates ``--windows`` micro-batches of a value stream, sheds each
    tuple with a lineage-keyed Bernoulli filter at a fixed ``--rate``
    (one GUS for the whole session), estimates each window from its own
    :class:`~repro.stream.StreamingEstimator`, and prints per-window,
    sliding, and cumulative SUM estimates with their error bounds next
    to the ground truth the simulator knows.  The cumulative column is
    one estimator that merges every window's estimator — the same exact
    merge that splits a stream across any number of parts.
    """
    subcommands = parser.add_subparsers(
        dest="subcommand", metavar="{stream,serve,query,profile,fuzz,ingest}"
    )
    _add_serve_subcommand(subcommands)
    _add_query_subcommand(subcommands)
    _add_profile_subcommand(subcommands)
    _add_fuzz_subcommand(subcommands)
    _add_ingest_subcommand(subcommands)
    stream = subcommands.add_parser(
        "stream",
        help="streaming engine demo: windowed and merged estimates "
        "over a load-shed stream",
        description="Streaming GUS estimation demo: windowed and merged "
        "SUM estimates over a load-shed synthetic stream.",
    )
    stream.add_argument(
        "--windows", type=int, default=8, help="number of micro-batches"
    )
    stream.add_argument(
        "--arrivals", type=int, default=5_000,
        help="mean tuples arriving per window",
    )
    stream.add_argument(
        "--rate", type=float, default=0.25,
        help="Bernoulli keep-rate of the shedder (default 0.25)",
    )
    stream.add_argument(
        "--sliding", type=int, default=3,
        help="sliding-window length in batches",
    )
    # --seed/--level also exist on the main parser; SUPPRESS keeps the
    # subparser from clobbering a value given before the subcommand
    # (``repro --seed 9 stream``) with its own default.
    stream.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="RNG seed"
    )
    stream.add_argument(
        "--level", type=float, default=argparse.SUPPRESS,
        help="confidence level for printed intervals",
    )


def _run_stream(args) -> int:
    import numpy as np

    from repro.core.gus import bernoulli_gus
    from repro.sampling.pseudorandom import LineageHashBernoulli
    from repro.stream import SlidingWindow, StreamingEstimator

    if not 0.0 < args.rate <= 1.0:
        print(f"error: --rate {args.rate} not in (0, 1]", file=sys.stderr)
        return 2
    if not 0.0 < args.level < 1.0:
        print(f"error: --level {args.level} not in (0, 1)", file=sys.stderr)
        return 2
    if args.windows < 1 or args.arrivals < 1:
        print("error: --windows and --arrivals must be >= 1", file=sys.stderr)
        return 2

    rng = np.random.default_rng(args.seed)
    try:
        gus = bernoulli_gus("stream", args.rate)
        shedder = LineageHashBernoulli(args.rate, args.seed)
        cumulative = StreamingEstimator(gus)
        sliding = SlidingWindow(gus, args.sliding)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    next_id = 0
    true_total = 0.0
    print(
        f"shedding at rate {args.rate:g}, "
        f"sliding window of {args.sliding}"
    )
    print(
        f"{'window':>7}{'arrivals':>10}{'kept':>8}{'true sum':>12}"
        f"{'window est':>12}{'±':>9}{'sliding est':>13}{'cumulative':>13}"
    )
    for window in range(args.windows):
        n = max(1, int(args.arrivals * (0.5 + rng.random())))
        values = rng.gamma(2.0, 5.0, n)
        ids = np.arange(next_id, next_id + n, dtype=np.int64)
        next_id += n
        true_total += float(values.sum())
        keep = shedder.keep(ids)
        kept, kept_ids = values[keep], ids[keep]
        batch = StreamingEstimator(gus).update(kept, {"stream": kept_ids})
        cumulative.merge(batch)
        sliding.append(batch)
        est = batch.estimate()
        print(
            f"{window:>7}{n:>10}{kept.size:>8}{values.sum():>12,.0f}"
            f"{est.value:>12,.0f}{est.ci(args.level).width / 2:>9,.0f}"
            f"{sliding.estimate().value:>13,.0f}"
            f"{cumulative.estimate().value:>13,.0f}"
        )
    final = cumulative.estimate()
    ci = final.ci(args.level)
    print(
        f"\nsession: true {true_total:,.0f}, estimated {final.value:,.0f} "
        f"[{ci.lo:,.0f}, {ci.hi:,.0f}] @{args.level:.0%} "
        f"(hit: {ci.contains(true_total)})"
    )
    print(f"rows kept: {final.n_sample} of {next_id} arrivals")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Approximate aggregate queries with GUS-based "
        "confidence intervals (VLDB 2013 reproduction).",
    )
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="TPC-H scale factor (default 0.1)",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--load", action="append", default=[],
        metavar="NAME=PATH.csv",
        help="load a CSV instead of generating TPC-H (repeatable)",
    )
    parser.add_argument(
        "--attach", action="append", default=[],
        metavar="NAME=DIR",
        help="attach a persisted columnar table directory, memory-"
        "mapped rather than loaded (repeatable; see `repro ingest`)",
    )
    parser.add_argument(
        "--mmap", action="store_true",
        help="persist generated/loaded tables to a temporary columnar "
        "store and run queries out-of-core over the mapped files",
    )
    parser.add_argument(
        "-c", "--command", default=None,
        help="run one statement and exit",
    )
    parser.add_argument(
        "--level", type=float, default=0.95,
        help="confidence level for printed intervals",
    )
    _add_stream_subcommand(parser)
    args = parser.parse_args(argv)

    if args.subcommand == "stream":
        return _run_stream(args)
    if args.subcommand == "serve":
        return _run_serve(args)
    if args.subcommand == "query":
        return _run_query(args)
    if args.subcommand == "profile":
        return _run_profile(args)
    if args.subcommand == "fuzz":
        return _run_fuzz(args)
    if args.subcommand == "ingest":
        return _run_ingest(args)

    try:
        db = _build_database(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command is not None:
        try:
            print(run_statement(db, args.command, args.level))
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0

    print(f"repro shell — {db!r}")
    print("SQL or \\tables \\explain \\exact \\quit")
    while True:
        try:
            line = input("repro> ")
        except EOFError:
            print()
            return 0
        try:
            output = run_statement(db, line, args.level)
        except EOFError:
            return 0
        except ReproError as exc:
            output = f"error: {exc}"
        if output:
            print(output)


if __name__ == "__main__":  # pragma: no cover - module CLI entry
    sys.exit(main())

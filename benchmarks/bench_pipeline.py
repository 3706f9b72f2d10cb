"""Eval-F: the partitioned chunked execution core.

Three contractual claims, recorded machine-readably in
``BENCH_pipeline.json`` (run ``python benchmarks/bench_pipeline.py
--json`` to regenerate):

* **throughput** — on a ≥ 1M-row join + lineage-sample aggregate over
  the full-width TPC-H schema, the chunked partition-merge estimator is
  ≥ 2.5× faster end to end than the materialize-everything path — the
  reference interpreter's join output with every column read, then
  lineage-sampled, then one fold
  (the joined relation is probed chunk-by-chunk, the lineage
  filter runs on index pairs before any gather, and each partition
  folds straight into mergeable moment sketches);
* **memory** — the chunked path's peak allocation stays bounded by the
  build side + one chunk + the compact moment state: at least 3× below
  the serial path, which materializes the full join output;
* **exactness** — estimates and CI bounds are bit-for-bit identical
  across worker counts, and the Q1 grouped suite at 4 workers matches
  the inline one-chunk run exactly.

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the data ~30× and relaxes
the performance floors so CI exercises every code path cheaply.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
import tracemalloc

import numpy as np
import pytest

from repro.data.tpch import generate_tpch
from repro.obs.metrics import (
    phase_seconds_delta,
    phase_seconds_snapshot,
    update_peak_rss_gauge,
)
from repro.relational.database import Database
from repro.relational.executor import Executor
from repro.relational.expressions import col, lit
from repro.relational.plan import (
    Aggregate,
    AggSpec,
    Join,
    LineageSample,
    Scan,
)
from repro.relational.table import Table
from repro.sampling.composed import BiDimensionalBernoulli

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SCALE = 0.5 if SMOKE else 17.0
WORKERS = 4
TIMING_REPEATS = 2 if SMOKE else 4
MIN_SPEEDUP = 1.0 if SMOKE else 2.5
MIN_MEMORY_RATIO = 1.0 if SMOKE else 3.0
JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"

Q1 = """
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice) AS sum_base_price,
       SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       AVG(l_quantity) AS avg_qty,
       AVG(l_extendedprice) AS avg_price,
       COUNT(*) AS count_order
FROM lineitem TABLESAMPLE (10 PERCENT)
WHERE l_shipdate <= 2400
GROUP BY l_returnflag, l_linestatus
"""


def _widen_to_full_tpch(tables: dict[str, Table]) -> dict[str, Table]:
    """Pad lineitem/orders out to TPC-H's real column counts.

    The repo's generator keeps only the analytically interesting
    columns; real fact tables carry the full 16/9-column payload, and
    hauling that payload through a materializing join is exactly the
    cost the chunked pipeline's column pruning avoids — so the
    benchmark restores the true shape.
    """
    rng = np.random.default_rng(20_240_717)
    li = tables["lineitem"]
    n = li.n_rows
    modes = np.array(
        ["AIR", "MAIL", "SHIP", "TRUCK", "RAIL", "FOB", "REG AIR"],
        dtype=object,
    )
    instructions = np.array(
        ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"],
        dtype=object,
    )
    words = np.array(
        ["carefully", "quickly", "furiously", "slyly", "blithely", "fluffily"],
        dtype=object,
    )

    def phrase(k: int) -> np.ndarray:
        a = words[rng.integers(0, len(words), k)].astype(str)
        b = words[rng.integers(0, len(words), k)].astype(str)
        return np.char.add(np.char.add(a, " "), b).astype(object)

    lineitem = Table(
        "lineitem",
        {
            **li.columns,
            "l_commitdate": rng.integers(0, 2_500, n),
            "l_receiptdate": rng.integers(0, 2_600, n),
            "l_shipinstruct": instructions[
                rng.integers(0, len(instructions), n)
            ],
            "l_shipmode": modes[rng.integers(0, len(modes), n)],
            "l_comment": phrase(n),
        },
    )
    orders = tables["orders"]
    m = orders.n_rows
    priorities = np.array(
        ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"],
        dtype=object,
    )
    orders = Table(
        "orders",
        {
            **orders.columns,
            "o_orderpriority": priorities[
                rng.integers(0, len(priorities), m)
            ],
            "o_clerk": np.char.add(
                "Clerk#", rng.integers(0, 1_000, m).astype(str)
            ).astype(object),
            "o_shippriority": np.zeros(m, dtype=np.int64),
            "o_comment": phrase(m),
        },
    )
    widened = dict(tables)
    widened["lineitem"] = lineitem
    widened["orders"] = orders
    return widened


def build_database(scale: float = SCALE) -> Database:
    return Database.from_tables(
        _widen_to_full_tpch(generate_tpch(scale=scale, seed=1)), seed=0
    )


def join_sample_plan() -> Aggregate:
    """≥ 1M joined rows, lineage-sampled at 5% of orders, 3 aggregates."""
    return Aggregate(
        LineageSample(
            Join(
                Scan("orders"), Scan("lineitem"),
                ["o_orderkey"], ["l_orderkey"],
            ),
            BiDimensionalBernoulli({"orders": 0.05}, seed=77),
        ),
        [
            AggSpec(
                "sum",
                col("l_extendedprice") * (lit(1.0) - col("l_discount")),
                "revenue",
            ),
            AggSpec("count", None, "n"),
            AggSpec("avg", col("l_quantity"), "avg_qty"),
        ],
    )


def _best_of(fn, repeats: int = TIMING_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_pipeline_benchmark(db: Database | None = None) -> dict:
    """Measure serial vs chunked on the 1M-row join-sample aggregate."""
    if db is None:
        db = build_database()
    plan = join_sample_plan()
    sbox = db.sbox()
    input_rows = db.table("lineitem").n_rows + db.table("orders").n_rows

    def serial():
        # The materialize-everything baseline is reachable through no
        # engine: SBox.run is the pipeline at every worker count, and a
        # table gathers a column only when it is read, so neither
        # builds a join output full width.  It is spelled out: the
        # reference interpreter joins, every column of the whole join
        # output is read, the lineage sample filters it, one fold
        # estimates.
        sampled = plan.child
        joined = Executor(db.tables, np.random.default_rng(0)).execute(
            sampled.child
        )
        dict(joined.columns)
        sample = joined.filter(sampled.sampler.keep(joined.lineage))
        return sbox.estimate_from_sample(plan, sample)

    def chunked(workers: int = WORKERS):
        return sbox.run(
            plan,
            rng=np.random.default_rng(0),
            workers=workers,
            keep_sample=False,
        )

    results = {w: chunked(w) for w in (1, 2, WORKERS)}
    serial_result = serial()
    worker_invariant = all(
        results[w].values == results[WORKERS].values
        and all(
            results[w].estimates[a].variance_raw
            == results[WORKERS].estimates[a].variance_raw
            for a in results[w].values
        )
        for w in results
    )
    values_close = all(
        results[WORKERS].values[a]
        == pytest.approx(serial_result.values[a], rel=1e-9)
        for a in serial_result.values
    )
    serial_seconds = _best_of(serial)
    phases_before = phase_seconds_snapshot()
    chunked_seconds = _best_of(lambda: chunked(WORKERS))
    phase_seconds = phase_seconds_delta(
        phases_before, phase_seconds_snapshot()
    )
    serial_peak = _traced_peak(serial)
    chunked_peak = _traced_peak(lambda: chunked(WORKERS))
    return {
        "benchmark": "join_sample_aggregate",
        "smoke": SMOKE,
        "scale": SCALE,
        "input_rows": int(input_rows),
        "joined_rows": int(db.table("lineitem").n_rows),
        "sample_rows": int(results[WORKERS].estimates["n"].n_sample),
        "workers": WORKERS,
        "serial_seconds": serial_seconds,
        "chunked_seconds": chunked_seconds,
        "speedup_vs_serial": serial_seconds / chunked_seconds,
        "rows_per_sec": input_rows / chunked_seconds,
        "serial_peak_rss_mb": serial_peak / 1e6,
        "chunked_peak_rss_mb": chunked_peak / 1e6,
        "memory_ratio": serial_peak / max(chunked_peak, 1),
        "worker_invariant": bool(worker_invariant),
        "values_match_serial": bool(values_close),
        # Per-phase attribution of the timed chunked runs (draw =
        # chunked scan/sample/join work, merge = driver-side sketch
        # folds, estimate = moment -> estimate reduction), from the
        # always-on metrics registry.
        "phase_seconds": phase_seconds,
        "peak_rss_bytes": update_peak_rss_gauge(),
    }


def run_q1_identity_check(db: Database | None = None) -> dict:
    """Q1 grouped suite: chunked @4 workers == inline one chunk, exactly."""
    if db is None:
        db = build_database()
    legacy = db.sql(Q1, seed=11, workers=0)
    chunked = db.sql(Q1, seed=11, workers=WORKERS)
    identical = True
    for key in legacy.keys:
        identical &= bool((chunked.keys[key] == legacy.keys[key]).all())
    for alias in legacy.values:
        identical &= bool(
            np.array_equal(chunked.values[alias], legacy.values[alias])
        )
        identical &= bool(
            np.array_equal(
                chunked.estimates[alias].variance_raw,
                legacy.estimates[alias].variance_raw,
            )
        )
        for level in (0.9, 0.95, 0.99):
            for got, want in zip(
                chunked.estimates[alias].ci_bounds(level),
                legacy.estimates[alias].ci_bounds(level),
            ):
                identical &= bool(np.array_equal(got, want, equal_nan=True))
    return {
        "benchmark": "q1_grouped_bit_identity",
        "workers": WORKERS,
        "n_groups": int(legacy.n_groups),
        "bit_identical": bool(identical),
    }


@pytest.fixture(scope="module")
def pipeline_db():
    return build_database()


class TestPipelineThroughput:
    def test_speedup_and_memory(self, pipeline_db, repro_report):
        metrics = run_pipeline_benchmark(pipeline_db)
        repro_report.add(
            "pipeline (Eval-F)",
            "chunked speedup vs serial (1M-row join aggregate)",
            ">= 2.5x",
            f"{metrics['speedup_vs_serial']:.2f}x",
            "smoke" if SMOKE else (
                "match" if metrics["speedup_vs_serial"] >= MIN_SPEEDUP
                else "MISS"
            ),
        )
        repro_report.add(
            "pipeline (Eval-F)",
            "peak memory vs serial (joined sample never built)",
            ">= 3x smaller",
            f"{metrics['memory_ratio']:.1f}x",
            "smoke" if SMOKE else (
                "match" if metrics["memory_ratio"] >= MIN_MEMORY_RATIO
                else "MISS"
            ),
        )
        assert metrics["worker_invariant"], (
            "estimates changed with the worker count"
        )
        assert metrics["values_match_serial"]
        assert metrics["speedup_vs_serial"] >= MIN_SPEEDUP, metrics
        assert metrics["memory_ratio"] >= MIN_MEMORY_RATIO, metrics
        if not SMOKE:
            assert metrics["joined_rows"] >= 1_000_000

    def test_q1_grouped_bit_identity(self, pipeline_db, repro_report):
        metrics = run_q1_identity_check(pipeline_db)
        repro_report.add(
            "pipeline (Eval-F)",
            "Q1 grouped: chunked@4 == serial (values/variances/CIs)",
            "bit-identical",
            "bit-identical" if metrics["bit_identical"] else "DIFFERS",
        )
        assert metrics["bit_identical"]


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Chunked-pipeline benchmark; asserts the Eval-F "
        "claims and optionally records them machine-readably."
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const=str(JSON_PATH),
        default=None,
        metavar="PATH",
        help=f"write results as JSON (default path: {JSON_PATH})",
    )
    args = parser.parse_args(argv)
    db = build_database()
    metrics = run_pipeline_benchmark(db)
    identity = run_q1_identity_check(db)
    payload = {
        "suite": "bench_pipeline",
        "schema_version": 2,
        "workloads": [metrics, identity],
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.json:
        pathlib.Path(args.json).write_text(text + "\n")
        print(f"\nwrote {args.json}")
    ok = (
        metrics["worker_invariant"]
        and metrics["values_match_serial"]
        and metrics["speedup_vs_serial"] >= MIN_SPEEDUP
        and metrics["memory_ratio"] >= MIN_MEMORY_RATIO
        and identity["bit_identical"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    import sys

    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
    )
    raise SystemExit(main())

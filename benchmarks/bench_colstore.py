"""Out-of-core columnar store: memory scaling and the hot hash kernel.

Four contractual claims, recorded machine-readably in
``BENCH_colstore.json`` (run ``python benchmarks/bench_colstore.py
--json`` to regenerate; needs ``PYTHONPATH=src`` like every suite):

* **memory** — a 100M-row TPC-H-shaped join-sample aggregate over
  memory-mapped tables peaks at ≥ 5× less anonymous RSS than the same
  query over in-RAM copies of the same data;
* **scale** — the on-disk dataset is ≥ 5× larger than the mmap run's
  peak anonymous RSS, i.e. the engine genuinely runs out of core
  rather than faulting the whole table into private memory;
* **exactness** — estimates and raw variances are bit-for-bit
  identical between the two storage backends (compared as
  ``float.hex()`` strings across process boundaries);
* **kernel** — the branch-free SplitMix64 lineage-hash draw is ≥ 3×
  faster than the per-row blake2b reference it replaced.

Measurement notes.  Each storage backend runs in its **own child
process** so the backends cannot share page cache warmth, allocator
state, or interpreter baseline; the child prints its answers and
memory counters as one JSON line.  The guarded counter is peak
*anonymous* RSS (``RssAnon`` in ``/proc/self/status``, sampled by a
poller thread): with RAM far larger than the dataset the kernel never
evicts page cache, so ``VmHWM`` would charge the mmap run for
file-backed pages the OS is free to drop under pressure.  ``VmHWM``
is still recorded for transparency.  On platforms without
``/proc/self/status`` the poller falls back to total-RSS peaks, which
only makes the ratio conservative.

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the dataset ~30× and
relaxes the floors so CI exercises every code path cheaply.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from repro.colstore import ColumnarWriter
from repro.core.kernels import hash01, hash01_blake2b
from repro.obs.metrics import (
    phase_seconds_delta,
    phase_seconds_snapshot,
    read_peak_rss_bytes,
    update_peak_rss_gauge,
)
from repro.relational.database import Database
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
N_LINEITEM = 3_000_000 if SMOKE else 100_000_000
N_ORDERS = N_LINEITEM // 10
GEN_BLOCK_ROWS = 500_000 if SMOKE else 2_000_000
CHUNK_SIZE = 1 << 16 if SMOKE else 1 << 20
SAMPLE_RATE = 0.05
HASH_ROWS = 200_000 if SMOKE else 2_000_000
TIMING_REPEATS = 2 if SMOKE else 3
MIN_MEMORY_RATIO = 1.2 if SMOKE else 5.0
MIN_DATASET_RATIO = 0.5 if SMOKE else 5.0
MIN_HASH_SPEEDUP = 1.5 if SMOKE else 3.0
JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_colstore.json"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

LINEITEM_COLUMNS = ["l_orderkey", "l_quantity", "l_extendedprice", "l_discount"]
ORDERS_COLUMNS = ["o_orderkey", "o_totalprice"]


def generate_dataset(root: pathlib.Path) -> int:
    """Write the lineitem/orders columnar dirs block-wise; return bytes.

    Generation streams one block at a time through the columnar writer,
    so building a dataset several times larger than any sensible RSS
    budget never holds more than ``GEN_BLOCK_ROWS`` rows in memory.
    """
    rng = np.random.default_rng(20_260_807)
    with ColumnarWriter(root / "lineitem", "lineitem", LINEITEM_COLUMNS) as w:
        remaining = N_LINEITEM
        while remaining:
            n = min(GEN_BLOCK_ROWS, remaining)
            w.append(
                {
                    "l_orderkey": rng.integers(0, N_ORDERS, n),
                    "l_quantity": rng.integers(1, 51, n).astype(np.float64),
                    "l_extendedprice": rng.uniform(900.0, 105_000.0, n),
                    "l_discount": rng.integers(0, 11, n) / 100.0,
                }
            )
            remaining -= n
    with ColumnarWriter(root / "orders", "orders", ORDERS_COLUMNS) as w:
        start = 0
        while start < N_ORDERS:
            n = min(GEN_BLOCK_ROWS, N_ORDERS - start)
            w.append(
                {
                    "o_orderkey": np.arange(start, start + n, dtype=np.int64),
                    "o_totalprice": rng.uniform(1_000.0, 500_000.0, n),
                }
            )
            start += n
    files = [f for d in ("lineitem", "orders") for f in (root / d).iterdir()]
    return sum(f.stat().st_size for f in files)


def join_sample_plan() -> Aggregate:
    """The headline query: join, lineage-sample 5% of orders, 3 aggregates."""
    return Aggregate(
        LineageSample(
            Join(Scan("orders"), Scan("lineitem"), ["o_orderkey"], ["l_orderkey"]),
            BiDimensionalBernoulli({"orders": SAMPLE_RATE}, seed=77),
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


# -- child-process measurement ---------------------------------------------


def _rss_anon_bytes() -> float:
    """Current anonymous RSS; falls back to peak total RSS off Linux."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("RssAnon:"):
                    return float(line.split()[1]) * 1024.0
    except OSError:  # pragma: no cover - non-Linux fallback
        pass
    return read_peak_rss_bytes()  # pragma: no cover - non-Linux fallback


class _PeakAnonPoller(threading.Thread):
    """Samples anonymous RSS on a short interval, keeping the maximum."""

    def __init__(self, interval: float = 0.005) -> None:
        super().__init__(daemon=True)
        self._done = threading.Event()
        self._interval = interval
        self.peak = 0.0

    def run(self) -> None:
        while not self._done.is_set():
            self.peak = max(self.peak, _rss_anon_bytes())
            self._done.wait(self._interval)

    def stop(self) -> float:
        self._done.set()
        self.join(timeout=2.0)
        self.peak = max(self.peak, _rss_anon_bytes())
        return self.peak


def _hex(value) -> str:
    return float(np.asarray(value).ravel()[0]).hex()


def _child_main(mode: str, data_dir: str, chunk_size: int) -> int:
    """Run the headline query over one storage backend; print one JSON line.

    ``mmap`` attaches the columnar dirs zero-copy; ``inram`` attaches
    and then deep-copies every column into private arrays — the same
    bytes, resident instead of mapped.
    """
    poller = _PeakAnonPoller()
    poller.start()
    db = Database(seed=0, chunk_size=chunk_size)
    db.attach("lineitem", os.path.join(data_dir, "lineitem"))
    db.attach("orders", os.path.join(data_dir, "orders"))
    if mode == "inram":
        for name in ("lineitem", "orders"):
            table = db.table(name)
            db.update_table(
                name,
                Table(
                    name,
                    {c: np.array(v) for c, v in table.columns.items()},
                ),
            )
    sbox = db.sbox()
    phases_before = phase_seconds_snapshot()
    start = time.perf_counter()
    result = sbox.run(
        join_sample_plan(),
        rng=np.random.default_rng(0),
        workers=1,
        keep_sample=False,
    )
    seconds = time.perf_counter() - start
    payload = {
        "mode": mode,
        "values": {a: _hex(v) for a, v in result.values.items()},
        "variances": {a: _hex(result.estimates[a].variance_raw) for a in result.values},
        "n_sample": int(result.estimates["n"].n_sample),
        "seconds": seconds,
        "phase_seconds": phase_seconds_delta(phases_before, phase_seconds_snapshot()),
        "peak_anon_bytes": poller.stop(),
        "vm_hwm_bytes": update_peak_rss_gauge(),
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _run_child(mode: str, data_dir: pathlib.Path, chunk_size: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            str(pathlib.Path(__file__).resolve()),
            "--child",
            mode,
            "--data",
            str(data_dir),
            "--chunk-size",
            str(chunk_size),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_out_of_core_benchmark(data_root: pathlib.Path | None = None) -> dict:
    """Generate the dataset, measure both backends, compare the bits."""
    owns_root = data_root is None
    if owns_root:
        data_root = pathlib.Path(
            tempfile.mkdtemp(
                prefix="repro-colstore-bench-",
                dir=os.environ.get("REPRO_BENCH_TMPDIR"),
            )
        )
    try:
        gen_start = time.perf_counter()
        dataset_bytes = generate_dataset(data_root)
        generate_seconds = time.perf_counter() - gen_start
        mmap_stats = _run_child("mmap", data_root, CHUNK_SIZE)
        inram_stats = _run_child("inram", data_root, CHUNK_SIZE)
    finally:
        if owns_root:
            shutil.rmtree(data_root, ignore_errors=True)
    mmap_anon = max(mmap_stats["peak_anon_bytes"], 1.0)
    bit_identical = (
        mmap_stats["values"] == inram_stats["values"]
        and mmap_stats["variances"] == inram_stats["variances"]
        and mmap_stats["n_sample"] == inram_stats["n_sample"]
    )
    return {
        "benchmark": "out_of_core_join_sample",
        "smoke": SMOKE,
        "lineitem_rows": N_LINEITEM,
        "orders_rows": N_ORDERS,
        "sample_rows": int(mmap_stats["n_sample"]),
        "chunk_size": CHUNK_SIZE,
        "dataset_bytes": int(dataset_bytes),
        "generate_seconds": generate_seconds,
        "mmap_seconds": mmap_stats["seconds"],
        "inram_seconds": inram_stats["seconds"],
        "mmap_peak_anon_mb": mmap_stats["peak_anon_bytes"] / 1e6,
        "inram_peak_anon_mb": inram_stats["peak_anon_bytes"] / 1e6,
        "mmap_vm_hwm_mb": mmap_stats["vm_hwm_bytes"] / 1e6,
        "inram_vm_hwm_mb": inram_stats["vm_hwm_bytes"] / 1e6,
        "memory_ratio": inram_stats["peak_anon_bytes"] / mmap_anon,
        "dataset_over_mmap_rss": dataset_bytes / mmap_anon,
        "bit_identical": bool(bit_identical),
        # Per-phase attribution of the mmap run, from the child's
        # always-on metrics registry.
        "phase_seconds": mmap_stats["phase_seconds"],
        "peak_rss_bytes": update_peak_rss_gauge(),
    }


# -- lineage-hash kernel ----------------------------------------------------


def _best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def run_hash_kernel_benchmark() -> dict:
    """SplitMix64 vs per-row blake2b on the same id stream."""
    ids = np.arange(HASH_ROWS, dtype=np.uint64)
    splitmix_seconds = _best_of(lambda: hash01(123, ids), TIMING_REPEATS)
    # One repeat for the reference: it is the slow side by construction.
    blake2b_seconds = _best_of(lambda: hash01_blake2b(123, ids), 1)
    first = hash01(123, ids)
    second = hash01(123, ids)
    deterministic = (
        first.tobytes() == second.tobytes()
        and float(first.min()) >= 0.0
        and float(first.max()) < 1.0
    )
    return {
        "benchmark": "lineage_hash_kernel",
        "smoke": SMOKE,
        "hash_rows": HASH_ROWS,
        "splitmix_seconds": splitmix_seconds,
        "blake2b_seconds": blake2b_seconds,
        "splitmix_mrows_per_sec": HASH_ROWS / splitmix_seconds / 1e6,
        "lineage_hash_speedup": blake2b_seconds / splitmix_seconds,
        "deterministic": bool(deterministic),
    }


def _verdict(ok: bool) -> str:
    return "smoke" if SMOKE else ("match" if ok else "MISS")


class TestOutOfCore:
    def test_memory_scaling_and_bit_identity(self, repro_report):
        metrics = run_out_of_core_benchmark()
        repro_report.add(
            "colstore (out-of-core)",
            "mmap peak anon RSS vs in-RAM (join-sample aggregate)",
            ">= 5x smaller",
            f"{metrics['memory_ratio']:.1f}x",
            _verdict(metrics["memory_ratio"] >= MIN_MEMORY_RATIO),
        )
        repro_report.add(
            "colstore (out-of-core)",
            "dataset size vs mmap peak anon RSS",
            ">= 5x",
            f"{metrics['dataset_over_mmap_rss']:.1f}x",
            _verdict(metrics["dataset_over_mmap_rss"] >= MIN_DATASET_RATIO),
        )
        assert metrics["bit_identical"], "mmap and in-RAM backends disagree on the bits"
        assert metrics["memory_ratio"] >= MIN_MEMORY_RATIO, metrics
        assert metrics["dataset_over_mmap_rss"] >= MIN_DATASET_RATIO, metrics
        if not SMOKE:
            assert metrics["lineitem_rows"] >= 100_000_000


class TestLineageHashKernel:
    def test_splitmix_speedup(self, repro_report):
        metrics = run_hash_kernel_benchmark()
        repro_report.add(
            "colstore (hash kernel)",
            "SplitMix64 lineage hash vs per-row blake2b",
            ">= 3x faster",
            f"{metrics['lineage_hash_speedup']:.0f}x",
            _verdict(metrics["lineage_hash_speedup"] >= MIN_HASH_SPEEDUP),
        )
        assert metrics["deterministic"]
        assert metrics["lineage_hash_speedup"] >= MIN_HASH_SPEEDUP, metrics


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Out-of-core colstore benchmark; asserts the memory, "
        "scale, exactness, and kernel claims, optionally recording them "
        "machine-readably."
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const=str(JSON_PATH),
        default=None,
        metavar="PATH",
        help=f"write results as JSON (default path: {JSON_PATH})",
    )
    parser.add_argument("--child", choices=["mmap", "inram"], help=argparse.SUPPRESS)
    parser.add_argument("--data", help=argparse.SUPPRESS)
    parser.add_argument("--chunk-size", type=int, default=CHUNK_SIZE, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child_main(args.child, args.data, args.chunk_size)
    oocore = run_out_of_core_benchmark()
    kernel = run_hash_kernel_benchmark()
    payload = {
        "suite": "bench_colstore",
        "schema_version": 2,
        "workloads": [oocore, kernel],
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.json:
        pathlib.Path(args.json).write_text(text + "\n")
        print(f"\nwrote {args.json}")
    ok = (
        oocore["bit_identical"]
        and oocore["memory_ratio"] >= MIN_MEMORY_RATIO
        and oocore["dataset_over_mmap_rss"] >= MIN_DATASET_RATIO
        and kernel["deterministic"]
        and kernel["lineage_hash_speedup"] >= MIN_HASH_SPEEDUP
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.path.insert(0, str(SRC_DIR))
    raise SystemExit(main())

"""Streaming engine benchmarks: throughput and the incremental win.

Three claims to pin down:

* sketch ``update`` sustains high row throughput (it is one lexsort
  pass over state + batch);
* sketch ``merge`` costs by *group count*, not rows ingested;
* answering an estimate after every window incrementally beats
  re-running the batch estimator over all rows seen so far — the batch
  path is quadratic in the window count, the sketch path is not (its
  state is bounded by the number of distinct lineage keys).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.estimator import estimate_sum
from repro.core.gus import bernoulli_gus
from repro.stream import MomentSketchBundle, StreamingEstimator

#: Distinct lineage keys in the simulated entity stream.  Bounded on
#: purpose: per-entity aggregation is the compacting regime where the
#: sketch's state stops growing with the stream.
N_ENTITIES = 20_000


def _entity_batch(rng, n_rows):
    f = rng.uniform(0, 10, n_rows)
    lineage = {"stream": rng.integers(0, N_ENTITIES, n_rows)}
    return f, lineage


class TestUpdateThroughput:
    def test_update_batch(self, benchmark):
        """One 50k-row batch into a warm sketch with full state."""
        rng = np.random.default_rng(0)
        gus = bernoulli_gus("stream", 0.5)
        warm = StreamingEstimator(gus)
        warm.update(*_entity_batch(rng, 200_000))
        f, lineage = _entity_batch(rng, 50_000)

        def run():
            warm.sketch.copy().update([f], lineage)

        benchmark(run)

    def test_estimate_emission(self, benchmark):
        """Emitting an estimate from a warm sketch never rescans rows."""
        rng = np.random.default_rng(1)
        warm = StreamingEstimator(bernoulli_gus("stream", 0.5))
        warm.update(*_entity_batch(rng, 500_000))
        benchmark(warm.estimate)


class TestMergeThroughput:
    def test_merge_pair(self, benchmark):
        """Merging two full sketches costs by group count, not rows."""
        rng = np.random.default_rng(2)
        lattice = StreamingEstimator(
            bernoulli_gus("stream", 0.5)
        )._pruned.lattice
        a = MomentSketchBundle(lattice, 1)
        b = MomentSketchBundle(lattice, 1)
        for sketch in (a, b):
            f, lineage = _entity_batch(rng, 300_000)
            sketch.update([f], lineage)

        def run():
            a.copy().merge(b)

        benchmark(run)


class TestIncrementalVsBatch:
    """The acceptance scenario: W windowed estimates over a growing
    stream.  Batch recomputation rescans everything each window
    (Θ(W²) row work); the sketch only folds the new batch in."""

    WINDOWS = 30
    BATCH = 4_000

    def _batches(self):
        rng = np.random.default_rng(3)
        return [_entity_batch(rng, self.BATCH) for _ in range(self.WINDOWS)]

    def test_incremental_beats_batch_recompute(self, repro_report):
        gus = bernoulli_gus("stream", 0.5)
        batches = self._batches()

        t0 = time.perf_counter()
        streaming = StreamingEstimator(gus)
        incremental = []
        for f, lineage in batches:
            streaming.update(f, lineage)
            incremental.append(streaming.estimate())
        t_incremental = time.perf_counter() - t0

        t0 = time.perf_counter()
        recomputed = []
        seen_f: list[np.ndarray] = []
        seen_ids: list[np.ndarray] = []
        for f, lineage in batches:
            seen_f.append(f)
            seen_ids.append(lineage["stream"])
            recomputed.append(
                estimate_sum(
                    gus,
                    np.concatenate(seen_f),
                    {"stream": np.concatenate(seen_ids)},
                )
            )
        t_batch = time.perf_counter() - t0

        # Same answers, per window, to float merge tolerance.
        for inc, ref in zip(incremental, recomputed):
            np.testing.assert_allclose(inc.value, ref.value, rtol=1e-9)
            np.testing.assert_allclose(
                inc.variance_raw, ref.variance_raw, rtol=1e-9
            )

        repro_report.add(
            "streaming",
            f"incremental vs batch, {self.WINDOWS} windows x {self.BATCH} rows",
            "incremental wins, gap grows with W",
            f"{t_batch / t_incremental:.1f}x faster",
        )
        assert t_incremental < t_batch

    def test_win_grows_with_window_count(self, repro_report):
        """Double the windows: the batch/incremental ratio must rise —
        the asymptotic part of the acceptance criterion."""
        gus = bernoulli_gus("stream", 0.5)
        rng = np.random.default_rng(4)

        def ratio(n_windows):
            batches = [
                _entity_batch(rng, self.BATCH) for _ in range(n_windows)
            ]
            t0 = time.perf_counter()
            streaming = StreamingEstimator(gus)
            for f, lineage in batches:
                streaming.update(f, lineage)
                streaming.estimate()
            t_inc = time.perf_counter() - t0
            t0 = time.perf_counter()
            fs: list[np.ndarray] = []
            ids: list[np.ndarray] = []
            for f, lineage in batches:
                fs.append(f)
                ids.append(lineage["stream"])
                estimate_sum(
                    gus, np.concatenate(fs), {"stream": np.concatenate(ids)}
                )
            return (time.perf_counter() - t0) / t_inc

        short, long = ratio(10), ratio(40)
        repro_report.add(
            "streaming",
            "batch/incremental time ratio, 10 -> 40 windows",
            "grows with W",
            f"{short:.1f}x -> {long:.1f}x",
        )
        assert long > short

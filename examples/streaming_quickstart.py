"""Five-minute tour of the streaming GUS estimation engine.

The batch estimator needs the whole sample in hand; the streaming
engine (``repro.stream``) computes the *same* Theorem 1 answer from
mergeable moment sketches, so you can

1. feed a sample in micro-batches and ask for an estimate at any time,
2. split a stream across k estimators and merge them exactly, and
3. answer tumbling/sliding window queries without re-scanning tuples.

Run:  python examples/streaming_quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core.algebra import join_gus
from repro.core.estimator import estimate_sum
from repro.core.gus import bernoulli_gus
from repro.stream import SlidingWindow, StreamingEstimator


def make_sample(rng, n):
    """A fake sampled join result: per-row f plus two lineage columns."""
    f = rng.uniform(0, 10, n)
    lineage = {
        "lineitem": rng.integers(0, n // 2, n),
        "orders": rng.integers(0, n // 8, n),
    }
    return f, lineage


def main() -> None:
    rng = np.random.default_rng(3)
    # The sampling design: lineitem Bernoulli(0.3) ⋈ orders Bernoulli(0.5).
    gus = join_gus(
        bernoulli_gus("lineitem", 0.3), bernoulli_gus("orders", 0.5)
    )
    f, lineage = make_sample(rng, 20_000)

    # -- 1. incremental = batch ----------------------------------------
    streaming = StreamingEstimator(gus)
    for part in np.array_split(np.arange(20_000), 16):
        streaming.update(f[part], {d: c[part] for d, c in lineage.items()})
        # An estimate is available after every batch — this is the point:
        # no rescan, the sketch already holds the moments.
    est = streaming.estimate()
    batch = estimate_sum(gus, f, lineage)
    print("incremental vs batch")
    print(f"  streaming: {est.value:,.1f}  ± {est.ci().width / 2:,.1f}")
    print(f"  batch:     {batch.value:,.1f}  ± {batch.ci().width / 2:,.1f}")
    print(f"  sketch holds {streaming.sketch.n_groups} lineage groups "
          f"for {streaming.n_sample} rows\n")

    # -- 2. split ingestion, exact merge --------------------------------
    # Any split works: each estimator sees every 4th row here, so the
    # parts share lineage groups, and the merge still adds them exactly.
    parts = [StreamingEstimator(gus) for _ in range(4)]
    for i, part in enumerate(parts):
        rows = np.arange(i, 20_000, 4)
        part.update(f[rows], {d: c[rows] for d, c in lineage.items()})
    merged = parts[0].copy()
    for part in parts[1:]:
        merged.merge(part)
    split = merged.estimate()
    print("4 estimators, each fed every 4th row, merged")
    print(f"  rows per estimator: {[part.n_sample for part in parts]}")
    print(f"  merged estimate: {split.value:,.1f} "
          f"(batch: {batch.value:,.1f} — identical)\n")

    # -- 3. sliding windows ---------------------------------------------
    window = SlidingWindow(gus, length=4)
    parts = np.array_split(np.arange(20_000), 10)
    for part in parts:
        window.push(f[part], {d: c[part] for d, c in lineage.items()})
    tail = np.concatenate(parts[-4:])
    ref = estimate_sum(gus, f[tail], {d: c[tail] for d, c in lineage.items()})
    print("sliding window over the last 4 of 10 batches")
    print(f"  windowed estimate: {window.estimate().value:,.1f}")
    print(f"  batch over same rows: {ref.value:,.1f} — identical")


if __name__ == "__main__":
    main()

"""Streaming GUS estimation: Theorem 1 over unbounded, split streams.

The batch estimator (:mod:`repro.core.estimator`) computes everything
in one pass over a materialized sample.  This package re-expresses the
same mathematics as *mergeable accumulators*, so estimates flow from
data that never sits in one place — micro-batches, parts, windows.

Mapping to the paper's objects:

* ``G(a, b̄)`` — the GUS sampling design (Definition 1) — stays a
  :class:`~repro.core.gus.GUSParams` and is **fixed per estimator**;
  the algebra's guarantees are per design.
* ``Y_S`` — the plug-in lattice moments of Section 6.3 — live in a
  :class:`~repro.stream.sketch.MomentSketchBundle` (per GROUP BY group
  in a :class:`~repro.stream.sketch.GroupedMomentBundle`).  The sketch
  stores the per-group sums *beneath* the squares (a commutative,
  mergeable monoid) and materializes the full ``(Y_S)_{S⊆L}`` vector
  on demand, so ``update`` is a single vectorized pass and ``merge`` is
  exact.  These are the accumulators the batch engine merges per chunk
  (:meth:`repro.core.sbox.SBox.run`); a stream holds one weight vector.
* ``Ŷ_S`` and ``σ̂²`` — the unbiased moments of the Section 6.3
  triangular recursion and Theorem 1's variance — are produced by
  :class:`~repro.stream.estimator.StreamingEstimator.estimate`, which
  feeds the sketch's moments through the *same*
  :func:`~repro.core.estimator.estimate_from_moments` finishing step
  the batch path uses.
* Splits and windows are pure composition of merges: estimators fed
  any split of a stream (contiguous, interleaved, keyed by lineage)
  merge into one that equals the batch answer — the property the
  engine relies on for every multi-chunk query — while
  :class:`~repro.stream.window.SlidingWindow` answers windowed queries
  from per-batch sketches instead of re-scanning tuples.  A GROUP BY
  stream is a :class:`~repro.stream.sketch.GroupedMomentBundle` read out
  through :func:`~repro.core.estimator.grouped_estimates_from_moments`,
  the pair the SBox folds a grouped query with.

See ``examples/streaming_quickstart.py`` for a five-minute tour.
"""

from repro.stream.estimator import StreamingEstimator
from repro.stream.sketch import GroupedMomentBundle, MomentSketchBundle
from repro.stream.window import SlidingWindow

__all__ = [
    "MomentSketchBundle",
    "GroupedMomentBundle",
    "StreamingEstimator",
    "SlidingWindow",
]

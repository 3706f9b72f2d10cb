"""A sliding window over a sketched stream.

:class:`SlidingWindow` treats one ``push(f, lineage)`` call as one
*batch* — the natural unit of a micro-batched stream processor — and
answers windowed SUM queries from merged
:class:`~repro.stream.sketch.MomentSketchBundle` state instead of
re-scanning raw tuples.  It keeps the last ``length`` per-batch
sketches in a deque; :meth:`SlidingWindow.estimate` merges them, so the
window advances by dropping a whole sketch — no "subtract a batch"
numerics, and the merge cost scales with the number of *distinct
lineage keys*, not tuples.  A tumbling window is one
:class:`~repro.stream.estimator.StreamingEstimator` per span, started
afresh when the span closes.

The GUS must be fixed across the window (a varying sampling design is
not a single GUS; see :class:`repro.apps.load_shedding.LoadShedder` for
the per-regime treatment).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping

import numpy as np

from repro.core.estimator import Estimate
from repro.core.gus import GUSParams
from repro.errors import EstimationError
from repro.stream.estimator import StreamingEstimator

__all__ = ["SlidingWindow"]


class SlidingWindow:
    """Overlapping windows: always the most recent ``length`` batches."""

    __slots__ = ("params", "length", "label", "_batches")

    def __init__(
        self, params: GUSParams, length: int, *, label: str = "SUM"
    ) -> None:
        if length < 1:
            raise EstimationError(f"window length must be >= 1, got {length}")
        self.params = params
        self.length = int(length)
        self.label = label
        self._batches: deque[StreamingEstimator] = deque(maxlen=self.length)

    def push(
        self, f: np.ndarray, lineage: Mapping[str, np.ndarray]
    ) -> "SlidingWindow":
        """Sketch one batch and slide the window; returns ``self``."""
        batch = StreamingEstimator(self.params, label=self.label)
        batch.update(f, lineage)
        return self.append(batch)

    def append(self, batch: StreamingEstimator) -> "SlidingWindow":
        """Slide an already-sketched batch in (avoids re-sketching when
        the caller needed the batch estimator anyway)."""
        if not batch.params.approx_equal(self.params):
            raise EstimationError(
                "batch estimator uses a different GUS than the window"
            )
        self._batches.append(batch)
        return self

    @property
    def n_batches(self) -> int:
        """Batches currently inside the window (≤ ``length``)."""
        return len(self._batches)

    @property
    def n_sample(self) -> int:
        return sum(batch.n_sample for batch in self._batches)

    def estimate(self) -> Estimate:
        """The unbiased estimate over the batches currently in view."""
        if not self._batches:
            raise EstimationError("sliding window is empty; push a batch first")
        merged = self._batches[0].copy()
        for batch in list(self._batches)[1:]:
            merged.merge(batch)
        return merged.estimate()

"""Tumbling and sliding windows over a sketched stream.

Both windows treat one ``push(f, lineage)`` call as one *batch* — the
natural unit of a micro-batched stream processor — and answer windowed
SUM queries from merged
:class:`~repro.stream.sketch.MomentSketchBundle` state instead of
re-scanning raw tuples:

* :class:`TumblingWindow` accumulates one estimator per span of
  ``length`` batches; when a span closes, :meth:`push` returns its
  :class:`~repro.core.estimator.Estimate` and starts a fresh span.
* :class:`SlidingWindow` keeps the last ``length`` per-batch sketches
  in a deque; :meth:`estimate` merges them, so the window advances by
  dropping a whole sketch — no "subtract a batch" numerics, and the
  merge cost scales with the number of *distinct lineage keys*, not
  tuples.

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

__all__ = ["TumblingWindow", "SlidingWindow"]


def _check_length(length: int) -> int:
    if length < 1:
        raise EstimationError(f"window length must be >= 1, got {length}")
    return int(length)


class TumblingWindow:
    """Non-overlapping windows of ``length`` batches each."""

    __slots__ = ("params", "length", "label", "_current", "_pushed", "closed")

    def __init__(
        self, params: GUSParams, length: int, *, label: str = "SUM"
    ) -> None:
        self.params = params
        self.length = _check_length(length)
        self.label = label
        self._current = StreamingEstimator(params, label=label)
        self._pushed = 0
        #: Estimates of every window closed so far, oldest first.
        self.closed: list[Estimate] = []

    def push(
        self, f: np.ndarray, lineage: Mapping[str, np.ndarray]
    ) -> Estimate | None:
        """Absorb one batch; returns the window's estimate when it closes."""
        self._current.update(f, lineage)
        self._pushed += 1
        if self._pushed < self.length:
            return None
        return self.flush()

    def flush(self) -> Estimate | None:
        """Close the current window early (``None`` if it is empty)."""
        if self._pushed == 0:
            return None
        est = self._current.estimate()
        self.closed.append(est)
        self._current = StreamingEstimator(self.params, label=self.label)
        self._pushed = 0
        return est


class SlidingWindow:
    """Overlapping windows: always the most recent ``length`` batches."""

    __slots__ = ("params", "length", "label", "_batches")

    def __init__(
        self, params: GUSParams, length: int, *, label: str = "SUM"
    ) -> None:
        self.params = params
        self.length = _check_length(length)
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

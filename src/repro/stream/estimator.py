"""Streaming Theorem-1 estimation: an estimate at any moment, no rescan.

:class:`StreamingEstimator` pairs a :class:`~repro.core.gus.GUSParams`
``G(a, b̄)`` with a one-vector
:class:`~repro.stream.sketch.MomentSketchBundle` over its *active*
lineage dimensions (inactive ones are pruned up front, exactly
as the batch path does).  Batches of sampled tuples stream in through
:meth:`update`; at any point :meth:`estimate` runs the Section 6.3
unbiasing recursion on the sketch's current ``(Y_S)`` vector and emits
a full :class:`~repro.core.estimator.Estimate` — point value, unbiased
variance, confidence intervals — without touching any previously seen
row.

Two estimators over the same GUS merge exactly (:meth:`merge`), which
is what makes the sharded and windowed drivers in
:mod:`repro.stream.shard` and :mod:`repro.stream.window` correct: the
merged sketch is bit-for-bit the same group table a single-process pass
would have produced, up to float summation order.  The sketches are the
classes :meth:`repro.core.sbox.SBox.run` folds its chunks into, so an
estimator fed a query's chunks returns the engine's answer bit for bit.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.estimator import (
    Estimate,
    GroupedEstimates,
    estimate_from_moments,
    grouped_estimates_from_moments,
)
from repro.core.gus import GUSParams
from repro.errors import EstimationError
from repro.stream.sketch import GroupedMomentBundle, MomentSketchBundle

__all__ = ["StreamingEstimator", "GroupedStreamingEstimator"]


class StreamingEstimator:
    """Incremental ``Σ f`` estimation under a fixed GUS.

    The GUS must be fixed for the lifetime of the estimator: the
    algebra's guarantees are per sampling design, so a stream whose
    keep-rate changes needs one estimator per regime (see
    :class:`repro.apps.load_shedding.LoadShedder`, which sums the
    independent per-window estimates instead).
    """

    __slots__ = ("params", "label", "_pruned", "sketch")

    def __init__(self, params: GUSParams, *, label: str = "SUM") -> None:
        if params.a <= 0.0:
            raise EstimationError("cannot estimate from a = 0 (null sampling)")
        self.params = params
        self.label = label
        self._pruned = params.project_out_inactive()
        self.sketch = MomentSketchBundle(self._pruned.lattice, 1)

    # -- ingestion ------------------------------------------------------

    def update(
        self, f: np.ndarray, lineage: Mapping[str, np.ndarray]
    ) -> "StreamingEstimator":
        """Absorb one batch of sampled rows; returns ``self``.

        ``lineage`` may carry columns for pruned (inactive) dimensions;
        only the active ones are read.
        """
        self.sketch.update([f], lineage)
        return self

    def merge(self, other: "StreamingEstimator") -> "StreamingEstimator":
        """Fold another estimator over the *same* GUS into this one."""
        if not self.params.approx_equal(other.params):
            raise EstimationError(
                "cannot merge streaming estimators with different GUS params"
            )
        self.sketch.merge(other.sketch)
        return self

    def copy(self) -> "StreamingEstimator":
        dup = StreamingEstimator(self.params, label=self.label)
        dup.sketch = self.sketch.copy()
        return dup

    # -- emission -------------------------------------------------------

    @property
    def n_sample(self) -> int:
        return self.sketch.n_rows

    def estimate(self) -> Estimate:
        """The current unbiased estimate with Theorem 1 error bounds.

        Safe to call repeatedly — emission never mutates the sketch, so
        interleaving updates and estimates is the intended usage.
        """
        return estimate_from_moments(
            self._pruned,
            self.sketch.moments()[0],
            self.sketch.totals()[0],
            self.sketch.n_rows,
            label=self.label,
        )

    def __repr__(self) -> str:
        return (
            f"StreamingEstimator(a={self.params.a:.6g}, "
            f"dims={list(self._pruned.lattice.dims)}, "
            f"n_sample={self.n_sample})"
        )


class GroupedStreamingEstimator:
    """Incremental per-group ``Σ f`` estimation under a fixed GUS.

    The grouped twin of :class:`StreamingEstimator`: batches arrive
    with group key columns alongside ``f`` and lineage — arrays of any
    dtype or, for strings, dictionary-encoded ``(codes, values)`` pairs
    as :class:`~repro.stream.sketch.GroupedMomentBundle` takes them — and
    :meth:`estimate` emits a
    :class:`~repro.core.estimator.GroupedEstimates` over every group
    seen so far — equal (up to float summation order) to what the batch
    :func:`~repro.core.estimator.estimate_sums_grouped` would produce
    on all rows at once.  Merging estimators over the same GUS is exact
    even for groups only one side ever saw.
    """

    __slots__ = ("params", "label", "_pruned", "sketch")

    def __init__(
        self,
        params: GUSParams,
        *,
        n_group_cols: int = 1,
        label: str = "SUM",
    ) -> None:
        if params.a <= 0.0:
            raise EstimationError("cannot estimate from a = 0 (null sampling)")
        self.params = params
        self.label = label
        self._pruned = params.project_out_inactive()
        self.sketch = GroupedMomentBundle(self._pruned.lattice, n_group_cols, 1)

    # -- ingestion ------------------------------------------------------

    def update(
        self,
        f: np.ndarray,
        lineage: Mapping[str, np.ndarray],
        group_cols: Sequence,
    ) -> "GroupedStreamingEstimator":
        """Absorb one batch of sampled rows; returns ``self``."""
        self.sketch.update([f], lineage, group_cols)
        return self

    def merge(
        self, other: "GroupedStreamingEstimator"
    ) -> "GroupedStreamingEstimator":
        """Fold another estimator over the *same* GUS into this one."""
        if not self.params.approx_equal(other.params):
            raise EstimationError(
                "cannot merge streaming estimators with different GUS params"
            )
        self.sketch.merge(other.sketch)
        return self

    def copy(self) -> "GroupedStreamingEstimator":
        dup = GroupedStreamingEstimator(
            self.params,
            n_group_cols=self.sketch.n_group_cols,
            label=self.label,
        )
        dup.sketch = self.sketch.copy()
        return dup

    # -- emission -------------------------------------------------------

    @property
    def n_sample(self) -> int:
        return self.sketch.n_rows

    def estimate(self) -> tuple[list[np.ndarray], GroupedEstimates]:
        """Current per-group estimates with Theorem 1 error bounds.

        Returns ``(group_key_columns, estimates)``; row ``g`` of the
        estimates belongs to the ``g``-th distinct key combination.
        Emission never mutates the sketch.
        """
        group_keys, ys, totals, counts = self.sketch.moments()
        return group_keys, grouped_estimates_from_moments(
            self._pruned, self.params.a, ys[0], totals[0], counts, label=self.label
        )

    def __repr__(self) -> str:
        return (
            f"GroupedStreamingEstimator(a={self.params.a:.6g}, "
            f"dims={list(self._pruned.lattice.dims)}, "
            f"n_sample={self.n_sample}, "
            f"n_entries={self.sketch.n_entries})"
        )

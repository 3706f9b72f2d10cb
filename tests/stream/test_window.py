"""Tumbling and sliding windows against batch recomputation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import estimate_sum
from repro.core.gus import bernoulli_gus
from repro.errors import EstimationError
from repro.stream import SlidingWindow, StreamingEstimator, TumblingWindow

GUS = bernoulli_gus("stream", 0.5)


def _batches(rng, n_batches, rows=60, span=30):
    out = []
    for _ in range(n_batches):
        out.append(
            (
                rng.uniform(0, 4, rows),
                {"stream": rng.integers(0, span, rows).astype(np.int64)},
            )
        )
    return out


def _concat(batches):
    f = np.concatenate([b[0] for b in batches])
    lineage = {"stream": np.concatenate([b[1]["stream"] for b in batches])}
    return f, lineage


class TestTumblingWindow:
    def test_emits_every_length_batches(self):
        window = TumblingWindow(GUS, 3)
        rng = np.random.default_rng(0)
        batches = _batches(rng, 7)
        emitted = [window.push(f, lin) for f, lin in batches]
        assert [e is not None for e in emitted] == [
            False, False, True, False, False, True, False,
        ]
        # Each closed window equals the batch estimate over its span.
        for start, est in zip((0, 3), (emitted[2], emitted[5])):
            f, lineage = _concat(batches[start : start + 3])
            ref = estimate_sum(GUS, f, lineage)
            assert est.value == pytest.approx(ref.value, rel=1e-9)
            assert est.variance_raw == pytest.approx(ref.variance_raw, rel=1e-9, abs=1e-9)
        assert len(window.closed) == 2

    def test_flush_closes_partial_window(self):
        window = TumblingWindow(GUS, 5)
        rng = np.random.default_rng(1)
        batches = _batches(rng, 2)
        for f, lin in batches:
            assert window.push(f, lin) is None
        est = window.flush()
        f, lineage = _concat(batches)
        assert est.value == pytest.approx(estimate_sum(GUS, f, lineage).value, rel=1e-9)
        assert window.flush() is None

    def test_invalid_length(self):
        with pytest.raises(EstimationError, match=">= 1"):
            TumblingWindow(GUS, 0)


class TestSlidingWindow:
    def test_estimate_covers_last_length_batches(self):
        window = SlidingWindow(GUS, 4)
        rng = np.random.default_rng(2)
        batches = _batches(rng, 9)
        for i, (f, lin) in enumerate(batches):
            window.push(f, lin)
            lo = max(0, i + 1 - 4)
            ref_f, ref_lin = _concat(batches[lo : i + 1])
            ref = estimate_sum(GUS, ref_f, ref_lin)
            est = window.estimate()
            assert est.value == pytest.approx(ref.value, rel=1e-9)
            assert est.variance_raw == pytest.approx(ref.variance_raw, rel=1e-9, abs=1e-9)
        assert window.n_batches == 4

    def test_append_presketched_batch(self):
        window = SlidingWindow(GUS, 2)
        rng = np.random.default_rng(3)
        (f, lin), = _batches(rng, 1)
        batch = StreamingEstimator(GUS).update(f, lin)
        window.append(batch)
        assert window.n_sample == 60
        assert window.estimate().value == pytest.approx(batch.estimate().value)

    def test_append_wrong_gus_rejected(self):
        window = SlidingWindow(GUS, 2)
        other = StreamingEstimator(bernoulli_gus("stream", 0.9))
        with pytest.raises(EstimationError, match="different GUS"):
            window.append(other)

    def test_empty_window_rejected(self):
        with pytest.raises(EstimationError, match="empty"):
            SlidingWindow(GUS, 2).estimate()

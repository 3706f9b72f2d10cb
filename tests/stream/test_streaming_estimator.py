"""StreamingEstimator must reproduce estimate_sum on the same sample."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algebra import join_gus
from repro.core.estimator import estimate_sum
from repro.core.gus import bernoulli_gus, null_gus, without_replacement_gus
from repro.errors import EstimationError
from repro.stream import StreamingEstimator


def _join_sample(rng, n, l_span=40, o_span=15):
    f = rng.uniform(-2, 4, n)
    lineage = {
        "l": rng.integers(0, l_span, n).astype(np.int64),
        "o": rng.integers(0, o_span, n).astype(np.int64),
    }
    return f, lineage


JOIN_GUS = join_gus(bernoulli_gus("l", 0.4), without_replacement_gus("o", 30, 100))


def _assert_estimates_match(streamed, batch):
    assert streamed.value == pytest.approx(batch.value, rel=1e-9, abs=1e-9)
    assert streamed.variance_raw == pytest.approx(batch.variance_raw, rel=1e-9, abs=1e-9)
    assert streamed.n_sample == batch.n_sample
    assert streamed.extras["a"] == batch.extras["a"]
    assert streamed.extras["active_dims"] == batch.extras["active_dims"]


class TestMatchesBatchPath:
    @given(st.integers(0, 200), st.integers(1, 8), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_property_batched_equals_batch(self, n, n_batches, seed):
        rng = np.random.default_rng(seed)
        f, lineage = _join_sample(rng, n)
        streaming = StreamingEstimator(JOIN_GUS)
        for part in np.array_split(np.arange(n), n_batches):
            streaming.update(f[part], {d: c[part] for d, c in lineage.items()})
        _assert_estimates_match(streaming.estimate(), estimate_sum(JOIN_GUS, f, lineage))

    def test_estimate_between_updates_is_consistent(self):
        rng = np.random.default_rng(1)
        f, lineage = _join_sample(rng, 300)
        streaming = StreamingEstimator(JOIN_GUS)
        for part in np.array_split(np.arange(300), 4):
            streaming.update(f[part], {d: c[part] for d, c in lineage.items()})
            upto = part[-1] + 1
            _assert_estimates_match(
                streaming.estimate(),
                estimate_sum(
                    JOIN_GUS,
                    f[:upto],
                    {d: c[:upto] for d, c in lineage.items()},
                ),
            )

    def test_merge_equals_combined_sample(self):
        rng = np.random.default_rng(2)
        f, lineage = _join_sample(rng, 400)
        left = StreamingEstimator(JOIN_GUS)
        right = StreamingEstimator(JOIN_GUS)
        left.update(f[:150], {d: c[:150] for d, c in lineage.items()})
        right.update(f[150:], {d: c[150:] for d, c in lineage.items()})
        left.merge(right)
        _assert_estimates_match(left.estimate(), estimate_sum(JOIN_GUS, f, lineage))

    def test_prunes_inactive_dims_like_batch(self):
        gus = join_gus(bernoulli_gus("l", 0.5), bernoulli_gus("o", 1.0))
        streaming = StreamingEstimator(gus)
        # The inactive dimension's column is not even required.
        streaming.update(np.array([1.0, 2.0]), {"l": np.array([0, 1])})
        est = streaming.estimate()
        assert est.extras["active_dims"] == ("l",)
        assert est.value == pytest.approx(6.0)


class TestErrors:
    def test_null_sampling_rejected(self):
        with pytest.raises(EstimationError, match="a = 0"):
            StreamingEstimator(null_gus(["r"]))

    def test_merge_different_gus_rejected(self):
        a = StreamingEstimator(bernoulli_gus("r", 0.5))
        b = StreamingEstimator(bernoulli_gus("r", 0.6))
        with pytest.raises(EstimationError, match="different GUS"):
            a.merge(b)

    def test_empty_estimator_estimates_zero(self):
        est = StreamingEstimator(bernoulli_gus("r", 0.5)).estimate()
        assert est.value == 0.0
        assert est.variance == 0.0
        assert est.n_sample == 0

    def test_label_propagates(self):
        streaming = StreamingEstimator(bernoulli_gus("r", 0.5), label="REVENUE")
        assert streaming.estimate().label == "REVENUE"
        assert streaming.copy().estimate().label == "REVENUE"

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

#: The three GUS shapes a split stream must merge back on: tuple-level
#: Bernoulli, fixed-size WOR, and their join (two active dimensions).
GUS_CASES = {
    "bernoulli": bernoulli_gus("l", 0.3),
    "wor": without_replacement_gus("l", 25, 80),
    "join": JOIN_GUS,
}


def _lineage_key(lineage):
    """One integer per row that is equal exactly when the full
    lineage key is (spans are below 1 000)."""
    key = np.zeros(next(iter(lineage.values())).shape[0], dtype=np.int64)
    for dim in sorted(lineage):
        key = key * 1_000 + lineage[dim]
    return key


#: Row → part assignments of an ``n``-row stream into ``k`` parts:
#: consecutive runs, every k-th row (parts share lineage groups), and
#: whole lineage groups per part (parts share no full lineage key).
SPLITS = {
    "contiguous": lambda n, k, lineage: np.arange(n) * k // n,
    "interleaved": lambda n, k, lineage: np.arange(n) % k,
    "by-lineage": lambda n, k, lineage: _lineage_key(lineage) % k,
}


def _split_sample(rng, n, dims):
    f = rng.uniform(-2, 6, n)
    spans = {"l": 50, "o": 20}
    lineage = {d: rng.integers(0, spans[d], n).astype(np.int64) for d in dims}
    return f, lineage


def _split_and_merge(gus, f, lineage, part_of, k):
    """Feed each part its rows of every micro-batch, then merge."""
    parts = [StreamingEstimator(gus) for _ in range(k)]
    for batch in np.array_split(np.arange(f.shape[0]), 5):
        for i, part in enumerate(parts):
            rows = batch[part_of[batch] == i]
            part.update(f[rows], {d: c[rows] for d, c in lineage.items()})
    merged = parts[0].copy()
    for part in parts[1:]:
        merged.merge(part)
    return parts, merged


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


class TestSplitStreamMerges:
    """A stream split into k parts, one estimator each, merges back to
    the batch answer — whatever the split, since the group sums add."""

    @pytest.mark.parametrize("gus_name", sorted(GUS_CASES))
    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("split", sorted(SPLITS))
    def test_k_parts_merge_to_batch(self, gus_name, k, split):
        gus = GUS_CASES[gus_name]
        rng = np.random.default_rng(k * 31 + len(split))
        f, lineage = _split_sample(rng, 700, gus.lattice.dims)
        part_of = SPLITS[split](700, k, lineage)
        _, merged = _split_and_merge(gus, f, lineage, part_of, k)
        split_estimate = merged.estimate()
        batch = estimate_sum(gus, f, lineage)
        assert split_estimate.value == pytest.approx(batch.value, abs=1e-9, rel=1e-9)
        assert split_estimate.variance_raw == pytest.approx(
            batch.variance_raw, abs=1e-9, rel=1e-9
        )
        assert split_estimate.n_sample == batch.n_sample == 700

    def test_every_row_counted_once(self):
        gus = GUS_CASES["join"]
        rng = np.random.default_rng(5)
        f, lineage = _split_sample(rng, 500, gus.lattice.dims)
        part_of = SPLITS["by-lineage"](500, 4, lineage)
        parts, merged = _split_and_merge(gus, f, lineage, part_of, 4)
        assert [part.n_sample for part in parts] == np.bincount(
            part_of, minlength=4
        ).tolist()
        assert merged.n_sample == 500


class TestErrors:
    def test_null_sampling_rejected(self):
        with pytest.raises(EstimationError, match="a = 0"):
            StreamingEstimator(null_gus(["r"]))

    def test_merge_different_gus_rejected(self):
        a = StreamingEstimator(bernoulli_gus("r", 0.5))
        b = StreamingEstimator(bernoulli_gus("r", 0.6))
        with pytest.raises(EstimationError, match="different GUS"):
            a.merge(b)

    def test_missing_lineage_rejected(self):
        streaming = StreamingEstimator(JOIN_GUS)
        with pytest.raises(EstimationError, match="missing"):
            streaming.update(np.ones(3), {"l": np.arange(3)})

    def test_empty_estimator_estimates_zero(self):
        est = StreamingEstimator(bernoulli_gus("r", 0.5)).estimate()
        assert est.value == 0.0
        assert est.variance == 0.0
        assert est.n_sample == 0

    def test_label_propagates(self):
        streaming = StreamingEstimator(bernoulli_gus("r", 0.5), label="REVENUE")
        assert streaming.estimate().label == "REVENUE"
        assert streaming.copy().estimate().label == "REVENUE"

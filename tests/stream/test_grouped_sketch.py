"""Grouped sketch mergeability: shard merges are exact.

The grouped state table is keyed on (group key, lineage key), so
partitioning a stream across any number of shard sketches and merging
must reproduce the unsharded sketch exactly — including groups that
only a single shard ever observed.  Integer-valued ``f`` makes every
sum exact, so the equality assertions are bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algebra import join_gus
from repro.core.estimator import group_ids, grouped_estimates_from_moments
from repro.core.gus import bernoulli_gus, without_replacement_gus
from repro.errors import EstimationError
from repro.stream import GroupedMomentBundle
from tests.reference import estimate_sums_grouped

GUS_CASES = {
    "bernoulli": bernoulli_gus("l", 0.3),
    "join": join_gus(bernoulli_gus("l", 0.4), without_replacement_gus("o", 30, 100)),
}


def _bundle(gus, n_group_cols=1):
    """A one-vector grouped bundle over ``gus``'s active dimensions."""
    return GroupedMomentBundle(gus.project_out_inactive().lattice, n_group_cols, 1)


def _estimate(gus, bundle):
    """``(group_key_columns, estimates)`` as the SBox reads a bundle out."""
    keys, ys, totals, counts = bundle.moments()
    return keys, grouped_estimates_from_moments(
        gus.project_out_inactive(), gus.a, ys[0], totals[0], counts
    )


def _stream(rng, n, dims, n_groups=9):
    f = rng.integers(-3, 12, n).astype(np.float64)
    spans = {"l": 40, "o": 25}
    lineage = {d: rng.integers(0, spans[d], n).astype(np.int64) for d in dims}
    groups = rng.integers(0, n_groups, n).astype(np.int64)
    return f, lineage, groups


class TestShardMergeExactness:
    @pytest.mark.parametrize("gus_name", sorted(GUS_CASES))
    @pytest.mark.parametrize("n_shards", range(1, 9))
    def test_merged_equals_unsharded(self, gus_name, n_shards):
        """Satellite: 1–8 shards, arbitrary routing, exact merge."""
        gus = GUS_CASES[gus_name]
        dims = gus.lattice.dims
        rng = np.random.default_rng(37 * n_shards + len(gus_name))
        f, lineage, groups = _stream(rng, 800, dims)

        single = _bundle(gus)
        single.update([f], lineage, [groups])

        shards = [_bundle(gus) for _ in range(n_shards)]
        assignment = rng.integers(0, n_shards, 800)
        for s, shard in enumerate(shards):
            pick = assignment == s
            # several micro-batches per shard, to exercise re-reduction
            for part in np.array_split(np.flatnonzero(pick), 3):
                shard.update(
                    [f[part]],
                    {d: c[part] for d, c in lineage.items()},
                    [groups[part]],
                )
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)

        keys_one, est_one = _estimate(gus, single)
        keys_many, est_many = _estimate(gus, merged)
        np.testing.assert_array_equal(keys_one[0], keys_many[0])
        np.testing.assert_array_equal(est_one.values, est_many.values)
        np.testing.assert_array_equal(est_one.n_samples, est_many.n_samples)
        np.testing.assert_allclose(est_one.variance_raw, est_many.variance_raw, rtol=1e-9)
        assert merged.n_rows == single.n_rows == 800

    @pytest.mark.parametrize("gus_name", sorted(GUS_CASES))
    def test_groups_exclusive_to_one_shard(self, gus_name):
        """Groups seen by exactly one shard survive the merge intact."""
        gus = GUS_CASES[gus_name]
        dims = gus.lattice.dims
        rng = np.random.default_rng(5)
        n_shards = 4
        f, lineage, _ = _stream(rng, 600, dims)
        # group id == shard id: perfectly disjoint group placement
        groups = rng.integers(0, n_shards, 600).astype(np.int64)

        shards = [_bundle(gus) for _ in range(n_shards)]
        for s, shard in enumerate(shards):
            pick = groups == s
            shard.update(
                [f[pick]],
                {d: c[pick] for d, c in lineage.items()},
                [groups[pick]],
            )
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        keys, est = _estimate(gus, merged)
        assert keys[0].tolist() == list(range(n_shards))

        gids, n_groups = group_ids([groups], 600)
        batch = estimate_sums_grouped(gus, f, lineage, gids, n_groups)
        np.testing.assert_array_equal(est.values, batch.values)
        np.testing.assert_array_equal(est.n_samples, batch.n_samples)
        np.testing.assert_allclose(est.variance_raw, batch.variance_raw, rtol=1e-9)

    def test_merge_equals_batch_grouped_estimator(self):
        """The streaming emission matches the batch grouped estimator
        on the concatenated sample."""
        gus = GUS_CASES["join"]
        dims = gus.lattice.dims
        rng = np.random.default_rng(11)
        f, lineage, groups = _stream(rng, 700, dims)
        streaming = _bundle(gus)
        for part in np.array_split(np.arange(700), 6):
            streaming.update(
                [f[part]],
                {d: c[part] for d, c in lineage.items()},
                [groups[part]],
            )
        keys, est = _estimate(gus, streaming)
        gids, n_groups = group_ids([groups], 700)
        batch = estimate_sums_grouped(gus, f, lineage, gids, n_groups)
        assert keys[0].tolist() == sorted(set(groups.tolist()))
        np.testing.assert_array_equal(est.values, batch.values)
        np.testing.assert_allclose(est.variance_raw, batch.variance_raw, rtol=1e-9)

    def test_multi_column_group_keys(self):
        gus = GUS_CASES["bernoulli"]
        rng = np.random.default_rng(23)
        f, lineage, g1 = _stream(rng, 400, gus.lattice.dims, n_groups=3)
        g2 = rng.integers(0, 2, 400).astype(np.int64)
        a = _bundle(gus, n_group_cols=2)
        b = _bundle(gus, n_group_cols=2)
        half = 200
        a.update([f[:half]], {d: c[:half] for d, c in lineage.items()}, [g1[:half], g2[:half]])
        b.update([f[half:]], {d: c[half:] for d, c in lineage.items()}, [g1[half:], g2[half:]])
        keys, est = _estimate(gus, a.merge(b))
        gids, n_groups = group_ids([g1, g2], 400)
        batch = estimate_sums_grouped(gus, f, lineage, gids, n_groups)
        assert len(keys) == 2
        assert est.n_groups == n_groups
        np.testing.assert_array_equal(est.values, batch.values)


class TestGroupedSketchState:
    def test_state_compacts_to_distinct_pairs(self):
        gus = GUS_CASES["bernoulli"]
        sketch = GroupedMomentBundle(gus.lattice, 1, 1)
        rng = np.random.default_rng(2)
        lin = rng.integers(0, 5, 1000).astype(np.int64)
        grp = rng.integers(0, 3, 1000).astype(np.int64)
        sketch.update([np.ones(1000)], {"l": lin}, [grp])
        distinct = len({(int(g), int(l)) for g, l in zip(grp, lin)})
        assert sketch.n_entries == distinct
        assert sketch.n_rows == 1000
        assert "n_entries=" in repr(sketch)

    def test_empty_updates_and_empty_sketch(self):
        gus = GUS_CASES["bernoulli"]
        est = _bundle(gus)
        est.update(
            [np.empty(0)],
            {"l": np.empty(0, dtype=np.int64)},
            [np.empty(0, dtype=np.int64)],
        )
        keys, bundle = _estimate(gus, est)
        assert bundle.n_groups == 0
        assert keys[0].shape == (0,)

    def test_copy_is_independent(self):
        gus = GUS_CASES["bernoulli"]
        a = _bundle(gus)
        a.update(
            [np.array([1.0, 2.0])],
            {"l": np.array([0, 1], dtype=np.int64)},
            [np.array([0, 1], dtype=np.int64)],
        )
        b = a.copy()
        b.update(
            [np.array([5.0])],
            {"l": np.array([2], dtype=np.int64)},
            [np.array([7], dtype=np.int64)],
        )
        assert a.n_rows == 2 and b.n_rows == 3
        keys_a, est_a = _estimate(gus, a)
        assert keys_a[0].tolist() == [0, 1]
        assert est_a.values.tolist() == [1.0 / gus.a, 2.0 / gus.a]
        assert _estimate(gus, b)[0][0].tolist() == [0, 1, 7]

    def test_mismatched_merges_rejected(self):
        bern = GUS_CASES["bernoulli"]
        with pytest.raises(EstimationError, match="different lattices"):
            GroupedMomentBundle(bern.lattice, 1, 1).merge(
                GroupedMomentBundle(GUS_CASES["join"].lattice, 1, 1)
            )
        with pytest.raises(EstimationError, match="different shapes"):
            GroupedMomentBundle(bern.lattice, 1, 1).merge(GroupedMomentBundle(bern.lattice, 2, 1))
        with pytest.raises(EstimationError, match="different shapes"):
            GroupedMomentBundle(bern.lattice, 1, 1).merge(GroupedMomentBundle(bern.lattice, 1, 2))

    def test_batch_validation(self):
        gus = GUS_CASES["bernoulli"]
        sketch = GroupedMomentBundle(gus.lattice, 1, 1)
        ids = np.zeros(2, dtype=np.int64)
        with pytest.raises(EstimationError, match="group columns"):
            sketch.update([np.ones(2)], {"l": ids}, [])
        with pytest.raises(EstimationError, match="missing"):
            sketch.update([np.ones(2)], {}, [ids])
        with pytest.raises(EstimationError, match="shape"):
            sketch.update([np.ones(2)], {"l": np.zeros(3, dtype=np.int64)}, [ids])
        with pytest.raises(EstimationError, match="1-d"):
            sketch.update([np.ones((2, 1))], {"l": ids}, [ids])
        with pytest.raises(EstimationError, match="non-integer dtype"):
            sketch.update([np.ones(2)], {"l": np.array([1.5, 2.5])}, [ids])
        # A short group column used to surface as a bare numpy ValueError.
        encoded = (np.zeros(3, dtype=np.int32), np.array(["x"], dtype=object))
        for short in (np.zeros(3, dtype=np.int64), ["a", "b", "c"], encoded):
            with pytest.raises(EstimationError, match="group column 0 has 3 rows"):
                sketch.update([np.ones(2)], {"l": ids}, [short])
        assert (sketch.n_rows, sketch.n_entries) == (0, 0)
        with pytest.raises(EstimationError, match="at least one group"):
            GroupedMomentBundle(gus.lattice, 0, 1)

    def test_float_group_keys_stay_distinct_groups(self):
        """Float keys must not silently truncate into merged groups."""
        gus = GUS_CASES["bernoulli"]
        est = _bundle(gus)
        est.update(
            [np.ones(3)],
            {"l": np.arange(3, dtype=np.int64)},
            [np.array([0.05, 0.01, 0.09])],
        )
        est.update([np.ones(1)], {"l": np.array([3])}, [np.array([0.05])])
        keys, estimates = _estimate(gus, est)
        assert keys[0].tolist() == [0.01, 0.05, 0.09]
        assert estimates.n_samples.tolist() == [1, 2, 1]


# -- key-ordered folds and dictionary-encoded keys --------------------------
#
# ``GroupedMomentBundle`` keeps scan order when the lineage key is one
# strictly increasing column (no sort in ``update`` or ``merge``) and
# takes string keys as ``(codes, values)`` pairs.  Neither may change a
# bit of ``moments()``.

_KEY_WORDS = np.array(["N", "A", None, "R", "", "ä"], dtype=object)


@st.composite
def _keyed_batches(draw):
    n = draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    ordered = draw(st.booleans())
    if ordered:  # a tuple-level sample of one relation in scan order
        lineage = np.sort(rng.choice(400, n, replace=False)).astype(np.int64)
    else:  # repeated and unordered ids: entries must be reduced
        lineage = rng.integers(0, 12, n).astype(np.int64)
    words = _KEY_WORDS[rng.integers(0, draw(st.integers(1, 6)), n)]
    numbers = rng.integers(-2, 2, n)
    fs = [
        rng.choice([-0.0, 0.0, 0.1, -2.5, 1e9, 7.0], n),
        rng.uniform(-3, 5, n),
    ]
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    # The same strings over a shuffled dictionary with unused entries.
    order = rng.permutation(_KEY_WORDS.shape[0])
    position = {w: i for i, w in enumerate(_KEY_WORDS[order].tolist())}
    codes = np.array([position[w] for w in words.tolist()], dtype=np.int32)
    return ordered, lineage, words, (codes, _KEY_WORDS[order]), numbers, fs, cuts


def _moment_bytes(bundle):
    keys, ys, totals, counts = bundle.moments()
    return (
        [k.tolist() for k in keys],
        [y.tobytes() for y in ys],
        [t.tobytes() for t in totals],
        counts.tobytes(),
    )


def _folded(lattice, fs, lineage, group_cols, parts):
    """``update`` the first part, ``merge`` a bundle of every later one."""
    merged = None
    for part in parts:
        bundle = GroupedMomentBundle(lattice, len(group_cols), len(fs))
        bundle.update(
            [f[part] for f in fs],
            {"l": lineage[part]},
            [(c[0][part], c[1]) if type(c) is tuple else c[part] for c in group_cols],
        )
        merged = bundle if merged is None else merged.merge(bundle)
    return merged


class TestKeyOrderedFoldKeepsEveryBit:
    @given(_keyed_batches())
    @settings(max_examples=150, deadline=None)
    def test_encoded_split_and_shuffled_folds_equal_one_update(self, case):
        from unittest import mock

        from repro.core import kernels
        from repro.core.lattice import SubsetLattice

        ordered, lineage, words, encoded, numbers, fs, cuts = case
        n = lineage.shape[0]
        lattice = SubsetLattice(("l",))
        everything = [np.arange(n)]
        with mock.patch.object(
            kernels, "sorted_boundaries", wraps=kernels.sorted_boundaries
        ) as sort:
            want = _moment_bytes(_folded(lattice, fs, lineage, [words, numbers], everything))
            got_encoded = _moment_bytes(
                _folded(lattice, fs, lineage, [encoded, numbers], everything)
            )
            parts = [p for p in np.split(np.arange(n), cuts) if p.size]
            got_split = _moment_bytes(_folded(lattice, fs, lineage, [encoded, numbers], parts))
            in_order_sorts = sort.call_count
        assert got_encoded == want
        if not ordered:
            # An id repeated across parts merges partial sums — other
            # float additions than one update's, on either key form.
            assert got_split == _moment_bytes(
                _folded(lattice, fs, lineage, [words, numbers], parts)
            )
            return
        assert got_split == want
        # Key-ordered: nothing above sorted, and rows that arrive out of
        # order fall back to the sort with the same bits (ids are
        # distinct, so no entry's addition order can change).
        assert in_order_sorts == 0
        shuffle = np.random.default_rng(n).permutation(n)
        shuffled = [shuffle[p] for p in parts]
        assert _moment_bytes(_folded(lattice, fs, lineage, [words, numbers], shuffled)) == want

    def test_a_descending_merge_sorts_and_an_ascending_one_does_not(self):
        from unittest import mock

        from repro.core import kernels
        from repro.core.lattice import SubsetLattice

        lattice = SubsetLattice(("l",))
        lineage = np.arange(40, dtype=np.int64) * 3
        keys = np.array(["x", "y"], dtype=object)[np.arange(40) % 2]
        fs = [np.linspace(-1.0, 2.0, 40)]
        halves = [np.arange(20), np.arange(20, 40)]
        with mock.patch.object(
            kernels, "sorted_boundaries", wraps=kernels.sorted_boundaries
        ) as sort:
            up = _folded(lattice, fs, lineage, [keys], halves)
            up_bytes = _moment_bytes(up)
            assert sort.call_count == 0
            # The merge only appends; the sort runs once, at read-out.
            down = _folded(lattice, fs, lineage, [keys], halves[::-1])
            assert sort.call_count == 0
            down_bytes = _moment_bytes(down)
            assert sort.call_count == 1
        assert up_bytes == down_bytes
        assert up.n_entries == down.n_entries == 40

"""Multi-vector sketch bundles: one key table, k independent vectors.

A :class:`MomentSketchBundle` over k weight vectors must behave, per
vector, exactly like k one-vector bundles fed the same rows — and
merging bundles must commute with merging those.  The grouped bundle is
likewise pinned against the batch grouped estimator path, including
non-integer (string, float) group keys.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import (
    estimate_sums_grouped_multi,
    group_firsts,
    group_ids,
    grouped_theorem1_variance,
    unbiased_y_terms_grouped,
)
from repro.core.gus import bernoulli_gus
from repro.core.lattice import SubsetLattice
from repro.errors import EstimationError
from repro.stream.sketch import GroupedMomentBundle, MomentSketchBundle

DIMS = ("l", "o")


@st.composite
def batches(draw):
    n_dims = draw(st.integers(1, 2))
    n = draw(st.integers(0, 60))
    n_batches = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    f1 = rng.uniform(-3, 5, n)
    f2 = rng.uniform(0, 2, n)
    lineage = {d: rng.integers(0, 8, n).astype(np.int64) for d in DIMS[:n_dims]}
    assignment = rng.integers(0, n_batches, n)
    return n_dims, f1, f2, lineage, assignment, n_batches


class TestMomentSketchBundle:
    @given(batches())
    @settings(max_examples=60, deadline=None)
    def test_k_vector_bundle_equals_k_one_vector_bundles(self, case):
        n_dims, f1, f2, lineage, assignment, n_batches = case
        lattice = SubsetLattice(DIMS[:n_dims])
        bundle = MomentSketchBundle(lattice, 2)
        solo1, solo2 = MomentSketchBundle(lattice, 1), MomentSketchBundle(lattice, 1)
        for b in range(n_batches):
            idx = np.flatnonzero(assignment == b)
            part = {d: c[idx] for d, c in lineage.items()}
            bundle.update([f1[idx], f2[idx]], part)
            solo1.update([f1[idx]], part)
            solo2.update([f2[idx]], part)
        m1, m2 = bundle.moments()
        np.testing.assert_array_equal(m1, solo1.moments()[0])
        np.testing.assert_array_equal(m2, solo2.moments()[0])
        assert bundle.totals() == solo1.totals() + solo2.totals()
        assert bundle.n_rows == solo1.n_rows == solo2.n_rows
        assert bundle.n_groups == solo1.n_groups

    @given(batches())
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_single_pass(self, case):
        n_dims, f1, f2, lineage, assignment, n_batches = case
        lattice = SubsetLattice(DIMS[:n_dims])
        single = MomentSketchBundle(lattice, 2).update(
            [f1, f2], lineage
        ) if f1.size else MomentSketchBundle(lattice, 2)
        merged = MomentSketchBundle(lattice, 2)
        for b in range(n_batches):
            idx = np.flatnonzero(assignment == b)
            contrib = MomentSketchBundle(lattice, 2)
            contrib.update(
                [f1[idx], f2[idx]],
                {d: c[idx] for d, c in lineage.items()},
            )
            merged.merge(contrib)
        for got, want in zip(merged.moments(), single.moments()):
            np.testing.assert_allclose(got, want, rtol=1e-12)
        assert merged.n_rows == single.n_rows

    def test_shape_validation(self):
        lattice = SubsetLattice(["l"])
        with pytest.raises(EstimationError):
            MomentSketchBundle(lattice, 0)
        bundle = MomentSketchBundle(lattice, 2)
        with pytest.raises(EstimationError, match="2 weight vectors"):
            bundle.update([np.ones(3)], {"l": np.arange(3)})
        with pytest.raises(EstimationError, match="equal length"):
            bundle.update([np.ones(3), np.ones(2)], {"l": np.arange(3)})
        assert bundle.n_rows == 0
        with pytest.raises(EstimationError):
            bundle.merge(MomentSketchBundle(lattice, 3))
        with pytest.raises(EstimationError):
            bundle.merge(MomentSketchBundle(SubsetLattice(["o"]), 2))


#: Chunk boundaries per chunk count; the 7-chunk split has an empty
#: chunk (250..250) and a one-row one (100..101).
CHUNK_BOUNDS = {
    1: [0, 400],
    2: [0, 200, 400],
    7: [0, 13, 100, 101, 250, 250, 399, 400],
}


def _grouped_case(key_kind: str, fanout: bool):
    """400 rows keyed by ``key_kind`` columns; row 150's key is unique
    to it, so that group lives in exactly one chunk of any split.

    With ``fanout`` three consecutive rows share a lineage key (a join
    fan-out), so keys straddle chunk boundaries; ``f`` is then
    integer-valued, which keeps every partial sum exact whatever the
    split — the comparison stays bit for bit.
    """
    rng = np.random.default_rng(5)
    n = 400
    strings = np.array(["x", "y", "z"], dtype=object)[rng.integers(0, 3, n)]
    strings[150] = "w"
    ints = rng.integers(0, 3, n).astype(np.int32)
    ints[150] = 9
    group_cols = {
        "string": [strings],
        "int": [ints],
        "string_int": [strings, ints],
    }[key_kind]
    if fanout:
        f1 = rng.integers(-50, 50, n).astype(np.float64)
        lineage = {"l": np.arange(n, dtype=np.int64) // 3}
    else:
        f1 = rng.normal(size=n)
        lineage = {"l": np.arange(n, dtype=np.int64)}
    return group_cols, [f1, np.ones(n)], lineage


def _chunk_bundle(lattice, group_cols, fs, lineage, lo, hi):
    contrib = GroupedMomentBundle(lattice, len(group_cols), len(fs))
    return contrib.update(
        [f[lo:hi] for f in fs],
        {d: c[lo:hi] for d, c in lineage.items()},
        [c[lo:hi] for c in group_cols],
    )


def _fold(lattice, group_cols, fs, lineage, bounds):
    merged = GroupedMomentBundle(lattice, len(group_cols), len(fs))
    for lo, hi in zip(bounds, bounds[1:]):
        merged.merge(_chunk_bundle(lattice, group_cols, fs, lineage, lo, hi))
    return merged


class TestGroupedMomentBundle:
    @pytest.mark.parametrize("n_chunks", sorted(CHUNK_BOUNDS))
    @pytest.mark.parametrize("fanout", [False, True])
    @pytest.mark.parametrize("key_kind", ["string", "int", "string_int"])
    def test_chunks_equal_single_pass_bit_for_bit(self, key_kind, fanout, n_chunks):
        group_cols, fs, lineage = _grouped_case(key_kind, fanout)
        n = fs[0].shape[0]
        params = bernoulli_gus("l", 0.5)
        gids, n_groups = group_ids(group_cols, n)
        batch = estimate_sums_grouped_multi(
            params, fs, lineage, gids, n_groups, labels=["SUM", "COUNT"]
        )
        first = group_firsts(gids, n_groups, n)
        pruned = params.project_out_inactive()
        merged = _fold(pruned.lattice, group_cols, fs, lineage, CHUNK_BOUNDS[n_chunks])
        assert merged.n_rows == n
        group_keys, ys, totals, counts = merged.moments()
        for got, col in zip(group_keys, group_cols):
            assert got.tolist() == col[first].tolist()
        assert merged.groups()[2] == n_groups
        for j, want in enumerate(batch):
            np.testing.assert_array_equal(totals[j] / params.a, want.values)
            yhat = unbiased_y_terms_grouped(pruned, ys[j])
            np.testing.assert_array_equal(
                grouped_theorem1_variance(pruned, yhat), want.variance_raw
            )
        np.testing.assert_array_equal(counts, batch[0].n_samples)

    @pytest.mark.parametrize("key_kind", ["string", "int", "string_int"])
    def test_merge_order_gives_same_group_dictionary(self, key_kind):
        # The halves share "x"/"y"/"z" but only the first holds row
        # 150's group, so each side's dictionary misses a key or not
        # depending on the order — the union must not.
        group_cols, fs, lineage = _grouped_case(key_kind, fanout=True)
        lattice = SubsetLattice(["l"])

        def halves():
            return (
                _chunk_bundle(lattice, group_cols, fs, lineage, 0, 200),
                _chunk_bundle(lattice, group_cols, fs, lineage, 200, 400),
            )

        a, b = halves()
        ab = a.merge(b)
        a, b = halves()
        ba = b.merge(a)
        for got, want in zip(ab.groups()[0], ba.groups()[0]):
            assert got.tolist() == want.tolist()
        for got, want in zip(ab.moments()[1:], ba.moments()[1:]):
            np.testing.assert_array_equal(got, want)

    def test_group_dtype_rules(self):
        lattice = SubsetLattice(["l"])
        bundle = GroupedMomentBundle(lattice, 1, 1)
        bundle.update(
            [np.ones(3)],
            {"l": np.arange(3, dtype=np.int64)},
            [np.array([4, 5, 4], dtype=np.int32)],
        )
        assert bundle.groups()[0][0].dtype == np.int64
        with pytest.raises(EstimationError):
            GroupedMomentBundle(lattice, 0, 1)
        with pytest.raises(EstimationError):
            GroupedMomentBundle(lattice, 1, 0)
        with pytest.raises(EstimationError):
            bundle.update([np.ones(2)], {"l": np.arange(2)}, [])

"""Merge-equivalence of the moment sketch against the batch y-terms.

The central property: however a sample is split — into batches fed to
one sketch, or across several sketches merged afterwards, in any order
— the emitted ``(Y_S)`` vector equals the single-batch ``y_terms`` over
the concatenated rows.  Hypothesis drives the splits.  The sketch is the
one-vector :class:`MomentSketchBundle` the streaming tier holds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import y_terms
from repro.core.lattice import SubsetLattice
from repro.errors import EstimationError
from repro.stream import MomentSketchBundle

DIMS = ("l", "o")


def _sketch(dims, *batches):
    """A one-vector bundle over ``dims`` fed ``(f, lineage)`` batches."""
    sketch = MomentSketchBundle(SubsetLattice(dims), 1)
    for f, lineage in batches:
        sketch.update([f], lineage)
    return sketch


def _sample(rng, n, n_dims=2, key_span=6):
    f = rng.uniform(-3, 5, n)
    lineage = {d: rng.integers(0, key_span, n).astype(np.int64) for d in DIMS[:n_dims]}
    return f, lineage


def _take(f, lineage, idx):
    return f[idx], {d: c[idx] for d, c in lineage.items()}


@st.composite
def split_samples(draw):
    """A small sample plus a random partition of its rows into batches."""
    n_dims = draw(st.integers(1, 2))
    n = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**16))
    n_batches = draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    f, lineage = _sample(rng, n, n_dims=n_dims, key_span=draw(st.integers(1, 8)))
    assignment = rng.integers(0, n_batches, n)
    batches = [_take(f, lineage, np.flatnonzero(assignment == b)) for b in range(n_batches)]
    return f, lineage, batches


class TestMergeEquivalence:
    @given(split_samples())
    @settings(max_examples=80, deadline=None)
    def test_sequential_updates_equal_single_batch(self, data):
        f, lineage, batches = data
        sketch = _sketch(list(lineage), *batches)
        np.testing.assert_allclose(
            sketch.moments()[0], y_terms(f, lineage, sketch.lattice), rtol=1e-9, atol=1e-9
        )
        assert sketch.n_rows == f.shape[0]
        assert sketch.totals() == [pytest.approx(float(f.sum()), abs=1e-9)]

    @given(split_samples())
    @settings(max_examples=80, deadline=None)
    def test_merged_sketches_equal_single_batch(self, data):
        f, lineage, batches = data
        parts = [_sketch(list(lineage), batch) for batch in batches]
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        np.testing.assert_allclose(
            merged.moments()[0], y_terms(f, lineage, merged.lattice), rtol=1e-9, atol=1e-9
        )

    @given(split_samples())
    @settings(max_examples=40, deadline=None)
    def test_merge_order_irrelevant(self, data):
        f, lineage, batches = data
        parts = [_sketch(list(lineage), batch) for batch in batches]
        forward = parts[0].copy()
        for part in parts[1:]:
            forward.merge(part)
        backward = parts[-1].copy()
        for part in reversed(parts[:-1]):
            backward.merge(part)
        np.testing.assert_allclose(
            forward.moments()[0], backward.moments()[0], rtol=1e-9, atol=1e-9
        )
        assert forward.n_rows == backward.n_rows


class TestSketchBasics:
    def test_empty_sketch_moments_are_zero(self):
        sketch = _sketch(["l", "o"])
        np.testing.assert_array_equal(sketch.moments()[0], np.zeros(4))
        assert sketch.n_rows == 0
        assert sketch.n_groups == 0
        assert sketch.totals() == [0.0]

    def test_empty_batch_is_noop(self):
        sketch = _sketch(["l"], (np.ones(3), {"l": np.arange(3)}))
        before = sketch.moments()[0]
        sketch.update([np.empty(0)], {"l": np.empty(0, dtype=np.int64)})
        np.testing.assert_array_equal(sketch.moments()[0], before)
        assert sketch.n_rows == 3

    def test_state_compacts_repeated_keys(self):
        sketch = _sketch(["l"])
        rng = np.random.default_rng(0)
        for _ in range(10):
            sketch.update([rng.uniform(0, 1, 100)], {"l": rng.integers(0, 7, 100)})
        assert sketch.n_rows == 1000
        assert sketch.n_groups <= 7

    def test_missing_lineage_column_raises(self):
        with pytest.raises(EstimationError, match="missing"):
            _sketch(["l", "o"], (np.ones(2), {"l": np.arange(2)}))

    def test_shape_mismatch_raises(self):
        # Before the bundles shared one input check, a 4-id column beside
        # a 3-row ``f`` left 4 keys next to 3 sums, and a 2-d ``f`` passed.
        sketch = _sketch(["l"])
        with pytest.raises(EstimationError, match="shape"):
            sketch.update([np.ones(3)], {"l": np.arange(4)})
        with pytest.raises(EstimationError, match="shape"):
            sketch.update([np.ones(3)], {"l": np.arange(2)})
        with pytest.raises(EstimationError, match="1-d"):
            sketch.update([np.ones((2, 2))], {"l": np.arange(2)})
        assert (sketch.n_rows, sketch.n_groups) == (0, 0)

    @pytest.mark.parametrize("ids", [[1.5, 2.5], [1.0, 2.0], [True, False]])
    def test_non_integer_lineage_rejected_not_truncated(self, ids):
        # ``[1.5, 2.5]`` used to be read as the ids ``[1, 2]``.
        sketch = _sketch(["l"])
        with pytest.raises(EstimationError, match="non-integer dtype"):
            sketch.update([np.ones(2)], {"l": np.array(ids)})
        assert sketch.n_rows == 0

    def test_lattice_mismatch_rejected(self):
        with pytest.raises(EstimationError, match="different lattices"):
            _sketch(["l"]).merge(_sketch(["o"]))

    def test_copy_is_independent(self):
        sketch = _sketch(["l"], (np.ones(4), {"l": np.arange(4)}))
        dup = sketch.copy()
        dup.update([np.ones(4)], {"l": np.arange(4, 8)})
        dup.merge(_sketch(["l"], (np.ones(2), {"l": np.arange(2)})))
        assert sketch.n_rows == 4
        assert dup.n_rows == 10
        assert sketch.n_groups == 4
        assert dup.n_groups == 8
        assert sketch.totals() == [4.0]
        np.testing.assert_array_equal(sketch.moments()[0], [16.0, 4.0])

    def test_merge_returns_self_for_chaining(self):
        a = _sketch(["l"])
        b = _sketch(["l"], (np.ones(2), {"l": np.arange(2)}))
        assert a.merge(b) is a
        assert a.n_rows == 2

    def test_repr_mentions_state(self):
        sketch = _sketch(["l"], (np.ones(2), {"l": np.arange(2)}))
        assert "n_rows=2" in repr(sketch)

"""Unit and property tests for the subset-lattice machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lattice import (
    SubsetLattice,
    iter_submasks,
    kappa,
    mobius_subsets,
    popcount,
)
from repro.errors import LatticeError


class TestSubsetLattice:
    def test_dims_are_sorted_and_deduplicated(self):
        lat = SubsetLattice(["orders", "lineitem", "orders"])
        assert lat.dims == ("lineitem", "orders")
        assert lat.n == 2
        assert lat.size == 4
        assert lat.full_mask == 3

    def test_mask_roundtrip(self):
        lat = SubsetLattice(["a", "b", "c"])
        for mask in lat.masks():
            assert lat.mask_of(lat.set_of(mask)) == mask

    def test_mask_of_unknown_dim_raises(self):
        lat = SubsetLattice(["a"])
        with pytest.raises(LatticeError, match="not in lattice"):
            lat.mask_of(["zzz"])

    def test_set_of_out_of_range_raises(self):
        lat = SubsetLattice(["a"])
        with pytest.raises(LatticeError):
            lat.set_of(5)

    def test_too_many_dims_rejected(self):
        with pytest.raises(LatticeError, match="at most"):
            SubsetLattice(f"r{i}" for i in range(40))

    def test_equality_and_hash(self):
        assert SubsetLattice(["x", "y"]) == SubsetLattice(["y", "x"])
        assert hash(SubsetLattice(["x"])) == hash(SubsetLattice(["x"]))
        assert SubsetLattice(["x"]) != SubsetLattice(["y"])

    def test_masks_by_descending_size_starts_full_ends_empty(self):
        lat = SubsetLattice(["a", "b", "c"])
        order = lat.masks_by_descending_size()
        assert order[0] == lat.full_mask
        assert order[-1] == 0
        sizes = [popcount(m) for m in order]
        assert sizes == sorted(sizes, reverse=True)

    def test_embed_and_restrict(self):
        small = SubsetLattice(["a", "c"])
        big = SubsetLattice(["a", "b", "c"])
        m = small.mask_of(["a", "c"])
        assert big.set_of(big.embed_mask(small, m)) == {"a", "c"}
        assert big.set_of(big.restrict_mask(big.full_mask, ["b"])) == {"b"}

    def test_contains(self):
        assert SubsetLattice(["a", "b"]).contains(SubsetLattice(["a"]))
        assert not SubsetLattice(["a"]).contains(SubsetLattice(["a", "b"]))

    def test_empty_lattice(self):
        lat = SubsetLattice([])
        assert lat.size == 1
        assert lat.set_of(0) == frozenset()


class TestSubmaskIteration:
    def test_enumerates_all_submasks_once(self):
        mask = 0b1011
        subs = list(iter_submasks(mask))
        assert len(subs) == 2 ** popcount(mask)
        assert len(set(subs)) == len(subs)
        assert all(sub & ~mask == 0 for sub in subs)
        assert 0 in subs and mask in subs

    def test_zero_mask(self):
        assert list(iter_submasks(0)) == [0]


def _naive_zeta(vec, n):
    """The zeta transform ``out[S] = Σ_{T⊆S} vec[T]``, the Möbius
    transform's inverse, as the plain double sum."""
    out = np.zeros_like(vec)
    for s in range(1 << n):
        for t in range(1 << n):
            if t & ~s == 0:
                out[s] += vec[t]
    return out


class TestTransforms:
    def _naive_mobius_sub(self, vec, n):
        out = np.zeros_like(vec)
        for s in range(1 << n):
            for t in range(1 << n):
                if t & ~s == 0:
                    sign = (-1) ** (popcount(s) - popcount(t))
                    out[s] += sign * vec[t]
        return out

    @given(st.integers(0, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_mobius_inverts_naive_zeta(self, n, data):
        vec = np.array(
            data.draw(
                st.lists(
                    st.floats(-10, 10, allow_nan=False),
                    min_size=1 << n,
                    max_size=1 << n,
                )
            )
        )
        np.testing.assert_allclose(
            mobius_subsets(_naive_zeta(vec, n), n), vec, atol=1e-9
        )

    @given(st.integers(0, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_mobius_matches_naive(self, n, data):
        vec = np.array(
            data.draw(
                st.lists(
                    st.floats(-10, 10, allow_nan=False),
                    min_size=1 << n,
                    max_size=1 << n,
                )
            )
        )
        np.testing.assert_allclose(
            mobius_subsets(vec, n), self._naive_mobius_sub(vec, n), atol=1e-9
        )

    @given(st.integers(0, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_zeta_mobius_roundtrip(self, n, data):
        vec = np.array(
            data.draw(
                st.lists(
                    st.floats(-100, 100, allow_nan=False),
                    min_size=1 << n,
                    max_size=1 << n,
                )
            )
        )
        np.testing.assert_allclose(
            mobius_subsets(_naive_zeta(vec, n), n), vec, atol=1e-7
        )
        np.testing.assert_allclose(
            _naive_zeta(mobius_subsets(vec, n), n), vec, atol=1e-7
        )

    def test_transforms_do_not_mutate_input(self):
        for n in (3, 9):  # the matrix, the sweep
            vec = np.arange(1 << n, dtype=np.float64)
            copy = vec.copy()
            mobius_subsets(vec, n)
            np.testing.assert_array_equal(vec, copy)


class TestKappa:
    def test_kappa_empty_t_is_b_s(self):
        b = np.array([0.1, 0.2, 0.3, 0.4])
        assert kappa(b, 0b01, 0) == pytest.approx(0.2)
        assert kappa(b, 0b10, 0) == pytest.approx(0.3)

    def test_kappa_single_t(self):
        # kappa_{S,{d}} = b_{S+d} - b_S.
        b = np.array([0.1, 0.2, 0.3, 0.4])
        assert kappa(b, 0b01, 0b10) == pytest.approx(0.4 - 0.2)
        assert kappa(b, 0, 0b01) == pytest.approx(0.2 - 0.1)

    def test_kappa_two_element_t(self):
        b = np.array([0.1, 0.2, 0.3, 0.4])
        # kappa_{∅,{0,1}} = b11 - b01 - b10 + b00
        assert kappa(b, 0, 0b11) == pytest.approx(0.4 - 0.2 - 0.3 + 0.1)

    def test_overlapping_masks_rejected(self):
        b = np.ones(4)
        with pytest.raises(LatticeError, match="disjoint"):
            kappa(b, 0b01, 0b01)

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_kappa_sums_to_zeta_identity(self, n, data):
        """Σ_{T⊆Sᶜ} κ_{S,T} telescopes to b over the full complement."""
        size = 1 << n
        b = np.array(
            data.draw(
                st.lists(st.floats(0, 1), min_size=size, max_size=size)
            )
        )
        full = size - 1
        for s_mask in range(size):
            comp = full ^ s_mask
            total = sum(kappa(b, s_mask, t) for t in iter_submasks(comp))
            # Σ_T Σ_{U⊆T} (−1)^{|T|−|U|} b_{S∪U} = b_{S∪comp} = b_full
            assert total == pytest.approx(float(b[full]), abs=1e-9)


class TestMemoizedTransformMatrices:
    """The per-arity LRU matrices must agree exactly with the sweep."""

    @given(
        st.integers(0, 6),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matrix_matches_sweep(self, n, data):
        from repro.core.lattice import _sweep

        vec = np.array(
            data.draw(
                st.lists(
                    st.floats(-10.0, 10.0, allow_nan=False),
                    min_size=1 << n,
                    max_size=1 << n,
                )
            )
        )
        assert np.allclose(mobius_subsets(vec, n), _sweep(vec, n))

    def test_matrices_are_cached_per_arity(self):
        from repro.core.lattice import subset_transform_matrix

        subset_transform_matrix.cache_clear()
        vec = np.arange(16, dtype=np.float64)
        mobius_subsets(vec, 4)
        hits_before = subset_transform_matrix.cache_info().hits
        for _ in range(5):
            mobius_subsets(vec, 4)
        info = subset_transform_matrix.cache_info()
        assert info.hits >= hits_before + 5
        assert info.misses >= 1

    def test_cached_matrices_are_readonly(self):
        from repro.core.lattice import subset_transform_matrix

        matrix = subset_transform_matrix(3)
        with pytest.raises(ValueError):
            matrix[0, 0] = 99.0

    def test_large_arity_falls_back_to_sweep(self):
        from repro.core.lattice import MATRIX_MAX_DIMS

        n = MATRIX_MAX_DIMS + 1
        out = mobius_subsets(np.ones(1 << n), n)  # µ(1) = δ_∅
        assert out[0] == 1.0 and np.all(out[1:] == 0.0)

    def test_transforms_stay_mutual_inverses(self):
        rng = np.random.default_rng(0)
        for n in (1, 3, 5, 8):
            vec = rng.normal(size=1 << n)
            assert np.allclose(mobius_subsets(_naive_zeta(vec, n), n), vec)

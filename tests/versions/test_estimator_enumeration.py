"""Exact unbiasedness of the subset-sum and difference estimators.

Instead of simulating draws, these tests enumerate *every* coordinated
keep-subset ``S`` of a small key set with its exact probability
``p^|S| (1-p)^(n-|S|)`` and check three identities to float round-off:

* ``E[Δ̂] = Δ`` — the point estimate is unbiased;
* ``Var[Δ̂] = (1-p)/p · Σ g²`` — the closed form is the *actual*
  sampling variance, not an approximation;
* ``E[σ̂²] = Var[Δ̂]`` — the reported variance estimate is itself
  unbiased.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import (
    ClosedFormGroupedEstimates,
    difference_inputs,
    estimate_subset_sum,
    estimate_subset_sums_grouped,
)
from repro.errors import EstimationError

values = st.floats(-40.0, 40.0, allow_nan=False)
rates = st.floats(0.15, 0.95)


def subsets(n: int):
    for bits in range(1 << n):
        yield np.array(
            [(bits >> i) & 1 for i in range(n)], dtype=bool
        )


def enumerate_moments(g: np.ndarray, p: float):
    """``(E[X], Var[X], E[σ̂²])`` over every keep-subset of ``g``."""
    e_value = e_square = e_var = 0.0
    for mask in subsets(g.shape[0]):
        k = int(mask.sum())
        prob = p**k * (1.0 - p) ** (g.shape[0] - k)
        est = estimate_subset_sum(p, g[mask])
        e_value += prob * est.value
        e_square += prob * est.value**2
        e_var += prob * est.variance_raw
    return e_value, e_square - e_value**2, e_var


class TestSubsetSumByEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(values, min_size=1, max_size=5), rates)
    def test_value_and_variance_exact(self, g, p):
        g = np.asarray(g, dtype=np.float64)
        total = float(g.sum())
        true_var = (1.0 - p) / p * float(np.dot(g, g))
        e_value, var_enum, e_var = enumerate_moments(g, p)
        assert e_value == pytest.approx(total, rel=1e-9, abs=1e-7)
        assert var_enum == pytest.approx(true_var, rel=1e-8, abs=1e-6)
        assert e_var == pytest.approx(true_var, rel=1e-9, abs=1e-7)

    def test_rate_one_is_exact_with_zero_variance(self):
        g = np.array([3.0, -1.0, 4.0])
        est = estimate_subset_sum(1.0, g)
        assert est.value == pytest.approx(6.0)
        assert est.variance_raw == 0.0
        assert est.extras["nonzero"] == 3

    def test_invalid_rates_refused(self):
        for p in (0.0, -0.1, 1.5):
            with pytest.raises(EstimationError):
                estimate_subset_sum(p, np.array([1.0]))


class TestDifferenceByEnumeration:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(values, values), min_size=1, max_size=5),
        rates,
    )
    def test_coordinated_difference_exact(self, pairs, p):
        """Shared draws make the difference a single subset sum over
        the netted ``g = f_hi − f_lo``: unchanged keys cancel exactly
        and only changed keys contribute variance."""
        hi = np.array([a for a, _ in pairs], dtype=np.float64)
        lo = np.array([b for _, b in pairs], dtype=np.float64)
        keys = np.arange(len(pairs), dtype=np.int64)
        delta = float(hi.sum() - lo.sum())
        g = hi - lo
        true_var = (1.0 - p) / p * float(np.dot(g, g))
        e_value = e_square = e_var = 0.0
        for mask in subsets(len(pairs)):
            k = int(mask.sum())
            prob = p**k * (1.0 - p) ** (len(pairs) - k)
            _, gs = difference_inputs(
                [keys[mask]], [hi[mask]], [keys[mask]], [lo[mask]]
            )
            est = estimate_subset_sum(p, gs[0])
            e_value += prob * est.value
            e_square += prob * est.value**2
            e_var += prob * est.variance_raw
        assert e_value == pytest.approx(delta, rel=1e-9, abs=1e-7)
        assert e_square - e_value**2 == pytest.approx(
            true_var, rel=1e-8, abs=1e-6
        )
        assert e_var == pytest.approx(true_var, rel=1e-9, abs=1e-7)

    def test_unchanged_keys_contribute_no_variance(self):
        keys = np.arange(4, dtype=np.int64)
        hi = np.array([1.0, 2.0, 3.0, 9.0])
        lo = np.array([1.0, 2.0, 3.0, 4.0])
        _, gs = difference_inputs([keys], [hi], [keys], [lo])
        est = estimate_subset_sum(0.5, gs[0])
        assert est.value == pytest.approx((9.0 - 4.0) / 0.5)
        # Only the one changed key feeds σ̂²: (1-p)/p² · 5².
        assert est.variance_raw == pytest.approx(0.5 / 0.25 * 25.0)
        assert est.extras["nonzero"] == 1


class TestDifferenceInputs:
    def test_asymmetric_keys_net_with_signs(self):
        hi_keys = np.array([1, 2, 3], dtype=np.int64)
        lo_keys = np.array([2, 3, 4], dtype=np.int64)
        keys, (g,) = difference_inputs(
            [hi_keys],
            [np.array([1.0, 2.0, 3.0])],
            [lo_keys],
            [np.array([5.0, 3.0, 7.0])],
        )
        np.testing.assert_array_equal(keys[0], [1, 2, 3, 4])
        np.testing.assert_allclose(g, [1.0, -3.0, 0.0, -7.0])

    def test_mismatched_key_arity_refused(self):
        one_key = [np.array([1], dtype=np.int64)]
        f = [np.array([1.0])]
        with pytest.raises(EstimationError):
            difference_inputs(one_key + one_key, f, one_key, f)
        with pytest.raises(EstimationError):
            difference_inputs(one_key, f + f, one_key, f)


class TestGroupedSubsetSums:
    def test_matches_per_group_scalar_estimator(self):
        p = 0.4
        g = np.array([1.0, -2.0, 3.0, 0.5, -1.5])
        gids = np.array([0, 0, 1, 1, 1], dtype=np.int64)
        grouped = estimate_subset_sums_grouped(p, g, gids, 2)
        assert isinstance(grouped, ClosedFormGroupedEstimates)
        for gid in (0, 1):
            scalar = estimate_subset_sum(p, g[gids == gid])
            assert grouped.values[gid] == pytest.approx(scalar.value)
            assert grouped.variance_raw[gid] == pytest.approx(
                scalar.variance_raw
            )
            assert grouped.n_samples[gid] == scalar.n_sample

    def test_singleton_groups_keep_finite_intervals(self):
        """Closed-form per-key variance needs no pairs, so a segment
        observed through one key still gets an honest interval — unlike
        the spread-based grouped estimator, which must return NaN."""
        grouped = estimate_subset_sums_grouped(
            0.5,
            np.array([2.0]),
            np.array([0], dtype=np.int64),
            2,
        )
        lo, hi = grouped.ci_bounds(0.95)
        assert np.isfinite(lo[0]) and np.isfinite(hi[0])
        # The allocated-but-never-observed segment stays NaN.
        assert np.isnan(lo[1]) and np.isnan(hi[1])

    def test_group_id_validation(self):
        with pytest.raises(EstimationError):
            estimate_subset_sums_grouped(
                0.5,
                np.array([1.0]),
                np.array([5], dtype=np.int64),
                2,
            )
        with pytest.raises(EstimationError):
            estimate_subset_sums_grouped(
                0.5,
                np.array([1.0, 2.0]),
                np.array([0], dtype=np.int64),
                2,
            )

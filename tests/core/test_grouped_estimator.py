"""The vectorized grouped estimator against oracles and its scalar twin.

Three independent ground truths pin the grouped path down:

* the slow dict-based per-group oracle in :mod:`tests.reference`;
* the scalar :func:`~repro.core.estimator.estimate_sum` applied to each
  group's rows separately (restricting a GUS to a data-defined subset
  leaves its parameters unchanged, so the numbers must agree);
* Hypothesis properties — a single-group table must match the
  ungrouped estimator bit-for-bit, and estimates must be invariant
  under row-order permutations.

The bit-for-bit cases draw integer ``f`` values and dyadic sampling
rates so every intermediate quantity is exactly representable: any
difference between code paths is then a real divergence, not float
noise.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algebra import join_gus
from repro.core.estimator import (
    GroupedEstimates,
    estimate_sum,
    group_ids,
    unbiased_y_terms_grouped,
)
from repro.core.gus import bernoulli_gus, without_replacement_gus
from repro.errors import EstimationError
from repro.stats.delta import ratio_estimate, ratio_estimates_grouped
from tests.reference import (
    covariance_estimate,
    estimate_sums_grouped,
    grouped_covariance_estimate,
    grouped_y_terms,
    ref_grouped_estimates,
)

GUS_CASES = {
    "bernoulli": bernoulli_gus("r1", 0.5),
    "wor": without_replacement_gus("r1", 4, 9),
    "join": join_gus(
        bernoulli_gus("r1", 0.5), without_replacement_gus("r2", 5, 8)
    ),
    "three-way": join_gus(
        join_gus(bernoulli_gus("r1", 0.5), bernoulli_gus("r2", 0.25)),
        without_replacement_gus("r3", 3, 7),
    ),
}

#: Dyadic rates keep every product/quotient exactly representable.
_DYADIC_RATES = (0.25, 0.5, 0.75)

#: Stable per-case RNG seeds (``hash(str)`` varies across processes).
_SEEDS = {name: i * 101 + 7 for i, name in enumerate(sorted(GUS_CASES))}


def _random_sample(rng, n, dims, n_group_values=5):
    f = rng.integers(-6, 10, n).astype(np.float64)
    lineage = {d: rng.integers(0, 7, n).astype(np.int64) for d in dims}
    group_col = rng.integers(0, n_group_values, n).astype(np.int64)
    return f, lineage, group_col


class TestAgainstBruteForceOracle:
    @pytest.mark.parametrize("name", sorted(GUS_CASES))
    def test_matches_dict_oracle(self, name):
        gus = GUS_CASES[name]
        rng = np.random.default_rng(_SEEDS[name])
        dims = list(gus.lattice.dims)
        f, lineage, group_col = _random_sample(rng, 120, dims)
        gids, n_groups = group_ids([group_col], 120)
        got = estimate_sums_grouped(gus, f, lineage, gids, n_groups)

        rows = [
            (
                int(group_col[i]),
                {d: int(lineage[d][i]) for d in dims},
                float(f[i]),
            )
            for i in range(120)
        ]
        expected = ref_grouped_estimates(
            gus.a, gus.b_items(), dims, rows
        )
        # group_ids orders groups by sorted key, so group g's key is the
        # g-th smallest distinct value.
        ordered_keys = sorted(expected)
        assert len(ordered_keys) == n_groups
        for g, key in enumerate(ordered_keys):
            value, variance, n = expected[key]
            assert got.values[g] == pytest.approx(value, rel=1e-12)
            assert got.variance_raw[g] == pytest.approx(
                variance, rel=1e-9, abs=1e-9
            )
            assert got.n_samples[g] == n

    @pytest.mark.parametrize("name", sorted(GUS_CASES))
    def test_matches_per_group_scalar_estimator(self, name):
        gus = GUS_CASES[name]
        rng = np.random.default_rng(1 + _SEEDS[name])
        dims = list(gus.lattice.dims)
        f, lineage, group_col = _random_sample(rng, 200, dims)
        gids, n_groups = group_ids([group_col], 200)
        got = estimate_sums_grouped(gus, f, lineage, gids, n_groups)
        for g in range(n_groups):
            mask = gids == g
            ref = estimate_sum(
                gus, f[mask], {d: c[mask] for d, c in lineage.items()}
            )
            est = got.estimate(g)
            # f is integral so the scaled totals are exact; the variance
            # recursion divides by non-dyadic b values for the WOR
            # cases, where only op-order-level agreement is guaranteed.
            assert est.value == ref.value
            assert est.variance_raw == pytest.approx(
                ref.variance_raw, rel=1e-12, abs=1e-12
            )
            assert est.n_sample == ref.n_sample


@st.composite
def _exact_world(draw, max_rows=14):
    """Integer f values, small lineage, dyadic Bernoulli rates."""
    n = draw(st.integers(1, max_rows))
    f = np.array(
        draw(
            st.lists(st.integers(-8, 8), min_size=n, max_size=n)
        ),
        dtype=np.float64,
    )
    lin1 = np.array(
        draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    lin2 = np.array(
        draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    p1 = draw(st.sampled_from(_DYADIC_RATES))
    p2 = draw(st.sampled_from(_DYADIC_RATES))
    gus = join_gus(bernoulli_gus("r1", p1), bernoulli_gus("r2", p2))
    return gus, f, {"r1": lin1, "r2": lin2}


class TestSingleGroupBitForBit:
    @given(_exact_world())
    @settings(max_examples=120, deadline=None)
    def test_equals_ungrouped_estimator(self, world):
        """Satellite (a): one group ⇒ the grouped machinery IS the
        ungrouped estimator, to the last bit."""
        gus, f, lineage = world
        n = f.shape[0]
        gids = np.zeros(n, dtype=np.int64)
        grouped = estimate_sums_grouped(gus, f, lineage, gids, 1)
        ungrouped = estimate_sum(gus, f, lineage)
        est = grouped.estimate(0)
        assert est.value == ungrouped.value
        assert est.variance_raw == ungrouped.variance_raw
        assert est.n_sample == ungrouped.n_sample

    @given(_exact_world())
    @settings(max_examples=60, deadline=None)
    def test_single_group_avg_matches_scalar_delta(self, world):
        gus, f, lineage = world
        n = f.shape[0]
        gids = np.zeros(n, dtype=np.int64)
        ones = np.ones(n)
        num = estimate_sums_grouped(gus, f, lineage, gids, 1)
        den = estimate_sums_grouped(gus, ones, lineage, gids, 1)
        cov = grouped_covariance_estimate(gus, f, ones, lineage, gids, 1)
        grouped = ratio_estimates_grouped(num, den, cov)
        scalar = ratio_estimate(
            estimate_sum(gus, f, lineage),
            estimate_sum(gus, ones, lineage),
            covariance_estimate(gus, f, ones, lineage),
        )
        assert grouped.estimate(0).value == scalar.value
        assert grouped.estimate(0).variance_raw == scalar.variance_raw


class TestPermutationInvariance:
    @given(_exact_world(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_row_order_does_not_matter(self, world, rand):
        """Satellite (b): shuffling the sample rows leaves every group
        estimate bit-for-bit unchanged (exact-arithmetic inputs)."""
        gus, f, lineage = world
        n = f.shape[0]
        group_col = np.array(
            [rand.randrange(3) for _ in range(n)], dtype=np.int64
        )
        perm = np.array(rand.sample(range(n), n), dtype=np.int64)

        gids, n_groups = group_ids([group_col], n)
        base = estimate_sums_grouped(gus, f, lineage, gids, n_groups)

        gids_p, n_groups_p = group_ids([group_col[perm]], n)
        shuffled = estimate_sums_grouped(
            gus,
            f[perm],
            {d: c[perm] for d, c in lineage.items()},
            gids_p,
            n_groups_p,
        )
        assert n_groups_p == n_groups
        np.testing.assert_array_equal(shuffled.values, base.values)
        np.testing.assert_array_equal(
            shuffled.variance_raw, base.variance_raw
        )
        np.testing.assert_array_equal(shuffled.n_samples, base.n_samples)


class TestHardEdges:
    def test_singleton_group_gets_nan_interval(self):
        gus = bernoulli_gus("r1", 0.5)
        f = np.array([3.0, 1.0, 2.0, 5.0])
        lineage = {"r1": np.array([0, 1, 2, 3], dtype=np.int64)}
        gids = np.array([0, 1, 1, 1], dtype=np.int64)  # group 0 singleton
        est = estimate_sums_grouped(gus, f, lineage, gids, 2)
        assert est.singleton.tolist() == [True, False]
        lo, hi = est.ci_bounds(0.95)
        assert np.isnan(lo[0]) and np.isnan(hi[0])
        assert np.isfinite(lo[1]) and np.isfinite(hi[1])
        # Quantiles obey the same NaN policy as intervals.
        q = est.quantile(0.9)
        assert np.isnan(q[0]) and np.isfinite(q[1])
        # The raw estimate object is untouched — same as ungrouped.
        scalar = estimate_sum(
            gus, f[:1], {"r1": lineage["r1"][:1]}
        )
        assert est.estimate(0).value == scalar.value
        assert est.estimate(0).variance_raw == scalar.variance_raw

    def test_group_missing_from_sample_estimates_zero(self):
        """A group id allocated but never observed estimates 0 with zero
        variance — the estimator cannot invent evidence (the SQL layer
        additionally drops such groups from its output entirely)."""
        gus = bernoulli_gus("r1", 0.5)
        f = np.array([3.0, 1.0])
        lineage = {"r1": np.array([0, 1], dtype=np.int64)}
        gids = np.array([0, 0], dtype=np.int64)
        est = estimate_sums_grouped(gus, f, lineage, gids, 3)
        assert est.values.tolist() == [8.0, 0.0, 0.0]
        assert est.n_samples.tolist() == [2, 0, 0]
        assert est.variance_raw[1] == est.variance_raw[2] == 0.0
        # No confident zero-width [0, 0] intervals for unseen groups.
        lo, hi = est.ci_bounds(0.95)
        assert np.isfinite(lo[0]) and np.isfinite(hi[0])
        assert np.isnan(lo[1]) and np.isnan(hi[2])

    def test_empty_sample(self):
        gus = bernoulli_gus("r1", 0.5)
        est = estimate_sums_grouped(
            gus,
            np.empty(0),
            {"r1": np.empty(0, dtype=np.int64)},
            np.empty(0, dtype=np.int64),
            0,
        )
        assert est.n_groups == 0
        assert list(est) == []

    def test_gid_range_validated(self):
        gus = bernoulli_gus("r1", 0.5)
        f = np.ones(3)
        lineage = {"r1": np.arange(3, dtype=np.int64)}
        with pytest.raises(EstimationError, match="group ids must lie"):
            estimate_sums_grouped(
                gus, f, lineage, np.array([0, 1, 5]), 2
            )
        with pytest.raises(EstimationError, match="group ids have shape"):
            estimate_sums_grouped(
                gus, f, lineage, np.array([0, 1]), 2
            )

    def test_null_sampling_rejected(self):
        from repro.core.gus import null_gus

        with pytest.raises(EstimationError, match="a = 0"):
            estimate_sums_grouped(
                null_gus(["r1"]),
                np.ones(1),
                {"r1": np.zeros(1, dtype=np.int64)},
                np.zeros(1, dtype=np.int64),
                1,
            )

    def test_moment_matrix_shape_validated(self):
        gus = bernoulli_gus("r1", 0.5)
        with pytest.raises(EstimationError, match="moment matrix"):
            unbiased_y_terms_grouped(gus, np.zeros((2, 3)))

    def test_ratio_rejects_zero_denominator(self):
        dummy = GroupedEstimates(
            values=np.array([1.0]),
            variance_raw=np.array([0.1]),
            n_samples=np.array([2]),
        )
        zero = GroupedEstimates(
            values=np.array([0.0]),
            variance_raw=np.array([0.0]),
            n_samples=np.array([0]),
        )
        with pytest.raises(EstimationError, match="denominator"):
            ratio_estimates_grouped(dummy, zero, np.array([0.0]))

    def test_parallel_array_shapes_validated(self):
        with pytest.raises(EstimationError, match="parallel"):
            GroupedEstimates(
                values=np.array([1.0, 2.0]),
                variance_raw=np.array([0.1]),
                n_samples=np.array([2, 3]),
            )


class TestGroupedEstimatesContainer:
    def _bundle(self):
        gus = GUS_CASES["join"]
        rng = np.random.default_rng(9)
        dims = list(gus.lattice.dims)
        f, lineage, group_col = _random_sample(rng, 150, dims)
        gids, n_groups = group_ids([group_col], 150)
        return estimate_sums_grouped(gus, f, lineage, gids, n_groups)

    def test_take_filters_groups(self):
        est = self._bundle()
        picked = np.array([0, 2])
        sub = est.take(picked)
        assert sub.n_groups == 2
        assert sub.values[0] == est.values[0]
        assert sub.values[1] == est.values[2]
        assert sub.label == est.label

    def test_iteration_yields_scalar_estimates(self):
        est = self._bundle()
        scalars = list(est)
        assert len(scalars) == est.n_groups == len(est)
        for g, s in enumerate(scalars):
            assert s.value == est.values[g]
            assert s.n_sample == est.n_samples[g]

    def test_quantiles_bracket_the_estimate(self):
        est = self._bundle()
        lo_q = est.quantile(0.05)
        hi_q = est.quantile(0.95)
        spread = est.std > 0
        assert np.all(lo_q[spread] < est.values[spread])
        assert np.all(hi_q[spread] > est.values[spread])

    def test_clamped_variance_property(self):
        est = GroupedEstimates(
            values=np.array([1.0, 2.0]),
            variance_raw=np.array([-0.5, 0.5]),
            n_samples=np.array([3, 3]),
        )
        assert est.clamped.tolist() == [True, False]
        assert est.variance.tolist() == [0.0, 0.5]
        assert est.std[0] == 0.0


class TestPackedKeyEdges:
    """The packed-key sort must handle full-range integer ids, which
    the lexsort path it replaced accepted (uint64 hashes, wide int64
    spans)."""

    def test_uint64_ids_above_int64_range(self):
        ids = np.array(
            [2**63 + 5, 2**63, 2**63 + 5, 2**63 + 1], dtype=np.uint64
        )
        gids, n = group_ids([ids], 4)
        assert n == 3
        assert gids[0] == gids[2]

    def test_int64_span_crossing_two_to_the_62(self):
        ids = np.array([-(2**62), 2**62, -(2**62), 0], dtype=np.int64)
        gids, n = group_ids([ids], 4)
        assert n == 3
        assert gids[0] == gids[2]
        # Ascending group ids follow ascending key order.
        assert gids.tolist() == [0, 2, 0, 1]

    def test_wide_columns_fall_back_to_lexsort(self):
        a = np.array([0, 2**62, 0], dtype=np.int64)
        b = np.array([2**62, 0, 2**62], dtype=np.int64)
        gids, n = group_ids([a, b], 3)
        assert n == 2
        assert gids[0] == gids[2] != gids[1]


class TestGroupedMomentsDirect:
    def test_moment_matrix_rows_match_ungrouped_vectors(self):
        from repro.core.estimator import y_terms

        gus = GUS_CASES["join"]
        pruned = gus.project_out_inactive()
        rng = np.random.default_rng(4)
        dims = list(pruned.lattice.dims)
        f, lineage, group_col = _random_sample(rng, 90, dims)
        gids, n_groups = group_ids([group_col], 90)
        matrix = grouped_y_terms(f, lineage, pruned.lattice, gids, n_groups)
        assert matrix.shape == (n_groups, pruned.lattice.size)
        for g in range(n_groups):
            mask = gids == g
            vec = y_terms(
                f[mask],
                {d: c[mask] for d, c in lineage.items()},
                pruned.lattice,
            )
            np.testing.assert_array_equal(matrix[g], vec)


class TestOnePassAcrossGroups:
    """The grouped estimate is one vectorized pass, whatever the groups.

    Counted, not timed: every Python and C function call (numpy's and
    the kernels' included) made by one :func:`estimate_sums_grouped`
    call.  A per-group loop anywhere in the compaction, the moment
    matrices or the unbiasing adds calls per group.  The inputs keep
    every data-dependent branch the same at both group counts: each
    row appears twice (no compaction is the identity), and the lineage
    keys are wide enough that every packed key takes the same number
    of 16-bit radix passes at 10 and at 1 000 groups.
    """

    @staticmethod
    def _calls(n_groups: int, n: int = 5_000) -> int:
        rng = np.random.default_rng(0)
        f = np.tile(rng.uniform(0.0, 10.0, n), 2)
        lineage = {
            "l": np.tile(rng.integers(0, 1 << 20, n), 2),
            "o": np.tile(rng.integers(0, 1 << 16, n), 2),
        }
        groups = np.tile(rng.permutation(np.arange(n) % n_groups), 2)
        gus = join_gus(bernoulli_gus("l", 0.1), bernoulli_gus("o", 0.5))
        gids, n_out = group_ids([groups], 2 * n)
        assert n_out == n_groups
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event in ("call", "c_call")

        sys.setprofile(count)
        try:
            estimate_sums_grouped(gus, f, lineage, gids, n_out)
        finally:
            sys.setprofile(None)
        return calls

    def test_call_count_does_not_grow_with_the_groups(self):
        self._calls(10)  # first-use caches (lattice transforms) filled
        assert self._calls(1_000) == self._calls(10)

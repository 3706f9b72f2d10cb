"""Tests for the delta method, covariance polarization, and moments."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import Estimate, estimate_sum
from repro.core.gus import bernoulli_gus
from repro.errors import EstimationError
from repro.stats import RunningMoments, ratio_estimate

from tests.enumeration import JoinedWorld, bernoulli_outcomes
from tests.reference import covariance_estimate


class TestCovariancePolarization:
    def test_exact_covariance_by_enumeration(self):
        """E[ĉov] should equal the true Cov(X_f, X_g)."""
        values_f = [2.0, -1.0, 3.0]
        values_g = [1.0, 4.0, -2.0]
        p = 0.6
        g = bernoulli_gus("r", p)
        rows = [({"r": i}, values_f[i]) for i in range(3)]
        world = JoinedWorld(rows, {"r": list(bernoulli_outcomes(range(3), p))})

        # True covariance: for Bernoulli, Cov = Σ f·g (1−p)/p.
        true_cov = (1 - p) / p * float(
            np.dot(np.array(values_f), np.array(values_g))
        )

        f_arr = np.array(values_f)
        g_arr = np.array(values_g)

        def statistic(f_sample, lineage):
            # Reconstruct both aggregates' values on the sample rows.
            idx = lineage["r"]
            return np.array(
                [
                    covariance_estimate(
                        g, f_arr[idx], g_arr[idx], {"r": idx}
                    )
                ]
            )

        expected = world.expected_statistic(statistic)[0]
        assert expected == pytest.approx(true_cov, rel=1e-9)

    def test_self_covariance_is_variance(self):
        rng = np.random.default_rng(0)
        f = rng.uniform(0, 5, 100)
        g = bernoulli_gus("r", 0.4)
        lineage = {"r": np.arange(100, dtype=np.int64)}
        cov = covariance_estimate(g, f, f, lineage)
        var = estimate_sum(g, f, lineage).variance_raw
        assert cov == pytest.approx(var, rel=1e-9)


class TestRatioEstimate:
    def test_delta_formula(self):
        num = Estimate(value=100.0, variance_raw=16.0, n_sample=50)
        den = Estimate(value=20.0, variance_raw=4.0, n_sample=50)
        cov = 2.0
        est = ratio_estimate(num, den, cov)
        assert est.value == pytest.approx(5.0)
        expected_var = (
            16.0 / 20.0**2
            - 2 * 100.0 * 2.0 / 20.0**3
            + 100.0**2 * 4.0 / 20.0**4
        )
        assert est.variance_raw == pytest.approx(expected_var)

    def test_zero_denominator_rejected(self):
        num = Estimate(1.0, 1.0, 5)
        den = Estimate(0.0, 1.0, 5)
        with pytest.raises(EstimationError, match="denominator"):
            ratio_estimate(num, den, 0.0)

    def test_perfectly_correlated_ratio_has_zero_variance(self):
        """If numerator = c · denominator exactly, the ratio is
        deterministic and the delta variance vanishes."""
        var_d = 9.0
        c = 3.0
        den = Estimate(10.0, var_d, 5)
        num = Estimate(30.0, c * c * var_d, 5)
        est = ratio_estimate(num, den, c * var_d)
        assert est.variance_raw == pytest.approx(0.0, abs=1e-12)


class TestRunningMoments:
    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        data = rng.normal(3.0, 2.0, 1000)
        rm = RunningMoments()
        rm.extend(data)
        assert rm.count == 1000
        assert rm.mean == pytest.approx(float(data.mean()))
        assert rm.variance == pytest.approx(float(data.var()))
        assert rm.sample_variance == pytest.approx(float(data.var(ddof=1)))
        assert rm.std == pytest.approx(float(data.std()))

    def test_empty_and_single(self):
        rm = RunningMoments()
        assert np.isnan(rm.variance)
        rm.add(5.0)
        assert rm.mean == 5.0
        assert rm.variance == 0.0
        assert np.isnan(rm.sample_variance)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_property_matches_numpy(self, values):
        rm = RunningMoments()
        rm.extend(values)
        arr = np.array(values)
        assert rm.mean == pytest.approx(float(arr.mean()), rel=1e-9, abs=1e-6)
        assert rm.variance == pytest.approx(
            float(arr.var()), rel=1e-6, abs=1e-6
        )

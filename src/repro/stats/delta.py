"""Delta-method estimation for AVERAGE (a ratio of SUM-like aggregates).

The paper's theory is exact for SUM-like aggregates; AVG = SUM/COUNT is
non-linear, and Section 9 points to the delta method.  First-order
expansion of ``g(s, c) = s/c`` around the means gives

    ``Var(S/C) ≈ Var(S)/µ_C² − 2·µ_S·Cov(S,C)/µ_C³ + µ_S²·Var(C)/µ_C⁴``

The covariance of two SUM-like estimators under the same GUS follows by
**polarization** from three variance estimates — all machinery that is
already exact and unbiased:

    ``Cov(X_f, X_g) = (Var(X_{f+g}) − Var(X_f) − Var(X_g)) / 2``
"""

from __future__ import annotations

import numpy as np

from repro.core.estimator import Estimate, GroupedEstimates
from repro.errors import EstimationError


def ratio_estimate(
    numerator: Estimate,
    denominator: Estimate,
    covariance: float,
    *,
    label: str = "AVG",
) -> Estimate:
    """Delta-method estimate of ``numerator / denominator``."""
    if denominator.value == 0.0:
        raise EstimationError(
            "cannot form a ratio estimate: the denominator (COUNT) "
            "estimate is zero — the sample is empty"
        )
    mu_s, mu_c = numerator.value, denominator.value
    ratio = mu_s / mu_c
    # Explicit products, not ** — libm pow and numpy's vectorized power
    # can differ in the last ulp, and the grouped twin of this formula
    # must agree bit-for-bit on exact-arithmetic inputs.
    mu_c2 = mu_c * mu_c
    var = (
        numerator.variance_raw / mu_c2
        - 2.0 * mu_s * covariance / (mu_c2 * mu_c)
        + mu_s * mu_s * denominator.variance_raw / (mu_c2 * mu_c2)
    )
    return Estimate(
        value=ratio,
        variance_raw=var,
        n_sample=numerator.n_sample,
        label=label,
        extras={
            "method": "delta",
            "numerator": numerator.value,
            "denominator": denominator.value,
            "covariance": covariance,
        },
    )


def ratio_estimates_grouped(
    numerator: GroupedEstimates,
    denominator: GroupedEstimates,
    covariance: np.ndarray,
    *,
    label: str = "AVG",
) -> GroupedEstimates:
    """Delta-method per-group ratio, vectorized over groups.

    Every group present in the output was observed through at least one
    sample row, so its COUNT estimate is strictly positive; a zero
    denominator indicates the caller passed groups the sample never saw
    and is rejected rather than silently emitting infinities.
    """
    covariance = np.asarray(covariance, dtype=np.float64)
    mu_s, mu_c = numerator.values, denominator.values
    if np.any(mu_c == 0.0):
        raise EstimationError(
            "cannot form per-group ratio estimates: some denominator "
            "(COUNT) estimate is zero — those groups have no sample rows"
        )
    ratio = mu_s / mu_c
    mu_c2 = mu_c * mu_c
    var = (
        numerator.variance_raw / mu_c2
        - 2.0 * mu_s * covariance / (mu_c2 * mu_c)
        + mu_s * mu_s * denominator.variance_raw / (mu_c2 * mu_c2)
    )
    return GroupedEstimates(
        values=ratio,
        variance_raw=var,
        n_samples=numerator.n_samples,
        label=label,
        extras={"method": "delta"},
    )

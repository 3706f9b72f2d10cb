"""Classical single-relation estimators (survey-sampling theory).

These are the formulas the paper's Related Work credits to the earliest
database sampling literature.  They only apply to a single sampled
relation — precisely the limitation the GUS algebra removes — and they
serve the tests as a correctness cross-check: GUS must reduce to them
in the single-table case.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimator import Estimate
from repro.errors import EstimationError


def clt_bernoulli_estimate(sample_values: np.ndarray, p: float) -> Estimate:
    """Horvitz–Thompson total under Bernoulli(p) with plug-in variance.

    ``X = Σ f / p``; ``Var[X] = (1−p)/p · Σ_pop f²`` whose unbiased
    plug-in from the sample is ``(1−p)/p² · Σ_sample f²``.
    """
    if not 0.0 < p <= 1.0:
        raise EstimationError(f"Bernoulli rate {p} must be in (0, 1]")
    f = np.asarray(sample_values, dtype=np.float64)
    total = float(f.sum()) / p
    var = (1.0 - p) / (p * p) * float(np.dot(f, f))
    return Estimate(
        value=total,
        variance_raw=var,
        n_sample=int(f.shape[0]),
        label="CLT-Bernoulli",
    )


def clt_wor_estimate(
    sample_values: np.ndarray, population_size: int
) -> Estimate:
    """Expansion estimator for SRSWOR with the textbook variance.

    ``X = N·ȳ``; ``V̂ar[X] = N²(1−n/N)·s²/n`` with ``s²`` the sample
    variance (Bessel-corrected).
    """
    f = np.asarray(sample_values, dtype=np.float64)
    n = int(f.shape[0])
    if n == 0:
        return Estimate(0.0, 0.0, 0, label="CLT-WOR")
    if population_size < n:
        raise EstimationError(
            f"population {population_size} smaller than sample {n}"
        )
    mean = float(f.mean())
    total = population_size * mean
    if n == 1:
        # No within-sample variance information.
        return Estimate(total, float("nan"), 1, label="CLT-WOR")
    s2 = float(f.var(ddof=1))
    var = (
        population_size**2 * (1.0 - n / population_size) * s2 / n
    )
    return Estimate(
        value=total, variance_raw=var, n_sample=n, label="CLT-WOR"
    )

"""AQUA-style star-schema estimation.

AQUA (Bell Labs) samples the *fact* table and joins every sampled fact
tuple with its (complete) dimension tables.  Because each fact tuple
yields an independent unit, the per-fact totals are an IID-style sample
and classical theory applies.  In GUS terms this is the special case of
a join where only one input carries a non-identity GUS — so the GUS
estimator must coincide, which the tests verify.
"""

from __future__ import annotations

import numpy as np

from tests.baselines.clt_single_table import (
    clt_bernoulli_estimate,
    clt_wor_estimate,
)
from repro.core.estimator import Estimate, group_ids
from repro.errors import EstimationError


def per_fact_totals(
    f: np.ndarray, fact_lineage: np.ndarray
) -> np.ndarray:
    """Collapse joined result rows to per-fact-tuple aggregate totals."""
    f = np.asarray(f, dtype=np.float64)
    gids, n_groups = group_ids([np.asarray(fact_lineage)], f.shape[0])
    if n_groups == 0:
        return np.empty(0, dtype=np.float64)
    return np.bincount(gids, weights=f, minlength=n_groups)


def aqua_estimate(
    f: np.ndarray,
    fact_lineage: np.ndarray,
    *,
    method: str,
    fact_table_size: int,
    rate: float | None = None,
    sample_size: int | None = None,
    fact_sample_count: int | None = None,
) -> Estimate:
    """AQUA estimate of ``Σ f`` over a star join with a sampled fact table.

    ``f``/``fact_lineage`` describe the joined sample rows.  ``method``
    is ``"bernoulli"`` (with ``rate``) or ``"wor"`` (with
    ``sample_size``).  For WOR, fact tuples whose join result is empty
    still count toward the sample: pass ``fact_sample_count`` (the
    number of *drawn* fact tuples) so zero-contribution units enter the
    variance; defaults to the distinct fact tuples observed.
    """
    totals = per_fact_totals(f, fact_lineage)
    if method == "bernoulli":
        if rate is None:
            raise EstimationError("bernoulli method needs rate=")
        est = clt_bernoulli_estimate(totals, rate)
        return Estimate(
            est.value, est.variance_raw, est.n_sample, label="AQUA-Bernoulli"
        )
    if method == "wor":
        if sample_size is None:
            raise EstimationError("wor method needs sample_size=")
        drawn = (
            fact_sample_count
            if fact_sample_count is not None
            else totals.shape[0]
        )
        if drawn < totals.shape[0]:
            raise EstimationError(
                "fact_sample_count smaller than observed fact tuples"
            )
        padded = np.concatenate(
            [totals, np.zeros(drawn - totals.shape[0])]
        )
        est = clt_wor_estimate(padded, fact_table_size)
        return Estimate(
            est.value, est.variance_raw, est.n_sample, label="AQUA-WOR"
        )
    raise EstimationError(f"unknown AQUA method {method!r}")


"""Section 7: efficient variance estimation from a sub-sample.

Estimating the ``y_S`` terms needs ``2^k`` GROUP BY passes over the
result sample, which dominates cost for large samples.  The paper's
fix: keep the *point* estimate on the full sample (it needs no
lineage), but estimate the ``Ŷ_S`` on a small **lineage-keyed
Bernoulli sub-sample** of the result.

Correctness requires the sub-sampler to be a GUS — dropping a base
tuple must drop every result row it contributed to — which the
pseudo-random hash filter of
:class:`~repro.sampling.pseudorandom.LineageHashBernoulli` guarantees
with one seed per base relation.  The sub-sampled rows are governed by
the *compaction* (Prop 8) of the sub-sampler's composed Bernoulli
(Prop 9) onto the plan's top GUS, so the standard unbiasing recursion
applies with the composed parameters, while the variance formula keeps
the **original** plan's ``c_S/a²`` coefficients (we are still
estimating the full-sample estimator's variance).

The sub-sampler keeps or drops whole lineage keys, so it filters the
fold's moment state at read-out (:func:`subsample_state`), never rows:
the SBox finishes every sub-sampled aggregate that way, GROUP BY
included, and :func:`subsampled_estimate` is a one-chunk fold.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.algebra import compact_gus
from repro.core.estimator import Estimate, estimate_from_moments
from repro.core.gus import GUSParams
from repro.errors import EstimationError
from repro.sampling.composed import BiDimensionalBernoulli
from repro.stream.sketch import MomentSketchBundle

#: Section 7's rule of thumb: ~10,000 result rows suffice for the
#: y-term estimates (based on the DBO / Turbo-DBO experience).
DEFAULT_TARGET_ROWS = 10_000


@dataclass(frozen=True)
class SubsampleSpec:
    """How to sub-sample for variance estimation.

    ``rate`` is either one per-dimension keep probability applied to
    every sampled relation, or a per-relation mapping.  ``target_rows``
    (used when ``rate`` is None) picks a uniform per-dimension rate so
    the expected sub-sample size is roughly that many rows.
    """

    rate: float | Mapping[str, float] | None = None
    target_rows: int = DEFAULT_TARGET_ROWS
    seed: int = 0

    def rates_for(self, dims: tuple[str, ...], n_rows: int) -> dict[str, float]:
        """Resolve to a per-dimension rate mapping."""
        if isinstance(self.rate, Mapping):
            missing = set(dims) - set(self.rate)
            if missing:
                raise EstimationError(
                    f"subsample rates missing for dimensions {sorted(missing)}"
                )
            return {d: float(self.rate[d]) for d in dims}
        if self.rate is not None:
            return {d: float(self.rate) for d in dims}
        if n_rows <= self.target_rows or not dims:
            return {d: 1.0 for d in dims}
        overall = self.target_rows / n_rows
        per_dim = overall ** (1.0 / len(dims))
        return {d: per_dim for d in dims}


def subsample_state(
    pruned: GUSParams, bundle, spec: SubsampleSpec
) -> tuple[np.ndarray | None, GUSParams | None, dict]:
    """Section 7 over a moment bundle's state: ``(keep, unbias, extras)``.

    ``keep`` marks the state entries (lineage keys) the sub-sampler
    keeps, for ``bundle.moments(keep=keep)``; ``unbias`` is its GUS
    compacted onto ``pruned``.  ``extras["n_subsample"]`` counts the
    kept keys — the kept rows whenever each row has its own key.  An
    unsampled design has nothing to sub-sample: ``(None, None, {})``.
    """
    if not pruned.lattice.n:
        return None, None, {}
    rates = spec.rates_for(pruned.lattice.dims, bundle.n_rows)
    sampler = BiDimensionalBernoulli(rates, seed=spec.seed)
    keep = sampler.keep(bundle.lineage_keys())
    extras = {"n_subsample": int(np.count_nonzero(keep)), "subsample_rates": rates}
    return keep, compact_gus(sampler.gus(), pruned), extras


def subsampled_estimate(
    params: GUSParams,
    f_sample: np.ndarray,
    lineage_sample: Mapping[str, np.ndarray],
    spec: SubsampleSpec,
    *,
    label: str = "SUM",
) -> Estimate:
    """Full-sample point estimate, sub-sample variance estimate: a
    one-chunk fold read out as the SBox reads out a sub-sampled query."""
    if params.a <= 0.0:
        raise EstimationError("cannot estimate from a = 0 (null sampling)")
    pruned = params.project_out_inactive()
    bundle = MomentSketchBundle(pruned.lattice, 1).update([f_sample], lineage_sample)
    keep, unbias, extras = subsample_state(pruned, bundle, spec)
    est = estimate_from_moments(
        pruned,
        bundle.moments(keep=keep)[0],
        bundle.totals()[0],
        bundle.n_rows,
        label=label,
        unbias=unbias,
    )
    est.extras.update(extras)
    return est

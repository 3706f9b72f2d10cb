"""Pilot-based variance prediction (the Section 8 mechanism).

Theorem 1's variance splits into data terms (``y_S``) and sampling
terms (``c_S / a²``).  One executed *pilot* sample yields unbiased
``Ŷ_S`` estimates of the data terms over the full query schema; every
candidate sampling design then costs only its own ``c_S / a²`` weights
— a Möbius transform and a dot product — to score (the chooser
builds no plan per candidate: join-order work is paid once per order,
see :mod:`repro.optimizer.chooser`).  This module is the
shared engine behind both the interactive advisor
(:mod:`repro.apps.advisor`) and the cost-based optimizer: the advisor
ranks a handful of hand-named strategies, the optimizer sweeps hundreds
of enumerated candidates, but both plug the same pilot moments into the
same formula.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.algebra import join_gus, lift_gus
from repro.core.estimator import theorem1_variance, unbiased_y_terms, y_terms
from repro.core.gus import GUSParams, identity_gus
from repro.core.lattice import SubsetLattice
from repro.core.sbox import QueryResult
from repro.errors import EstimationError
from repro.relational.aggregates import aggregate_input_vector
from repro.relational.plan import AggSpec
from repro.sampling.base import SamplingMethod


def combined_gus(
    methods: Mapping[str, SamplingMethod],
    table_sizes: Mapping[str, int],
    schema: Sequence[str],
) -> GUSParams:
    """Single top GUS of a per-relation method assignment over ``schema``.

    Relations absent from ``methods`` stay unsampled (identity GUS,
    Proposition 4); the rest join by Proposition 6.
    """
    params: GUSParams | None = None
    for rel in sorted(schema):
        if rel in methods:
            dim = methods[rel].gus(rel, table_sizes[rel])
        else:
            dim = identity_gus([rel])
        params = dim if params is None else join_gus(params, dim)
    if params is None:
        raise EstimationError("method assignment needs at least one relation")
    return params


def pilot_moments(
    result: QueryResult, spec: AggSpec
) -> tuple[np.ndarray, float]:
    """Unbiased ``Ŷ`` over the full query schema, plus the pilot value.

    ``result`` is any executed GUS sample of the query (the SBox output
    with its plan attached).  The moments are computed over the *full*
    lineage schema — not just the pilot's sampled relations — because a
    candidate may sample relations the pilot left unsampled.
    """
    if result.plan is None:
        raise EstimationError(
            "pilot scoring needs the QueryResult produced by the SBox "
            "(with its plan attached)"
        )
    if spec.kind == "avg":
        raise EstimationError(
            "variance prediction covers SUM-like aggregates; AVG is a "
            "ratio (use its SUM and COUNT components)"
        )
    f = aggregate_input_vector(result.sample, spec)
    schema = sorted(result.rewrite.params.schema)
    full_lattice = SubsetLattice(schema)
    observed = lift_gus(result.rewrite.params, frozenset(schema))
    plugin = y_terms(f, result.sample.lineage, full_lattice)
    yhat = unbiased_y_terms(observed, plugin)
    return yhat, float(result.estimates[spec.alias].value)


class VariancePredictor:
    """Score arbitrary candidate GUS designs from one pilot execution.

    Holds unbiased moments per aggregate alias;
    :meth:`predicted_relative_std` reports the worst (largest)
    coefficient of variation across the query's aggregates, which is
    the binding constraint for a budget that must hold for all of them.
    """

    def __init__(
        self,
        schema: frozenset[str],
        moments: dict[str, tuple[np.ndarray, float]],
        pilot: QueryResult,
    ) -> None:
        if not moments:
            raise EstimationError("predictor needs at least one aggregate")
        self.schema = frozenset(schema)
        self.moments = moments
        self.pilot = pilot

    @classmethod
    def from_pilot(cls, result: QueryResult) -> "VariancePredictor":
        """Build from an executed pilot, one moment set per aggregate.

        AVG aggregates are skipped (they are ratios, outside Theorem 1);
        an all-AVG query cannot be budget-optimized.
        """
        assert result.plan is not None
        moments: dict[str, tuple[np.ndarray, float]] = {}
        for spec in result.plan.specs:
            if spec.kind == "avg":
                continue
            moments[spec.alias] = pilot_moments(result, spec)
        if not moments:
            raise EstimationError(
                "no SUM-like aggregate to predict for (AVG is a ratio; "
                "budget its SUM and COUNT components instead)"
            )
        schema = frozenset(result.rewrite.params.schema)
        return cls(schema, moments, result)

    @property
    def aliases(self) -> tuple[str, ...]:
        return tuple(self.moments)

    def predict_variance(self, params: GUSParams, alias: str) -> float:
        """Theorem 1 variance of ``alias`` under the candidate design."""
        yhat, _ = self.moments[alias]
        return theorem1_variance(lift_gus(params, self.schema), yhat)

    def predicted_relative_std(self, params: GUSParams) -> float:
        """Worst predicted coefficient of variation across aggregates.

        Negative variance predictions (pilot noise) clamp to zero: the
        candidate is then predicted "free", and the escalation loop is
        the safety net if reality disagrees.
        """
        worst = 0.0
        for alias in self.moments:
            variance = max(self.predict_variance(params, alias), 0.0)
            _, value = self.moments[alias]
            if value == 0.0:
                return float("inf")
            worst = max(worst, float(np.sqrt(variance)) / abs(value))
        return worst

    def predicted_value(self, alias: str) -> float:
        return self.moments[alias][1]

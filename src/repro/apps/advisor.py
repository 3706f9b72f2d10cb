"""Sampling-plan advisor: choosing sampling parameters (Section 8).

"By using the unbiased y_S estimates from a single sampling instance,
the theory allows for plugging in co-efficients for different sampling
strategies to predict the respective variances."

The key decomposition: Theorem 1's variance splits into data properties
(``y_S``) and sampling properties (``c_S / a²``).  One executed sample
gives unbiased ``Ŷ_S`` once; each candidate strategy then costs only a
Möbius transform and a dot product to score — no re-execution.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.core.algebra import lift_gus
from repro.core.estimator import theorem1_variance
from repro.core.gus import GUSParams
from repro.core.sbox import QueryResult
from repro.errors import EstimationError
from repro.optimizer.predictor import combined_gus, pilot_moments
from repro.sampling.base import SamplingMethod


@dataclass(frozen=True)
class StrategyOutcome:
    """Predicted behaviour of one candidate sampling strategy."""

    name: str
    params: GUSParams
    predicted_variance: float
    predicted_value: float
    expected_sample_fraction: float

    @property
    def predicted_std(self) -> float:
        return math.sqrt(max(self.predicted_variance, 0.0))

    @property
    def predicted_relative_std(self) -> float:
        if self.predicted_value == 0.0:
            return math.inf
        return self.predicted_std / abs(self.predicted_value)


@dataclass(frozen=True)
class AdvisorReport:
    """Candidate strategies ranked by predicted variance (best first)."""

    outcomes: tuple[StrategyOutcome, ...]

    @property
    def best(self) -> StrategyOutcome:
        return self.outcomes[0]

    def table(self) -> str:
        """Plain-text ranking for interactive use."""
        header = (
            f"{'strategy':<28}{'a':>12}{'pred. std':>14}{'rel. std':>12}"
        )
        rows = [header, "-" * len(header)]
        for o in self.outcomes:
            rel = o.predicted_relative_std
            rel_text = f"{rel:>12.2%}" if math.isfinite(rel) else f"{'inf':>12}"
            rows.append(
                f"{o.name:<28}{o.params.a:>12.4g}"
                f"{o.predicted_std:>14.5g}{rel_text}"
            )
        return "\n".join(rows)


def candidate_params(
    methods: Mapping[str, SamplingMethod],
    table_sizes: Mapping[str, int],
    schema: Sequence[str],
) -> GUSParams:
    """Combined GUS of a per-relation strategy over ``schema``.

    Relations absent from ``methods`` stay unsampled (identity GUS).
    Thin alias of :func:`repro.optimizer.predictor.combined_gus`, kept
    for the advisor's public API.
    """
    try:
        return combined_gus(methods, table_sizes, schema)
    except EstimationError:
        raise EstimationError("advisor needs at least one relation") from None


def advise(
    result: QueryResult,
    strategies: Mapping[str, Mapping[str, SamplingMethod]],
    table_sizes: Mapping[str, int],
    *,
    alias: str | None = None,
) -> AdvisorReport:
    """Rank candidate strategies using one observed sample.

    ``result`` is a previously executed aggregate query (any GUS
    strategy); ``strategies`` maps a display name to per-relation
    sampling methods.  The observed sample provides the ``Ŷ_S``; each
    candidate contributes only its ``c_S / a²`` weights.
    """
    if result.plan is None:
        raise EstimationError(
            "advisor needs the QueryResult produced by the SBox "
            "(with its plan attached)"
        )
    alias = alias if alias is not None else next(iter(result.estimates))
    spec = next(
        (s for s in result.plan.specs if s.alias == alias), None
    )
    if spec is None:
        raise EstimationError(
            f"no aggregate {alias!r}; have "
            f"{[s.alias for s in result.plan.specs]}"
        )
    if spec.kind == "avg":
        raise EstimationError(
            "the advisor predicts variances of SUM-like aggregates; "
            "AVG is a ratio (use its SUM and COUNT components)"
        )
    # Ŷ over the *full* query schema: candidates may sample relations
    # the observed strategy left unsampled, so data moments must cover
    # every subset of the participating relations.  Shared with the
    # cost-based optimizer, which scores enumerated candidates the
    # same way.
    yhat, value = pilot_moments(result, spec)
    schema = sorted(result.rewrite.params.schema)

    outcomes = []
    for name, methods in strategies.items():
        params = candidate_params(methods, table_sizes, schema)
        variance = theorem1_variance(
            lift_gus(params, frozenset(schema)), yhat
        )
        outcomes.append(
            StrategyOutcome(
                name=name,
                params=params,
                predicted_variance=variance,
                predicted_value=value,
                expected_sample_fraction=params.a,
            )
        )
    outcomes.sort(key=lambda o: o.predicted_variance)
    return AdvisorReport(tuple(outcomes))

"""Error budgets: the accuracy contract of an optimized query.

An error budget is the user-facing target "the answer must be within
``p``% of the truth with confidence ``level``" — the ``WITHIN 5 %
CONFIDENCE 0.95`` clause of the SQL dialect.  Internally the budget is
a bound on the *relative confidence-interval half-width*: a candidate
plan meets the budget when ``z · σ̂ / |µ̂| ≤ p``, where ``z`` is the
critical value of the chosen interval family (normal or the
distribution-free Chebyshev bound).

Dividing the half-width target by ``z`` converts it into a target on
the relative standard deviation, which is the quantity Theorem 1
predicts from a pilot sample — that conversion is what lets the plan
chooser compare candidates *before* executing anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core import confidence
from repro.core.estimator import Estimate
from repro.errors import EstimationError


def no_contributing_row(estimate: Estimate) -> bool:
    """A zero estimate with zero variance: no sampled row contributed."""
    return estimate.value == estimate.variance_raw == 0.0


@dataclass(frozen=True)
class ErrorBudget:
    """A relative-accuracy target at a confidence level.

    ``relative_half_width`` is a fraction (``0.05`` means "within 5%"),
    ``level`` the two-sided confidence level, and ``method`` the
    interval family used to check it (``normal`` or ``chebyshev``).
    """

    relative_half_width: float
    level: float = 0.95
    method: str = "normal"

    def __post_init__(self) -> None:
        if not self.relative_half_width > 0.0:
            raise EstimationError(
                f"budget half-width {self.relative_half_width} must be "
                "positive"
            )
        if not 0.0 < self.level < 1.0:
            raise EstimationError(
                f"confidence level {self.level} must be in (0, 1)"
            )
        if self.method not in confidence.METHODS:
            raise EstimationError(
                f"unknown interval method {self.method!r}; "
                f"use {confidence.METHODS}"
            )

    @classmethod
    def from_percent(
        cls, percent: float, level: float = 0.95, method: str = "normal"
    ) -> "ErrorBudget":
        """The SQL form: ``WITHIN <percent> % CONFIDENCE <level>``."""
        return cls(percent / 100.0, level, method)

    @property
    def percent(self) -> float:
        return self.relative_half_width * 100.0

    @property
    def critical_value(self) -> float:
        """Half-width of the unit-σ interval (``z`` for normal)."""
        return confidence.interval(0.0, 1.0, self.level, self.method).hi

    @property
    def target_relative_std(self) -> float:
        """The coefficient-of-variation bound implied by the budget."""
        return self.relative_half_width / self.critical_value

    def realized_fraction(self, estimate: Estimate) -> float:
        """The *achieved* relative CI half-width of an estimate."""
        ci = estimate.ci(self.level, self.method)
        half = (ci.hi - ci.lo) / 2.0
        if estimate.value == 0.0:
            return 0.0 if half == 0.0 else math.inf
        return half / abs(estimate.value)

    def met_by(self, estimate: Estimate) -> bool:
        """True when the realized interval honours the budget.

        A clamped variance (the unbiased estimator dipped below zero on
        a too-small sample) yields a zero-width interval that proves
        nothing, so it counts as a miss — the escalation loop should
        draw more data rather than declare victory.  So does an
        estimate of exactly zero with zero variance under a design that
        samples (``a < 1``): no row contributed, so the zero-width
        interval carries no information either.
        """
        empty = no_contributing_row(estimate)
        if estimate.clamped or (empty and estimate.extras.get("a", 1.0) < 1):
            return False
        return self.realized_fraction(estimate) <= self.relative_half_width

    def describe(self) -> str:
        return (
            f"±{self.percent:g}% at {self.level:g} confidence "
            f"({self.method})"
        )

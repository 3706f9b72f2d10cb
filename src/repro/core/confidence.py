"""Confidence intervals and quantiles for sampling estimates.

Section 6.4 of the paper offers two interval families on top of the
estimated mean ``µ̂`` and standard deviation ``σ̂``:

* **optimistic** normal intervals — the estimator is a sum of many
  loosely-interacting parts, so its distribution is close to normal
  even though the samples are not IID (``µ̂ ± 1.96 σ̂`` at 95%);
* **pessimistic** Chebyshev intervals, valid for *any* distribution at
  roughly twice the width (``µ̂ ± 4.47 σ̂`` at 95%).

One-sided quantiles (the paper's ``QUANTILE(SUM(e), q)`` syntax) use the
normal quantile function or the one-sided Cantelli inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# The normal quantile function itself — what ``scipy.stats.norm.ppf``
# ends in, bit for bit, without loading ``scipy.stats``.
from scipy.special import ndtri

from repro.errors import EstimationError

#: Interval/quantile methods accepted throughout the library.
METHODS = ("normal", "chebyshev")


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided interval ``[lo, hi]`` at confidence ``level``."""

    lo: float
    hi: float
    level: float
    method: str

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"[{self.lo:.6g}, {self.hi:.6g}] "
            f"({self.level:.0%} {self.method})"
        )


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise EstimationError(f"confidence level {level} must be in (0, 1)")


def normal_interval(mean: float, std: float, level: float = 0.95) -> ConfidenceInterval:
    """Two-sided normal interval ``µ ± z_{(1+level)/2} σ``."""
    _check_level(level)
    z = float(ndtri(0.5 + level / 2.0))
    return ConfidenceInterval(mean - z * std, mean + z * std, level, "normal")


def chebyshev_interval(
    mean: float, std: float, level: float = 0.95
) -> ConfidenceInterval:
    """Distribution-free interval ``µ ± kσ`` with ``k = 1/√(1−level)``.

    At 95% this is ``k ≈ 4.47``, the paper's quoted constant.
    """
    _check_level(level)
    k = 1.0 / math.sqrt(1.0 - level)
    return ConfidenceInterval(mean - k * std, mean + k * std, level, "chebyshev")


def interval(
    mean: float, std: float, level: float = 0.95, method: str = "normal"
) -> ConfidenceInterval:
    """Dispatch to :func:`normal_interval` or :func:`chebyshev_interval`."""
    if method == "normal":
        return normal_interval(mean, std, level)
    if method == "chebyshev":
        return chebyshev_interval(mean, std, level)
    raise EstimationError(f"unknown interval method {method!r}; use {METHODS}")


def normal_quantile(mean: float, std: float, q: float) -> float:
    """One-sided quantile under normality: ``µ + Φ⁻¹(q)·σ``.

    This is the value the paper's ``QUANTILE(SUM(e), q)`` clause
    returns: the true aggregate lies below it with probability ``q``.
    """
    if not 0.0 < q < 1.0:
        raise EstimationError(f"quantile {q} must be in (0, 1)")
    return mean + float(ndtri(q)) * std


def cantelli_quantile(mean: float, std: float, q: float) -> float:
    """Distribution-free one-sided quantile via Cantelli's inequality.

    ``P(X − µ ≥ kσ) ≤ 1/(1+k²)`` gives ``k = √(q/(1−q))`` for an upper
    ``q``-quantile (and symmetrically for ``q < 1/2``), conservative for
    any distribution.
    """
    if not 0.0 < q < 1.0:
        raise EstimationError(f"quantile {q} must be in (0, 1)")
    if q >= 0.5:
        k = math.sqrt(q / (1.0 - q))
    else:
        k = -math.sqrt((1.0 - q) / q)
    return mean + k * std


def quantile(mean: float, std: float, q: float, method: str = "normal") -> float:
    """Dispatch to :func:`normal_quantile` or :func:`cantelli_quantile`."""
    if method == "normal":
        return normal_quantile(mean, std, q)
    if method == "chebyshev":
        return cantelli_quantile(mean, std, q)
    raise EstimationError(f"unknown quantile method {method!r}; use {METHODS}")

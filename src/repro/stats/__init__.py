"""Statistical extensions: the delta method, running moments, and
sequential acceptance tests."""

from repro.stats.delta import ratio_estimate
from repro.stats.moments import RunningMoments
from repro.stats.sequential import (
    BernoulliSPRT,
    SequentialBiasGuard,
    SequentialVerdict,
)

__all__ = [
    "ratio_estimate",
    "RunningMoments",
    "BernoulliSPRT",
    "SequentialBiasGuard",
    "SequentialVerdict",
]

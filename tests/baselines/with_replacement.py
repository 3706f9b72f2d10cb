"""Fixed-size sampling *with* replacement.

The draw of the online-aggregation-style split-sample baseline
(``tests/baselines/split_sample.py``) that the tests compare GUS
against.  It is **not** a GUS method: drawing with replacement produces
duplicate tuples, so the process is not a randomized filter, and the
paper (Section 9) explicitly leaves it outside the algebra.  ``gus()``
therefore raises :class:`~repro.errors.NotGUSError` — the refusal the
SBox and the synopsis catalog are tested against.
"""

from __future__ import annotations

import numpy as np

from repro.core.gus import GUSParams
from repro.errors import NotGUSError, ReproError
from repro.sampling.base import Draw, SamplingMethod


class WithReplacement(SamplingMethod):
    """Draw ``size`` tuples uniformly with replacement."""

    __slots__ = ("size",)

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ReproError(f"sample size {size} must be non-negative")
        self.size = int(size)

    def draw_indices(self, n_rows: int, rng: np.random.Generator) -> np.ndarray:
        """Row indices of the draw, duplicates included."""
        if n_rows == 0 or self.size == 0:
            return np.empty(0, dtype=np.int64)
        return rng.integers(0, n_rows, size=self.size, dtype=np.int64)

    def draw(self, n_rows: int, rng: np.random.Generator) -> Draw:
        raise NotGUSError(
            "with-replacement sampling produces duplicates and cannot run "
            "as a filter; use draw_indices() or a without-"
            "replacement method"
        )

    def gus(self, relation: str, n_rows: int) -> GUSParams:
        raise NotGUSError(
            "with-replacement sampling is not a randomized filter and has "
            "no GUS representation (paper, Section 9)"
        )

    def describe(self) -> str:
        return f"WR({self.size} ROWS)"

"""Bernoulli (a.k.a. ``TABLESAMPLE (p PERCENT)``) sampling."""

from __future__ import annotations

import numpy as np

from repro.core.gus import GUSParams, bernoulli_gus
from repro.errors import ReproError
from repro.sampling.base import Draw, SamplingMethod

#: Uniforms per block of a draw: one block-sized buffer is reused, so no
#: temporary of a draw grows with the table (65 536 drew fastest of
#: 2¹⁴, 2¹⁶ and 2¹⁸ at 0.3 M and 4 M rows on a 2-core x86 VM).
DRAW_BLOCK_ROWS = 1 << 16


class Bernoulli(SamplingMethod):
    """Keep each tuple independently with probability ``p``.

    GUS parameters (paper Figure 1): ``a = p``, ``b_∅ = p²``,
    ``b_R = p``.
    """

    __slots__ = ("p",)

    def __init__(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ReproError(f"Bernoulli rate {p} is not a probability")
        self.p = float(p)

    @classmethod
    def from_percent(cls, percent: float) -> "Bernoulli":
        """Build from the SQL ``PERCENT`` spelling (0–100)."""
        return cls(percent / 100.0)

    def draw(self, n_rows: int, rng: np.random.Generator) -> Draw:
        # Consecutive ``random`` calls continue one stream: block by
        # block they read the uniforms ``rng.random(n_rows)`` would, and
        # leave the generator where it would (also at p = 0 and p = 1).
        uniforms = np.empty(min(n_rows, DRAW_BLOCK_ROWS))
        parts = [np.empty(0, dtype=np.int64)]
        for start in range(0, n_rows, DRAW_BLOCK_ROWS):
            block = uniforms[: min(DRAW_BLOCK_ROWS, n_rows - start)]
            rng.random(out=block)
            kept = np.flatnonzero(block < self.p)
            kept += start
            parts.append(kept)
        rows = np.concatenate(parts)
        return Draw(rows, rows)

    def gus(self, relation: str, n_rows: int) -> GUSParams:
        return bernoulli_gus(relation, self.p)

    def describe(self) -> str:
        return f"BERNOULLI({self.p * 100:g} PERCENT)"

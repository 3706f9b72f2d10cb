"""Block (page-level, ``SYSTEM``-style) sampling.

SQL's ``TABLESAMPLE SYSTEM`` is vendor-defined but almost always means
"keep whole pages".  At tuple granularity this is *not* uniform-pair
sampling (two tuples on one page live or die together), but it **is**
GUS once lineage is tracked at block granularity — the "block-based
variants" the paper's Section 1 claims GUS subsumes.  These methods
therefore report *block ids* as their lineage unit, and their GUS
parameters are the Figure 1 formulas evaluated over blocks.
"""

from __future__ import annotations

import numpy as np

from repro.core.gus import GUSParams, bernoulli_gus, without_replacement_gus
from repro.errors import ReproError
from repro.sampling.base import Draw, SamplingMethod


def _n_blocks(n_rows: int, rows_per_block: int) -> int:
    return -(-n_rows // rows_per_block) if n_rows else 0


class _BlockMethod(SamplingMethod):
    """Lineage is the block id; a draw is the rows of its kept blocks."""

    rows_per_block: int

    def lineage_of(self, rows: np.ndarray) -> np.ndarray:
        return rows // self.rows_per_block

    def _draw_blocks(self, n_rows: int, kept_blocks: np.ndarray) -> Draw:
        """The rows of the ascending ``kept_blocks``, made from the kept
        blocks alone — no block id per table row."""
        width = self.rows_per_block
        rows = (
            kept_blocks[:, None] * width
            + np.arange(min(width, n_rows), dtype=np.int64)
        ).reshape(-1)
        if rows.shape[0] and rows[-1] >= n_rows:  # the last block is short
            rows = rows[rows < n_rows]
        return Draw(rows, self.lineage_of(rows))


class BlockBernoulli(_BlockMethod):
    """Keep each block of ``rows_per_block`` consecutive rows with
    probability ``p`` (SYSTEM-style Bernoulli)."""

    __slots__ = ("p", "rows_per_block")

    def __init__(self, p: float, rows_per_block: int) -> None:
        if not 0.0 <= p <= 1.0:
            raise ReproError(f"block rate {p} is not a probability")
        if rows_per_block <= 0:
            raise ReproError("rows_per_block must be positive")
        self.p = float(p)
        self.rows_per_block = int(rows_per_block)

    def draw(self, n_rows: int, rng: np.random.Generator) -> Draw:
        keep_block = rng.random(_n_blocks(n_rows, self.rows_per_block)) < self.p
        return self._draw_blocks(n_rows, np.flatnonzero(keep_block))

    def gus(self, relation: str, n_rows: int) -> GUSParams:
        # Over block lineage this is plain Bernoulli: same-block pairs
        # survive with probability p, cross-block pairs with p².
        return bernoulli_gus(relation, self.p)

    def describe(self) -> str:
        return (
            f"SYSTEM({self.p * 100:g} PERCENT, "
            f"BLOCK {self.rows_per_block})"
        )


class BlockWithoutReplacement(_BlockMethod):
    """Keep exactly ``n_blocks`` randomly chosen blocks."""

    __slots__ = ("n_blocks", "rows_per_block")

    def __init__(self, n_blocks: int, rows_per_block: int) -> None:
        if n_blocks < 0:
            raise ReproError("n_blocks must be non-negative")
        if rows_per_block <= 0:
            raise ReproError("rows_per_block must be positive")
        self.n_blocks = int(n_blocks)
        self.rows_per_block = int(rows_per_block)

    def draw(self, n_rows: int, rng: np.random.Generator) -> Draw:
        total = _n_blocks(n_rows, self.rows_per_block)
        keep = min(self.n_blocks, total)
        chosen = np.empty(0, dtype=np.int64)
        if keep:
            chosen = np.sort(rng.choice(total, size=keep, replace=False))
        return self._draw_blocks(n_rows, chosen)

    def gus(self, relation: str, n_rows: int) -> GUSParams:
        total = _n_blocks(n_rows, self.rows_per_block)
        return without_replacement_gus(
            relation, min(self.n_blocks, total), max(total, 1)
        )

    def describe(self) -> str:
        return (
            f"SYSTEM({self.n_blocks} BLOCKS OF {self.rows_per_block})"
        )

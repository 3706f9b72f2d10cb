"""Fixed-size simple random sampling without replacement
(``TABLESAMPLE (n ROWS)``)."""

from __future__ import annotations

import numpy as np

from repro.core.gus import GUSParams, identity_gus, without_replacement_gus
from repro.errors import ReproError
from repro.sampling.base import Draw, SamplingMethod


class WithoutReplacement(SamplingMethod):
    """Keep a uniform random subset of exactly ``size`` tuples.

    GUS parameters (paper Figure 1): ``a = n/N``,
    ``b_∅ = n(n−1)/(N(N−1))``, ``b_R = n/N``.  When the table is smaller
    than ``size`` the whole table is kept (``a = 1``), matching SQL
    semantics.
    """

    __slots__ = ("size",)

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ReproError(f"sample size {size} must be non-negative")
        self.size = int(size)

    def effective_size(self, n_rows: int) -> int:
        return min(self.size, n_rows)

    def draw(self, n_rows: int, rng: np.random.Generator) -> Draw:
        """The chosen positions, sorted: what a keep-mask of them marks.

        The draw itself is numpy's ``Generator.choice``, unchanged so
        the stream does not move.  ``choice`` shuffles the tail of an
        ``arange`` of the whole range — O(``n_rows``) memory, 32 MB at
        4 M rows — once ``size`` exceeds about ``n_rows / 50`` (or
        ``n_rows ≤ 10 000``); smaller samples (Floyd's algorithm) cost
        O(``size``).  This is the one draw that can still grow with the
        table.
        """
        keep = self.effective_size(n_rows)
        rows = np.empty(0, dtype=np.int64)
        if keep:
            rows = np.sort(rng.choice(n_rows, size=keep, replace=False))
        return Draw(rows, rows)

    def gus(self, relation: str, n_rows: int) -> GUSParams:
        if n_rows == 0:
            # The "table smaller than size → keep the whole table"
            # branch, taken vacuously: every (zero) tuple survives with
            # certainty, so this is identity sampling of an empty
            # relation, not the undefined 0/0 WOR ratio.
            return identity_gus([relation])
        return without_replacement_gus(
            relation, self.effective_size(n_rows), n_rows
        )

    def describe(self) -> str:
        return f"WOR({self.size} ROWS)"

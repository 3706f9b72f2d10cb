"""Lineage-keyed pseudo-random Bernoulli filtering (paper Section 7).

Sub-sampling a *derived* table must behave like a GUS on the base
relations: if the filter drops a base tuple, it must drop it from every
result row it contributed to.  The paper's recipe is a pseudo-random
function of (per-relation seed, lineage id) — the same id always maps to
the same uniform number, so the keep/drop decision is consistent across
result rows while requiring only one stored seed per relation.

The hash is a SplitMix64 finalizer: cheap, stateless, and with output
uniform enough for sampling purposes (verified statistically in the
test suite).  The kernels live in :mod:`repro.core.kernels`:
``hash01`` maps a ``(seed, id)`` pair to its uniform — the same one in
every layer that filters on lineage; re-exported here for the sampling
layer — and ``hash_keep`` is the keep decision ``hash01 < p`` taken on
the 64-bit hash itself, block by block in cache, which is what every
filter (:meth:`LineageHashBernoulli.keep`, and through it the
coordinated, composed, catalog-thinning and load-shedding samplers)
runs.  Rate 1 keeps every id and rate 0 none, without hashing.
"""

from __future__ import annotations

import numpy as np

from repro.core.gus import GUSParams, bernoulli_gus
from repro.core.kernels import _finalize, hash01, hash_keep
from repro.errors import ReproError
from repro.sampling.base import Draw, SamplingMethod, row_lineage

__all__ = ["hash01", "_finalize", "LineageHashBernoulli"]


class LineageHashBernoulli(SamplingMethod):
    """Bernoulli(p) keyed on lineage ids rather than an RNG stream.

    Because the decision is a pure function of the lineage id, applying
    the same filter to any derived table is consistent with applying it
    to the base relation — precisely the GUS property Section 7 needs.
    """

    __slots__ = ("p", "seed")

    def __init__(self, p: float, seed: int) -> None:
        if not 0.0 <= p <= 1.0:
            raise ReproError(f"rate {p} is not a probability")
        self.p = float(p)
        self.seed = int(seed)

    def keep(self, ids: np.ndarray) -> np.ndarray:
        """The deterministic keep-mask for arbitrary lineage ids."""
        return hash_keep(self.seed, ids, self.p)

    def draw(self, n_rows: int, rng: np.random.Generator) -> Draw:
        lineage = row_lineage(n_rows)
        return Draw(mask=self.keep(lineage), lineage=lineage)

    def gus(self, relation: str, n_rows: int) -> GUSParams:
        return bernoulli_gus(relation, self.p)

    def describe(self) -> str:
        return f"HASH-BERNOULLI({self.p * 100:g} PERCENT, seed={self.seed})"

"""The sampling-method interface."""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.gus import GUSParams


@dataclass(frozen=True)
class Draw:
    """Outcome of executing a sampling method over a base table.

    ``rows`` holds the kept positions, strictly ascending int64.
    ``lineage`` holds the lineage ids of those rows only, under the
    method's sampling unit: the positions themselves (the same array as
    ``rows``) for tuple-level methods, block ids for block-level ones
    (Section 4.2: a tuple's identity is apart from its content, so a
    base-table sample's positions *are* its lineage).  Nothing in a draw
    grows with the base table, only with the sample.  Both arrays are
    made read-only here: a catalog stores them as a sample's lineage and
    as the index of its pending column gathers.
    """

    rows: np.ndarray
    lineage: np.ndarray

    def __post_init__(self) -> None:
        self.rows.flags.writeable = False
        self.lineage.flags.writeable = False


class SamplingMethod(abc.ABC):
    """A randomized filter over one base relation.

    Subclasses must be deterministic functions of the supplied
    ``numpy.random.Generator`` so experiments are reproducible.
    """

    @abc.abstractmethod
    def draw(self, n_rows: int, rng: np.random.Generator) -> Draw:
        """The kept positions (and their lineage ids) of ``n_rows`` rows.

        A draw allocates in proportion to the sample, not the table: it
        is made block by block, or per sampling block, never as a value
        per table row (without-replacement's ``Generator.choice`` is
        the one exception, see
        :class:`~repro.sampling.WithoutReplacement`).  The generator is
        consumed exactly as one whole-table draw would consume it, so
        later draws of the same plan see the same stream.
        """

    def lineage_of(self, rows: np.ndarray) -> np.ndarray:
        """Lineage ids of base-table positions ``rows`` in this method's
        sampling unit: the positions themselves (tuple-level)."""
        return rows

    @abc.abstractmethod
    def gus(self, relation: str, n_rows: int) -> GUSParams:
        """GUS parameters of this method applied to ``relation``.

        Raises :class:`~repro.errors.NotGUSError` for methods that are
        not uniform filters.
        """

    @abc.abstractmethod
    def describe(self) -> str:
        """Short human-readable form, e.g. ``BERNOULLI(10 PERCENT)``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


def row_lineage(n_rows: int) -> np.ndarray:
    """Default tuple-level lineage: the row index."""
    return np.arange(n_rows, dtype=np.int64)

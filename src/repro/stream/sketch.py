"""Mergeable moment sketches: the streaming form of the ``Y_S`` moments.

Theorem 1 needs, per subset ``S`` of the lineage schema, the moment
``Y_S = Σ_{groups g on S} (Σ_{t∈g} f(t))²``.  The square is not
additive, but the *per-group sums* underneath it are: a table mapping
each distinct full-lineage key to its running ``Σ f`` is a commutative
monoid under "concatenate and re-reduce".  Every coarser moment
``Y_S`` (``S ⊂ L``) is then a pure function of that one table, because
a lineage group on ``S`` is a union of full-lineage groups.

:class:`MomentSketchBundle` maintains exactly that table for one or
more weight vectors at once, plus the sample row count.  ``update``
compacts a batch to its distinct lineage keys and appends it as a
*part*, ``merge`` appends the other bundle's parts, and every read
reduces the parts once (:meth:`compact`): a stable reduce adds each
key's partial sums in arrival order, so the bits are those of k − 1
pairwise merges, without their k copies of the state.  All exact:

* ``update(fs, lineage)`` — absorb a batch in one vectorized pass;
* ``merge(other)``        — combine two sketches (chunks, parts of a
  split stream, windows) with no approximation;
* ``moments(keep=None)``  — emit one ``(Y_S)_{S⊆L}`` vector per weight
  vector, or over the state entries a boolean ``keep`` marks: Section
  7's sub-sampler keeps whole lineage keys, so filtering the state
  equals filtering the rows.

The heavy lifting lives in
:func:`repro.core.estimator.group_reduce_multi` and
:func:`repro.core.estimator.y_terms_from_groups`, the same accumulator
core the batch ``y_terms`` is built on — one source of truth for the
moment arithmetic.

:class:`GroupedMomentBundle` extends the same idea to GROUP BY
workloads by keying the table on (group key, lineage key); every
group's moment vector is then derivable from one shared state, and the
merge story is unchanged.

There is one accumulator per query shape: the classes
:meth:`repro.core.sbox.SBox.run` folds every chunk into are the classes
a :class:`~repro.stream.estimator.StreamingEstimator` or a window
merges (with a single weight vector).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.core import kernels
from repro.core.estimator import (
    group_keys,
    group_reduce_multi,
    grouped_y_terms_multi,
    y_terms_from_groups,
)
from repro.core.lattice import SubsetLattice
from repro.errors import EstimationError

__all__ = ["GroupedMomentBundle", "MomentSketchBundle"]


def _checked_batch(
    lattice: SubsetLattice,
    n_vectors: int,
    fs: Sequence[np.ndarray],
    lineage: Mapping[str, np.ndarray],
    group_cols: Sequence = (),
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """One ``update`` batch as ``(float64 vectors, int64 lineage keys)``.

    Raises :class:`EstimationError` unless the batch is ``n_vectors``
    1-d vectors of one length, with a lineage column of integer dtype
    and that shape for every lattice dim, and group columns of that
    length.  A float or bool lineage column is refused, not truncated.
    """
    if len(fs) != n_vectors:
        raise EstimationError(f"expected {n_vectors} weight vectors, got {len(fs)}")
    fs = [np.asarray(f, dtype=np.float64) for f in fs]
    shape = fs[0].shape
    if len(shape) != 1 or any(f.shape != shape for f in fs):
        raise EstimationError(
            f"f vectors must be 1-d and of equal length, got shapes {[f.shape for f in fs]}"
        )
    missing = [d for d in lattice.dims if d not in lineage]
    if missing:
        raise EstimationError(f"lineage columns missing for {missing}")
    keys = []
    for d in lattice.dims:
        col = np.asarray(lineage[d])
        if not np.issubdtype(col.dtype, np.integer):
            raise EstimationError(f"lineage column {d!r} has non-integer dtype {col.dtype}")
        if col.shape != shape:
            raise EstimationError(f"lineage column {d!r} has shape {col.shape}; f has {shape}")
        keys.append(col.astype(np.int64, copy=False))
    for i, col in enumerate(group_cols):
        n = len(col[0] if type(col) is tuple else col)
        if n != shape[0]:
            raise EstimationError(f"group column {i} has {n} rows; f has shape {shape}")
    return fs, keys


def _stacked(columns: Iterable[Sequence[np.ndarray]]) -> list[np.ndarray]:
    """Column ``i`` of every part, concatenated in part order."""
    return [np.concatenate(parts) for parts in zip(*columns)]


class MomentSketchBundle:
    """Incremental, mergeable accumulator of the lattice moments.

    The state is a list of compacted parts in arrival order, each a
    ``(keys, sums)`` pair: ``keys[i]`` holds the int64 value of lineage
    dimension ``lattice.dims[i]`` for each distinct full-lineage key of
    the part, ``sums[j]`` that key's ``Σ f_j`` for weight vector ``j``;
    ``_n_rows`` counts the rows absorbed.  :meth:`compact` reduces the
    parts to one, once, when the state is read.

    The expensive part of absorbing a batch is the sort over the
    lineage keys; the per-vector sums are one extra ``bincount`` each.
    A multi-aggregate query (every SUM/COUNT plus the two extra AVG
    vectors) therefore folds all its weight vectors through a single
    bundle — one bundle per chunk, one reduce per query instead of per
    aggregate; the streaming tier holds a bundle of one vector.
    Merge is commutative and associative up to floating-point summation
    order, so bundles combine in any topology.
    """

    __slots__ = ("lattice", "n_vectors", "_parts", "_n_rows")

    def __init__(self, lattice: SubsetLattice, n_vectors: int) -> None:
        if n_vectors < 1:
            raise EstimationError(
                f"need at least one weight vector, got {n_vectors}"
            )
        self.lattice = lattice
        self.n_vectors = int(n_vectors)
        self._parts: list[tuple[list[np.ndarray], list[np.ndarray]]] = []
        self._n_rows = 0

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_groups(self) -> int:
        return int(self.compact()[1][0].shape[0])

    def compact(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The state as one ``(keys, sums)`` table of distinct keys.

        Concatenates the parts in arrival order and reduces them with
        one :func:`~repro.core.estimator.group_reduce_multi`, which
        skips its sort when the key strictly ascends.  Without a
        sampled dimension each part is one total per vector, added up
        in arrival order by ``cumsum`` (``np.sum`` is pairwise past
        eight terms).  The result replaces the parts, so a second
        read-out costs nothing.
        """
        if not self._parts:
            return (
                [np.empty(0, dtype=np.int64) for _ in range(self.lattice.n)],
                [np.empty(0, dtype=np.float64) for _ in range(self.n_vectors)],
            )
        if len(self._parts) > 1:
            keys = _stacked(k for k, _ in self._parts)
            sums = _stacked(s for _, s in self._parts)
            if self.lattice.n:
                keys, sums = group_reduce_multi(keys, sums)
            else:
                sums = [np.cumsum(s)[-1:] for s in sums]
            self._parts = [(keys, sums)]
        return self._parts[0]

    def totals(self) -> list[float]:
        """The running ``Σ f_j`` of every vector."""
        return [
            float(np.sum(s)) if s.size else 0.0 for s in self.compact()[1]
        ]

    def lineage_keys(self) -> dict[str, np.ndarray]:
        """Each state entry's lineage key, one int64 column per dim —
        the entries a ``moments(keep=...)`` mask runs over."""
        return dict(zip(self.lattice.dims, self.compact()[0]))

    def update(
        self,
        fs: Sequence[np.ndarray],
        lineage: Mapping[str, np.ndarray],
    ) -> "MomentSketchBundle":
        """Absorb one batch: ``fs[j]`` is vector ``j``'s row values."""
        fs, cols = _checked_batch(self.lattice, self.n_vectors, fs, lineage)
        n = fs[0].shape[0]
        if n == 0:
            return self
        self._parts.append(group_reduce_multi(cols, fs))
        self._n_rows += n
        return self

    def merge(self, other: "MomentSketchBundle") -> "MomentSketchBundle":
        """Fold ``other`` into ``self`` (exact); returns ``self``."""
        if self.lattice != other.lattice:
            raise EstimationError(
                f"cannot merge sketches over different lattices: "
                f"{self.lattice.dims} vs {other.lattice.dims}"
            )
        if self.n_vectors != other.n_vectors:
            raise EstimationError(
                f"cannot merge bundles of {self.n_vectors} vs "
                f"{other.n_vectors} vectors"
            )
        self._parts.extend(other._parts)
        self._n_rows += other._n_rows
        return self

    def copy(self) -> "MomentSketchBundle":
        """An independent snapshot, sharing the parts (whose arrays are
        never written in place: a read-out replaces the list)."""
        dup = MomentSketchBundle(self.lattice, self.n_vectors)
        dup._parts = list(self._parts)
        dup._n_rows = self._n_rows
        return dup

    def moments(self, keep: np.ndarray | None = None) -> list[np.ndarray]:
        """One plug-in moment vector ``(Y_S)_{S⊆L}`` per weight vector.

        ``keep`` restricts them to the state entries it marks.
        """
        keys, sums = self.compact()
        if keep is not None:
            keys = [k[keep] for k in keys]
            sums = [s[keep] for s in sums]
        return [y_terms_from_groups(s, keys, self.lattice) for s in sums]

    def __repr__(self) -> str:
        return (
            f"MomentSketchBundle(dims={list(self.lattice.dims)}, "
            f"n_vectors={self.n_vectors}, n_rows={self._n_rows}, "
            f"n_groups={self.n_groups})"
        )


def _coerce_group_column(raw: np.ndarray) -> np.ndarray:
    """Dictionary storage for distinct group keys: integers normalize
    to int64 and strings to object, so dictionaries from different
    chunks concatenate to one dtype; other dtypes (floats) are kept."""
    arr = np.asarray(raw)
    if np.issubdtype(arr.dtype, np.integer):
        return arr.astype(np.int64)
    if arr.dtype.kind in "US":
        return arr.astype(object)
    return arr


class GroupedMomentBundle:
    """Per-group moment state for several weight vectors at once.

    The grouped twin of :class:`MomentSketchBundle`: the grouped
    accumulator of the SBox's chunks and of the streaming tier.  Each
    compacted part has two halves:

    * a small *dictionary* of the distinct group-key tuples it saw —
      one array per GROUP BY column in its natural dtype (strings
      included), in sorted key order, so tuple ``g`` has code ``g``;
    * state rows keyed on *(int64 group code, full lineage key)*
      holding every vector's ``Σ f_j`` plus a row count.

    ``update`` turns a batch's keys into codes once
    (:func:`~repro.core.estimator.group_keys`: a dictionary-encoded
    string column is ranked by counting its codes, a plain one pays one
    hashing pass) and appends the part; ``merge`` appends the other
    bundle's parts.  :meth:`compact` unions every part's dictionary in
    one ``group_keys`` call — ranking distinct tuples only — and remaps
    each part's codes with a take.  No step after the per-batch
    factorization compares a group-key value again, and
    ``groups()``/``moments()`` read the codes as they are.

    State rows need no particular order — ``moments()`` adds each
    group's rows up in state order, and all that fixes its bits is
    that one group's rows come in lineage-key order.  When the packed
    lineage key strictly ascends (a tuple-level sample of one relation
    in scan order, or an FK join probed in key order, chunk after
    chunk) every row is its own state row already, so ``update`` keeps
    the batch as it is and the read-out concatenates: neither sorts.
    Anything else — a join replicating ids, descending or repeated
    ids — compacts by a stable sort on *(group code, lineage key)*,
    with the same moments bit for bit.
    """

    __slots__ = ("lattice", "n_group_cols", "n_vectors", "_parts", "_n_rows")

    def __init__(
        self, lattice: SubsetLattice, n_group_cols: int, n_vectors: int
    ) -> None:
        if n_group_cols < 1:
            raise EstimationError(
                f"need at least one group column, got {n_group_cols}"
            )
        if n_vectors < 1:
            raise EstimationError(
                f"need at least one weight vector, got {n_vectors}"
            )
        self.lattice = lattice
        self.n_group_cols = int(n_group_cols)
        self.n_vectors = int(n_vectors)
        # Each part: (dictionary, codes, lineage keys, sums, counts).
        self._parts: list[tuple] = []
        self._n_rows = 0

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_entries(self) -> int:
        return int(self.compact()[4].shape[0])

    def compact(self) -> tuple:
        """The state as one part: ``(dictionary, codes, keys, sums,
        counts)``, ``codes`` indexing ``dictionary``.

        One ``group_keys`` call unions the parts' dictionaries, a take
        per part remaps its codes, and one
        :func:`~repro.core.estimator.group_reduce_multi` — none when the
        lineage key strictly ascends — reduces the concatenated rows.
        The stable sort adds each entry's partial sums in arrival
        order.  The result replaces the parts.
        """
        if not self._parts:
            return (
                [np.empty(0, dtype=np.int64) for _ in range(self.n_group_cols)],
                np.empty(0, dtype=np.int64),
                [np.empty(0, dtype=np.int64) for _ in range(self.lattice.n)],
                [np.empty(0, dtype=np.float64) for _ in range(self.n_vectors)],
                np.empty(0, dtype=np.float64),
            )
        if len(self._parts) > 1:
            # Union of the dictionaries: the only place group-key values
            # are compared, over distinct tuples.
            both = _stacked(p[0] for p in self._parts)
            dictionary, union, _ = group_keys(both, both[0].shape[0])
            starts = np.cumsum([0] + [p[0][0].shape[0] for p in self._parts])
            codes = np.concatenate(
                [union[start + p[1]] for start, p in zip(starts, self._parts)]
            )
            keys = _stacked(p[2] for p in self._parts)
            weights = _stacked(p[3] + [p[4]] for p in self._parts)
            if not kernels.strictly_ascending(keys):
                merged, weights = group_reduce_multi([codes] + keys, weights)
                codes, keys = merged[0], merged[1:]
            self._parts = [
                (dictionary, codes, keys, weights[:-1], weights[-1])
            ]
        return self._parts[0]

    def lineage_keys(self) -> dict[str, np.ndarray]:
        """Each state entry's lineage key, one int64 column per dim —
        the entries a ``moments(keep=...)`` mask runs over."""
        return dict(zip(self.lattice.dims, self.compact()[2]))

    def update(
        self,
        fs: Sequence[np.ndarray],
        lineage: Mapping[str, np.ndarray],
        group_cols: Sequence,
    ) -> "GroupedMomentBundle":
        """Absorb one batch; ``group_cols[i][r]`` keys row ``r``.

        A group column is an array or, for strings, a dictionary-encoded
        ``(codes, values)`` pair with ``values[codes]`` the rows.
        """
        if len(group_cols) != self.n_group_cols:
            raise EstimationError(
                f"expected {self.n_group_cols} group columns, "
                f"got {len(group_cols)}"
            )
        fs, keys = _checked_batch(self.lattice, self.n_vectors, fs, lineage, group_cols)
        n = fs[0].shape[0]
        if n == 0:
            return self
        dictionary, gids, _ = group_keys(group_cols, n)
        ones = np.ones(n, dtype=np.float64)
        if kernels.strictly_ascending(keys):
            # ``f + 0.0`` is what ``np.bincount`` yields for a one-row
            # entry bit for bit (``-0.0`` becomes ``+0.0`` on both routes).
            codes, sums, counts = gids, [f + 0.0 for f in fs], ones
        else:
            reduced_keys, reduced = group_reduce_multi(
                [gids] + keys, fs + [ones]
            )
            codes, keys = reduced_keys[0], reduced_keys[1:]
            sums, counts = reduced[:-1], reduced[-1]
        dictionary = [_coerce_group_column(col) for col in dictionary]
        self._parts.append((dictionary, codes, keys, sums, counts))
        self._n_rows += n
        return self

    def merge(self, other: "GroupedMomentBundle") -> "GroupedMomentBundle":
        """Fold ``other`` into ``self`` (exact); returns ``self``."""
        if self.lattice != other.lattice:
            raise EstimationError(
                f"cannot merge sketches over different lattices: "
                f"{self.lattice.dims} vs {other.lattice.dims}"
            )
        if (
            self.n_group_cols != other.n_group_cols
            or self.n_vectors != other.n_vectors
        ):
            raise EstimationError(
                "cannot merge grouped bundles of different shapes"
            )
        self._parts.extend(other._parts)
        self._n_rows += other._n_rows
        return self

    def copy(self) -> "GroupedMomentBundle":
        """An independent snapshot, sharing the parts (whose arrays are
        never written in place: a read-out replaces the list)."""
        dup = GroupedMomentBundle(self.lattice, self.n_group_cols, self.n_vectors)
        dup._parts = list(self._parts)
        dup._n_rows = self._n_rows
        return dup

    def groups(self) -> tuple[list[np.ndarray], np.ndarray, int]:
        """``(group key columns, per-entry group code, n_groups)``.

        Group ``g``'s key is row ``g`` of the key columns; groups are in
        sorted key order (last column primary).
        """
        dictionary, codes = self.compact()[:2]
        return list(dictionary), codes, int(dictionary[0].shape[0])

    def moments(
        self, keep: np.ndarray | None = None
    ) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray], np.ndarray]:
        """Per-group plug-in moments for every vector and group.

        Returns ``(group_keys, Ys, totals, counts)``: the distinct
        group key columns, one ``(n_groups, lattice.size)`` matrix and
        one per-group total vector per weight vector, and the per-group
        sample row counts.  ``keep`` restricts the ``Ys`` to the state
        entries it marks; the totals and counts still cover them all.
        """
        key_columns, owner, n_groups = self.groups()
        _, _, keys, sums, entry_counts = self.compact()
        totals = [
            np.bincount(owner, weights=s, minlength=n_groups) for s in sums
        ]
        counts = np.bincount(owner, weights=entry_counts, minlength=n_groups)
        if keep is not None:
            owner = owner[keep]
            keys = [k[keep] for k in keys]
            sums = [s[keep] for s in sums]
        ys = grouped_y_terms_multi(
            sums,
            keys,
            owner,
            n_groups,
            self.lattice,
            # Unrestricted, y_∅ is the square of the totals just counted.
            totals=totals if keep is None else None,
        )
        return key_columns, ys, totals, counts

    def __repr__(self) -> str:
        return (
            f"GroupedMomentBundle(dims={list(self.lattice.dims)}, "
            f"n_group_cols={self.n_group_cols}, "
            f"n_vectors={self.n_vectors}, n_rows={self._n_rows}, "
            f"n_entries={self.n_entries})"
        )

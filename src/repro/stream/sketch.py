"""Mergeable moment sketches: the streaming form of the ``Y_S`` moments.

Theorem 1 needs, per subset ``S`` of the lineage schema, the moment
``Y_S = Σ_{groups g on S} (Σ_{t∈g} f(t))²``.  The square is not
additive, but the *per-group sums* underneath it are: a table mapping
each distinct full-lineage key to its running ``Σ f`` is a commutative
monoid under "concatenate and re-reduce".  Every coarser moment
``Y_S`` (``S ⊂ L``) is then a pure function of that one table, because
a lineage group on ``S`` is a union of full-lineage groups.

:class:`MomentSketchBundle` maintains exactly that table for one or
more weight vectors at once — compacted after every update so its size
is the number of *distinct lineage keys seen*, not the number of rows
ingested — plus the sample row count.  It supports three operations,
all exact:

* ``update(fs, lineage)`` — absorb a batch in one vectorized pass;
* ``merge(other)``        — combine two sketches (chunks, shards,
  windows, machines) with no approximation;
* ``moments()``           — emit one ``(Y_S)_{S⊆L}`` vector per weight
  vector.

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
a :class:`~repro.stream.estimator.StreamingEstimator`, a shard or a
window merges (with a single weight vector).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

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


class MomentSketchBundle:
    """Incremental, mergeable accumulator of the lattice moments.

    The state is a compact group table: ``_keys[i]`` holds the int64
    value of lineage dimension ``lattice.dims[i]`` for each distinct
    full-lineage key, ``_sums[j]`` the running ``Σ f_j`` of that key's
    rows for weight vector ``j``, and ``_n_rows`` the rows absorbed.

    The expensive part of absorbing a batch is the sort over the
    lineage keys; the per-vector sums are one extra ``bincount`` each.
    A multi-aggregate query (every SUM/COUNT plus the two extra AVG
    vectors) therefore folds all its weight vectors through a single
    bundle — one bundle per chunk, one merge tree per query instead of
    per aggregate; the streaming tier holds a bundle of one vector.
    Merge is commutative and associative up to floating-point summation
    order, so bundles combine in any topology.
    """

    __slots__ = ("lattice", "n_vectors", "_keys", "_sums", "_n_rows")

    def __init__(self, lattice: SubsetLattice, n_vectors: int) -> None:
        if n_vectors < 1:
            raise EstimationError(
                f"need at least one weight vector, got {n_vectors}"
            )
        self.lattice = lattice
        self.n_vectors = int(n_vectors)
        self._keys: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(lattice.n)
        ]
        self._sums: list[np.ndarray] = [
            np.empty(0, dtype=np.float64) for _ in range(n_vectors)
        ]
        self._n_rows = 0

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_groups(self) -> int:
        return int(self._sums[0].shape[0])

    def totals(self) -> list[float]:
        """The running ``Σ f_j`` of every vector."""
        return [
            float(np.sum(s)) if s.size else 0.0 for s in self._sums
        ]

    def _absorb(
        self,
        keys: Sequence[np.ndarray],
        sums: Sequence[np.ndarray],
        n_rows: int,
    ) -> None:
        if n_rows == 0 and sums[0].size == 0:
            return
        if self._sums[0].size == 0:
            self._keys, self._sums = list(keys), list(sums)
        else:
            self._keys, self._sums = group_reduce_multi(
                [np.concatenate(pair) for pair in zip(self._keys, keys)],
                [np.concatenate(pair) for pair in zip(self._sums, sums)],
            )
        self._n_rows += int(n_rows)

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
        keys, sums = group_reduce_multi(cols, fs)
        self._absorb(keys, sums, n)
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
        self._absorb(other._keys, other._sums, other._n_rows)
        return self

    def copy(self) -> "MomentSketchBundle":
        """An independent snapshot, sharing the state arrays (which are
        replaced by ``update``/``merge``, never written in place)."""
        dup = MomentSketchBundle(self.lattice, self.n_vectors)
        dup._keys, dup._sums = list(self._keys), list(self._sums)
        dup._n_rows = self._n_rows
        return dup

    def moments(self) -> list[np.ndarray]:
        """One plug-in moment vector ``(Y_S)_{S⊆L}`` per weight vector."""
        return [
            y_terms_from_groups(s, self._keys, self.lattice)
            for s in self._sums
        ]

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
    accumulator of the SBox's chunks and of the streaming tier.  The
    state has two parts:

    * a small *dictionary* of the distinct group-key tuples seen so
      far — one array per GROUP BY column in its natural dtype (strings
      included), in sorted key order, so tuple ``g`` has code ``g``;
    * state rows keyed on *(int64 group code, full lineage key)*
      holding every vector's ``Σ f_j`` plus a row count.

    ``update`` turns a batch's keys into codes once
    (:func:`~repro.core.estimator.group_keys`: a dictionary-encoded
    string column is ranked by counting its codes, a plain one pays one
    hashing pass); ``merge`` unions the two dictionaries — ranking
    distinct tuples only — and remaps both sides' codes with a take.
    No step after the per-batch factorization compares a group-key
    value again, and ``groups()``/``moments()`` read the codes as they
    are.

    State rows need no particular order — ``moments()`` adds each
    group's rows up in state order, and all that fixes its bits is
    that one group's rows come in lineage-key order.  When the lineage
    key is one strictly increasing column (a tuple-level sample of one
    relation in scan order, chunk after chunk) every row is its own
    state row already, so ``update`` keeps the batch as it is and
    ``merge`` concatenates: neither sorts.  Anything else — a join
    replicating ids, descending or repeated ids, several lineage
    columns — compacts by a stable sort on *(group code, lineage
    key)*, with the same moments bit for bit.
    """

    __slots__ = (
        "lattice",
        "n_group_cols",
        "n_vectors",
        "_group_keys",
        "_codes",
        "_keys",
        "_sums",
        "_counts",
        "_n_rows",
    )

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
        self._group_keys: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(n_group_cols)
        ]
        self._codes = np.empty(0, dtype=np.int64)
        self._keys: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(lattice.n)
        ]
        self._sums: list[np.ndarray] = [
            np.empty(0, dtype=np.float64) for _ in range(n_vectors)
        ]
        self._counts = np.empty(0, dtype=np.float64)
        self._n_rows = 0

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_entries(self) -> int:
        return int(self._counts.shape[0])

    def _absorb(
        self,
        dictionary: Sequence[np.ndarray],
        codes: np.ndarray,
        keys: Sequence[np.ndarray],
        sums: Sequence[np.ndarray],
        counts: np.ndarray,
        n_rows: int,
    ) -> None:
        """Fold compacted state in: ``codes`` index ``dictionary``."""
        self._n_rows += int(n_rows)
        if counts.size == 0:
            return
        if self._counts.size == 0:
            self._group_keys = list(dictionary)
            self._codes = codes
            self._keys = list(keys)
            self._sums = list(sums)
            self._counts = counts
            return
        # Union of the two dictionaries: the only place group-key values
        # are compared, over distinct tuples.
        n_mine = self._group_keys[0].shape[0]
        both = [
            np.concatenate([mine, theirs])
            for mine, theirs in zip(self._group_keys, dictionary)
        ]
        self._group_keys, union, _ = group_keys(both, both[0].shape[0])
        merged = [
            np.concatenate([union[:n_mine][self._codes], union[n_mine:][codes]])
        ] + [
            np.concatenate([mine, theirs])
            for mine, theirs in zip(self._keys, keys)
        ]
        weights = [
            np.concatenate([mine, theirs])
            for mine, theirs in zip(self._sums, sums)
        ] + [np.concatenate([self._counts, counts])]
        if not (len(keys) == 1 and kernels.strictly_increasing(merged[1])):
            # Entries are concatenated mine-then-theirs and reduced by a
            # stable sort, which fixes the float addition order whatever
            # the number of chunks.
            merged, weights = group_reduce_multi(merged, weights)
        self._codes = merged[0]
        self._keys = merged[1:]
        self._sums = weights[: self.n_vectors]
        self._counts = weights[self.n_vectors]

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
        if len(keys) == 1 and kernels.strictly_increasing(keys[0]):
            # ``f + 0.0`` is what ``np.bincount`` yields for a one-row
            # entry bit for bit (``-0.0`` becomes ``+0.0`` on both routes).
            codes, sums, counts = gids, [f + 0.0 for f in fs], ones
        else:
            reduced_keys, reduced = group_reduce_multi(
                [gids] + keys, fs + [ones]
            )
            codes, keys = reduced_keys[0], reduced_keys[1:]
            sums, counts = reduced[:-1], reduced[-1]
        self._absorb(
            [_coerce_group_column(col) for col in dictionary],
            codes,
            keys,
            sums,
            counts,
            n,
        )
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
        self._absorb(
            other._group_keys,
            other._codes,
            other._keys,
            other._sums,
            other._counts,
            other._n_rows,
        )
        return self

    def copy(self) -> "GroupedMomentBundle":
        """An independent snapshot, sharing the state arrays (which are
        replaced by ``update``/``merge``, never written in place)."""
        dup = GroupedMomentBundle(self.lattice, self.n_group_cols, self.n_vectors)
        dup._group_keys, dup._codes = list(self._group_keys), self._codes
        dup._keys, dup._sums = list(self._keys), list(self._sums)
        dup._counts, dup._n_rows = self._counts, self._n_rows
        return dup

    def groups(self) -> tuple[list[np.ndarray], np.ndarray, int]:
        """``(group key columns, per-entry group code, n_groups)``.

        Group ``g``'s key is row ``g`` of the key columns; groups are in
        sorted key order (last column primary).
        """
        return (
            list(self._group_keys),
            self._codes,
            int(self._group_keys[0].shape[0]),
        )

    def moments(
        self,
    ) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray], np.ndarray]:
        """Per-group plug-in moments for every vector and group.

        Returns ``(group_keys, Ys, totals, counts)``: the distinct
        group key columns, one ``(n_groups, lattice.size)`` matrix and
        one per-group total vector per weight vector, and the per-group
        sample row counts.
        """
        key_columns, owner, n_groups = self.groups()
        ys = grouped_y_terms_multi(
            self._sums, self._keys, owner, n_groups, self.lattice
        )
        totals = [
            np.bincount(owner, weights=s, minlength=n_groups)
            for s in self._sums
        ]
        counts = np.bincount(
            owner, weights=self._counts, minlength=n_groups
        )
        return key_columns, ys, totals, counts

    def __repr__(self) -> str:
        return (
            f"GroupedMomentBundle(dims={list(self.lattice.dims)}, "
            f"n_group_cols={self.n_group_cols}, "
            f"n_vectors={self.n_vectors}, n_rows={self._n_rows}, "
            f"n_entries={self.n_entries})"
        )

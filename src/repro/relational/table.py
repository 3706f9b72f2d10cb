"""Columnar tables with lineage columns.

A :class:`Table` stores data columns and, separately, one int64
*lineage* column per base relation that contributed rows.  Lineage ids
dissociate a tuple's identity from its content (the paper's Section 4.2
requirement): the estimator only ever compares them for equality.

Identity is also cheaper than content: choosing rows (:meth:`Table.take`,
a join's matched pairs) gathers the lineage at once — every consumer
reads it — and leaves each data column as a *pending* gather in
:class:`Columns` that runs the first time the column is read.  An
estimate that reads one column of a sample copies one column.

A string column has a second form that is cheaper still: dictionary +
integer codes (:class:`Encoded`).  It is what the colstore keeps on
disk and what a GROUP BY consumes; the array of Python strings is
decoded from it — or the codes are computed from the strings — the
first time somebody asks for the form that is not there.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.core import kernels
from repro.errors import SchemaError
from repro.relational.schema import Column, ColumnType, Schema

_OBJECT = np.dtype(object)


def _as_column_array(values: Any) -> "np.ndarray | Encoded":
    """Coerce input values to a 1-D storage column.

    Strings are held as :class:`Encoded`, so every table derived from
    this one shares whichever of the two forms has been computed.
    """
    if type(values) is Encoded:
        return values
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise SchemaError(f"columns must be 1-D, got shape {arr.shape}")
    if arr.dtype.kind in "US":
        arr = arr.astype(object)
    return Encoded(arr) if arr.dtype == _OBJECT else arr


def _gather(source: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``source[index]``: the one place a pending column gather runs."""
    return source[index]


def _rows_of(source: np.ndarray, rows: "np.ndarray | slice") -> np.ndarray:
    """A view for a ``slice``, a (counted) gather for an index array."""
    return source[rows] if isinstance(rows, slice) else _gather(source, rows)


class Encoded:
    """A string column in two forms: object array, dictionary + codes.

    ``array()`` is the column as an object array of Python values and
    ``pair()`` is ``(int32 codes, values)`` with ``values[codes]`` equal
    to the array (``values`` distinct, in no promised order).  A column
    built from strings has the array and computes the pair with one
    :func:`repro.core.kernels.factorize` pass when first asked; a column
    attached from the colstore has the pair (codes memory-mapped) and
    decodes the array when first asked.  Either way the other form is
    computed once and kept, and the column's content never changes.

    ``rows(key)`` selects rows without computing anything: the selection
    refers to this column and takes its rows from whichever form is
    asked of it, so the base column's encoding is computed at most once
    however many chunks, samples and snapshots derive from it, and a
    selection of a memory-mapped column never decodes rows outside
    itself.  Unlocked like :class:`Columns`: racing readers compute
    equal contents and one assignment wins.
    """

    __slots__ = ("_parent", "_rows", "_array", "_pair")

    dtype = _OBJECT

    def __init__(
        self,
        array: np.ndarray | None = None,
        pair: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        self._parent: Encoded | None = None
        self._rows: np.ndarray | slice | None = None
        self._array = array
        self._pair = pair

    def rows(self, key: "np.ndarray | slice") -> "Encoded":
        """This column restricted to rows ``key`` (index array or slice)."""
        selected = Encoded()
        selected._parent = self
        selected._rows = key
        return selected

    @property
    def shape(self) -> tuple[int]:
        if self._array is not None:
            return self._array.shape
        if self._pair is not None:
            return self._pair[0].shape
        if isinstance(self._rows, slice):
            return (len(range(*self._rows.indices(self._parent.shape[0]))),)
        return self._rows.shape

    def _has_array(self) -> bool:
        """Whether the object array exists somewhere up the chain."""
        return self._array is not None or (
            self._parent is not None and self._parent._has_array()
        )

    def _has_pair(self) -> bool:
        """Whether the codes exist somewhere up the chain."""
        return self._pair is not None or (
            self._parent is not None and self._parent._has_pair()
        )

    def array(self) -> np.ndarray:
        """The column as an object array (computed once, then kept)."""
        arr = self._array
        if arr is None:
            if self._parent is not None and self._parent._has_array():
                arr = _rows_of(self._parent.array(), self._rows)
            else:  # decode these rows only
                codes, values = self.pair()
                arr = values[codes]
            self._array = arr
        return arr

    def pair(self) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, values)`` (computed once, then kept)."""
        pair = self._pair
        if pair is None:
            if self._parent is None:
                pair = kernels.factorize(self._array)
            else:
                codes, values = self._parent.pair()
                pair = (_rows_of(codes, self._rows), values)
            self._pair = pair
        return pair


class Columns(Mapping):
    """Read-only ``name -> array`` mapping; row gathers run on first read.

    A slot holds an array, an :class:`Encoded` string column, or a
    pending gather ``(source, index array)`` whose source is either of
    the two.  Reading a name runs ``source[index]`` once and keeps the
    result, so every later read returns the same object; an encoded
    column reads as its object array, the same object from every table
    that shares the column.

    Known without reading: names and their order, ``len``, ``in``,
    iteration and :meth:`dtype`.  ``items()``, ``values()``,
    ``dict(columns)`` and ``**columns`` read every column.

    A pending slot is never chained: its source is always a column that
    exists and :meth:`rows` composes index arrays instead, so a read is
    exactly one gather, copying the very elements a chain of eager
    gathers would have copied.  The set of names never changes after
    construction (a read replaces a slot's value, never a key), so
    iterating while another thread reads is safe.
    """

    __slots__ = ("_slots",)

    def __init__(self, slots: dict[str, Any]) -> None:
        self._slots = slots

    def _column(self, name: str) -> "np.ndarray | Encoded":
        """The slot with its pending gather, if any, resolved and kept.

        A gather from an encoded source is itself encoded — a selection
        that copies rows only in the form somebody asks of it.
        """
        slot = self._slots[name]
        if type(slot) is tuple:
            # Unlocked on purpose: two threads reading the same pending
            # slot both gather and one assignment wins — equal contents.
            source, index = slot
            slot = self._slots[name] = (
                source.rows(index)
                if type(source) is Encoded
                else _gather(source, index)
            )
        return slot

    def __getitem__(self, name: str) -> np.ndarray:
        slot = self._column(name)
        return slot.array() if type(slot) is Encoded else slot

    def encoded(self, name: str) -> tuple[np.ndarray, np.ndarray] | None:
        """A string column as ``(codes, values)``; ``None`` for any other.

        ``values[codes]`` is the column this table reads; the codes are
        restricted to this table's rows and no Python string is touched
        unless the column was built from strings and nobody encoded it
        before (one hashing pass, shared with every table derived from
        the same column).
        """
        slot = self._column(name)
        if type(slot) is not Encoded:
            if slot.dtype != _OBJECT:
                return None
            slot = self._slots[name] = Encoded(slot)
        return slot.pair()

    def __iter__(self):
        return iter(self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, name: object) -> bool:
        return name in self._slots

    def __repr__(self) -> str:
        return f"Columns({list(self._slots)})"

    def dtype(self, name: str) -> np.dtype:
        """The column's dtype (a gather preserves it), without reading."""
        slot = self._slots[name]
        return (slot[0] if type(slot) is tuple else slot).dtype

    def rows(
        self, key: "np.ndarray | slice", names: Iterable[str] | None = None
    ) -> "Columns":
        """The columns (all, or ``names``) restricted to rows ``key``.

        Nothing is read.  An index array defers the gather; a ``slice``
        takes views.  Either way a pending slot keeps its source and
        gets the composed index ``index[key]`` — computed once per
        distinct parent index and shared by every column that carries
        it.
        """
        defer = not isinstance(key, slice)
        composed: dict[int, np.ndarray] = {}
        slots: dict[str, Any] = {}
        for name in self._slots if names is None else names:
            slot = self._slots[name]
            if type(slot) is tuple:
                source, parent = slot
                index = composed.get(id(parent))
                if index is None:
                    index = composed[id(parent)] = parent[key]
                slots[name] = (source, index)
            elif defer:
                slots[name] = (slot, key)
            else:
                slots[name] = (
                    slot.rows(key) if type(slot) is Encoded else slot[key]
                )
        return Columns(slots)

    def __or__(self, other: "Columns") -> "Columns":
        """Both sides' columns (``other`` wins a shared name), nothing read."""
        return Columns({**self._slots, **other._slots})


def concat_column(parts: "Sequence[Columns]", name: str) -> "np.ndarray | Encoded":
    """Column ``name`` of several row sets, stacked (read in every part).

    String parts that already have codes over one shared dictionary —
    chunks of one base column — stack as codes; anything else stacks as
    arrays.
    """
    slots = [part._column(name) for part in parts]
    if all(type(slot) is Encoded and slot._has_pair() for slot in slots):
        pairs = [slot.pair() for slot in slots]
        values = pairs[0][1]
        if all(pair[1] is values for pair in pairs):
            return Encoded(
                pair=(np.concatenate([pair[0] for pair in pairs]), values)
            )
    return np.concatenate(
        [slot.array() if type(slot) is Encoded else slot for slot in slots]
    )


class Table:
    """An immutable-by-convention columnar table.

    ``columns`` is a :class:`Columns` mapping of column names to
    equal-length arrays; ``lineage`` maps base-relation names to int64
    id arrays of the same length.  All transformation methods return
    new tables.

    A table built from arrays holds plain arrays (a string column as
    an :class:`Encoded` around its object array).  :meth:`take`,
    :meth:`filter`, :meth:`slice` of a gathered table and a join's
    output hold *pending* columns — lineage is gathered on the spot,
    a data column when it is first read; names, order, dtypes,
    ``schema`` and ``n_rows`` are known without reading.
    :meth:`with_lineage`, :meth:`rename` and :meth:`with_version` share
    one :class:`Columns` object, so a column read through any of them is
    read for all of them.

    Until it is read, a pending column refers to its source array and
    to the row index (8 bytes a row, shared by all columns of the
    table).  That is sound because arrays handed to or returned by a
    table are never written in place — an update copies first
    (:meth:`with_columns`) — and it bounds lifetimes because a stored
    sample cannot outlive its base table's invalidation: no source
    array lives longer than a caller's own reference to a sample.
    """

    __slots__ = (
        "name",
        "schema",
        "columns",
        "lineage",
        "n_rows",
        "version",
        "_mmap_path",
        "_block_stats",
    )

    def __init__(
        self,
        name: str | None,
        columns: Mapping[str, Any],
        lineage: Mapping[str, Any] | None = None,
    ) -> None:
        converted: dict[str, np.ndarray] = {
            col_name: _as_column_array(values)
            for col_name, values in columns.items()
        }
        lengths = {arr.shape[0] for arr in converted.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        if lengths:
            self.n_rows = lengths.pop()
        elif lineage:
            # A table may carry lineage only (e.g. a column-pruned
            # COUNT(*) pipeline); the row count then comes from it.
            self.n_rows = np.asarray(next(iter(lineage.values()))).shape[0]
        else:
            self.n_rows = 0
        self.name = name
        self.columns = Columns(converted)
        self.schema = Schema(
            Column(col_name, ColumnType.from_dtype(arr.dtype))
            for col_name, arr in converted.items()
        )
        lin: dict[str, np.ndarray] = {}
        for rel, ids in (lineage or {}).items():
            ids_arr = np.asarray(ids, dtype=np.int64)
            if ids_arr.shape != (self.n_rows,):
                raise SchemaError(
                    f"lineage column {rel!r} has shape {ids_arr.shape}, "
                    f"expected ({self.n_rows},)"
                )
            lin[rel] = ids_arr
        self.lineage = lin
        self.version = None
        self._mmap_path = None
        self._block_stats = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def _share(
        cls,
        name: str | None,
        columns: "Columns | dict[str, np.ndarray]",
        lineage: dict[str, np.ndarray],
        schema: Schema,
        n_rows: int,
    ) -> "Table":
        """Build a table from already-validated columns, skipping checks.

        The zero-copy constructor behind :meth:`take`, :meth:`filter`,
        :meth:`slice`, :meth:`with_lineage`, and :meth:`select_columns`:
        those transformations cannot change dtypes or introduce ragged
        columns, so re-validating (and rebuilding the schema) per chunk
        per operator would be pure overhead on the hot path.
        """
        table = cls.__new__(cls)
        table.name = name
        table.columns = (
            columns if isinstance(columns, Columns) else Columns(columns)
        )
        table.lineage = lineage
        table.schema = schema
        table.n_rows = n_rows
        table.version = None
        table._mmap_path = None
        table._block_stats = None
        return table

    @classmethod
    def from_rows(
        cls,
        name: str | None,
        column_names: Sequence[str],
        rows: Iterable[Sequence[Any]],
    ) -> "Table":
        """Build a table from an iterable of row tuples."""
        materialized = [tuple(row) for row in rows]
        if materialized and any(len(r) != len(column_names) for r in materialized):
            raise SchemaError("row arity does not match column names")
        columns = {
            col_name: np.array([row[i] for row in materialized])
            if materialized
            else np.empty(0, dtype=np.float64)
            for i, col_name in enumerate(column_names)
        }
        return cls(name, columns)

    @classmethod
    def from_mmap(cls, path: Any, name: str | None = None) -> "Table":
        """Open a persisted columnar table as zero-copy memory maps.

        Data and lineage columns are ``np.memmap`` views over the files
        on disk — a string column is its memory-mapped codes plus the
        footer's dictionary (:class:`Encoded`), decoded only for the
        rows somebody reads as strings — so slicing chunks out of the
        table never copies and the OS pages data in on demand.
        """
        from repro.colstore.format import load_columnar

        data = load_columnar(path)
        table = cls(
            name if name is not None else data.name,
            {
                n: Encoded(pair=c) if type(c) is tuple else c
                for n, c in data.columns.items()
            },
            data.lineage,
        )
        table._mmap_path = str(data.path)
        table._block_stats = data.block_stats
        return table

    def persist(self, path: Any, *, block_rows: int = 1 << 20) -> "Table":
        """Write this table to ``path`` and return an mmap-backed view.

        Rows stream out in ``block_rows`` blocks (each becomes one
        min/max stats block for scan pruning); the returned table reads
        back through :meth:`from_mmap`, so the in-RAM copy can be
        dropped.
        """
        from repro.relational.io import write_columnar

        write_columnar(self, path, block_rows=block_rows)
        return Table.from_mmap(path, self.name)

    @property
    def is_mmap(self) -> bool:
        """Whether this table is a whole-table view over a colstore dir."""
        return self._mmap_path is not None

    @property
    def block_stats(self) -> Mapping[str, list] | None:
        """Per-block (start, stop, min, max) stats, if mmap-backed."""
        return self._block_stats

    @property
    def lineage_schema(self) -> frozenset[str]:
        """Base relations this table carries lineage for."""
        return frozenset(self.lineage)

    # -- access -----------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r}; available: {list(self.columns)}"
            ) from None

    def _stored(self, names: Iterable[str]) -> dict[str, Any]:
        """Columns as held (gathers run, strings in whichever form they
        have): what a new table over the same data is built from."""
        try:
            return {n: self.columns._column(n) for n in names}
        except KeyError as missing:
            raise SchemaError(
                f"no column {missing.args[0]!r}; "
                f"available: {list(self.columns)}"
            ) from None

    def to_rows(self) -> list[tuple[Any, ...]]:
        """Materialize as row tuples (test/debug helper)."""
        cols = [self.columns[n] for n in self.schema.names]
        return [tuple(c[i] for c in cols) for i in range(self.n_rows)]

    def lineage_rows(self) -> list[tuple[int, ...]]:
        """Lineage tuples in canonical (sorted relation name) order."""
        rels = sorted(self.lineage)
        return [
            tuple(int(self.lineage[r][i]) for r in rels)
            for i in range(self.n_rows)
        ]

    # -- transformations ---------------------------------------------------

    def take(self, indices: np.ndarray) -> "Table":
        """Rows by position: lineage gathered now, data columns pending.

        Each data column is gathered from its source the first time it
        is read (:class:`Columns`); a column nobody reads is never
        copied.  ``indices`` is kept, not copied — like every array a
        table holds it must not be written afterwards.  A position out
        of range raises here when the table carries lineage, otherwise
        at the first read.
        """
        indices = np.asarray(indices)
        if indices.size == 0:
            indices = indices.astype(np.intp)  # ``[]`` arrives as float64
        return Table._share(
            self.name,
            self.columns.rows(indices),
            {r: ids[indices] for r, ids in self.lineage.items()},
            self.schema,
            int(indices.shape[0]),
        )

    def slice(self, start: int, stop: int) -> "Table":
        """Contiguous row range as zero-copy views (the chunk primitive).

        Nothing is read: an array is viewed, a pending column keeps its
        source and a view of its index.
        """
        start = max(0, min(int(start), self.n_rows))
        stop = max(start, min(int(stop), self.n_rows))
        return Table._share(
            self.name,
            self.columns.rows(slice(start, stop)),
            {r: ids[start:stop] for r, ids in self.lineage.items()},
            self.schema,
            stop - start,
        )

    def filter(self, mask: np.ndarray) -> "Table":
        """Keep rows where ``mask`` is true.

        An all-true mask returns ``self`` unchanged — filters run once
        per chunk per operator in the pipeline, so the common
        nothing-dropped case must not pay for a full gather.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_rows,):
            raise SchemaError(
                f"mask shape {mask.shape} does not match {self.n_rows} rows"
            )
        if mask.all():
            return self
        return self.take(np.flatnonzero(mask))

    def with_lineage(self, relation: str, ids: np.ndarray) -> "Table":
        """Attach (or replace) the lineage column of one base relation."""
        ids_arr = np.asarray(ids, dtype=np.int64)
        if ids_arr.shape != (self.n_rows,):
            raise SchemaError(
                f"lineage column {relation!r} has shape {ids_arr.shape}, "
                f"expected ({self.n_rows},)"
            )
        new_lineage = dict(self.lineage)
        new_lineage[relation] = ids_arr
        return Table._share(
            self.name,
            self.columns,
            new_lineage,
            self.schema,
            self.n_rows,
        )

    def select_columns(self, names: Sequence[str]) -> "Table":
        """Project to the named data columns (lineage always survives).

        Selecting the identity column set (same names, same order)
        returns ``self`` unchanged.  Otherwise the selected columns are
        *read* here, in this table: narrowing a stored sample is what
        gathers a column it has not served yet, once, for every later
        reader of that sample.
        """
        names = list(names)
        if names == list(self.columns):
            return self
        return Table(self.name, self._stored(names), self.lineage)

    def rename(self, name: str | None) -> "Table":
        if name == self.name:
            return self
        renamed = Table._share(
            name,
            self.columns,
            dict(self.lineage),
            self.schema,
            self.n_rows,
        )
        # Renaming is the one share-path transform that keeps the full
        # row set, so the mmap descriptor (and its scan-prune stats)
        # survives — Database.register renames on attach.  The version
        # stamp does NOT: a renamed table is a new identity.
        renamed._mmap_path = self._mmap_path
        renamed._block_stats = self._block_stats
        return renamed

    def with_version(self, version: int | None) -> "Table":
        """The same table contents stamped as snapshot ``version``.

        Zero-copy: columns, lineage, and any mmap descriptor are
        shared — a snapshot is identity, not data.
        """
        if version == self.version:
            return self
        stamped = Table._share(
            self.name,
            self.columns,
            self.lineage,
            self.schema,
            self.n_rows,
        )
        stamped.version = version
        stamped._mmap_path = self._mmap_path
        stamped._block_stats = self._block_stats
        return stamped

    def with_columns(self, updates: Mapping[str, Any]) -> "Table":
        """Copy-on-write column update: replace/add only ``updates``.

        Columns not named in ``updates`` stay the *same arrays* as this
        table's (zero-copy sharing; a string column keeps its encoding
        too), which is what makes snapshot-then-mutate cheap: after
        ``db.update_table(t, old.with_columns({...}))`` the snapshot and
        the live table share every untouched column.  Row positions are
        unchanged, so lineage (the coordinated-sampling key) carries
        over; new columns must match the row count.
        """
        merged = self._stored(self.columns)
        for col_name, values in updates.items():
            arr = _as_column_array(values)
            if arr.shape != (self.n_rows,):
                raise SchemaError(
                    f"column {col_name!r} has shape {arr.shape}, "
                    f"expected ({self.n_rows},)"
                )
            merged[col_name] = arr
        return Table(self.name, merged, self.lineage)

    def head(self, k: int = 10) -> "Table":
        return self.take(np.arange(min(k, self.n_rows)))

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{c.name}:{c.type.value}" for c in self.schema.columns
        )
        lin = ",".join(sorted(self.lineage)) or "-"
        backing = ", mmap" if self._mmap_path is not None else ""
        stamp = f", version={self.version}" if self.version is not None else ""
        return (
            f"Table({self.name or '<anon>'}, rows={self.n_rows}, "
            f"cols=[{cols}], lineage=[{lin}]{stamp}{backing})"
        )

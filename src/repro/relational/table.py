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
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.errors import SchemaError
from repro.relational.schema import Column, ColumnType, Schema


def _as_column_array(values: Any) -> np.ndarray:
    """Coerce input values to a 1-D storage array."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise SchemaError(f"columns must be 1-D, got shape {arr.shape}")
    if arr.dtype.kind in "US":
        arr = arr.astype(object)
    return arr


def _gather(source: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``source[index]``: the one place a pending column gather runs."""
    return source[index]


class Columns(Mapping):
    """Read-only ``name -> array`` mapping; row gathers run on first read.

    A slot holds either an array or a pending gather ``(source array,
    index array)``.  Reading a name runs ``source[index]`` once and
    keeps the result, so every later read returns the same object.

    Known without reading: names and their order, ``len``, ``in``,
    iteration and :meth:`dtype`.  ``items()``, ``values()``,
    ``dict(columns)`` and ``**columns`` read every column.

    A pending slot is never chained: its source is always a real array
    and :meth:`rows` composes index arrays instead, so a read is exactly
    one gather, copying the very elements a chain of eager gathers would
    have copied.  The set of names never changes after construction
    (a read replaces a slot's value, never a key), so iterating while
    another thread reads is safe.
    """

    __slots__ = ("_slots",)

    def __init__(self, slots: dict[str, Any]) -> None:
        self._slots = slots

    def __getitem__(self, name: str) -> np.ndarray:
        slot = self._slots[name]
        if type(slot) is tuple:
            # Unlocked on purpose: two threads reading the same pending
            # slot both gather and one assignment wins — equal contents.
            slot = self._slots[name] = _gather(*slot)
        return slot

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

    def rows(self, key: "np.ndarray | slice") -> "Columns":
        """The same columns restricted to rows ``key``, nothing read.

        An index array defers the gather; a ``slice`` takes views.
        Either way a pending slot keeps its source and gets the
        composed index ``index[key]`` — computed once per distinct
        parent index and shared by every column that carries it.
        """
        defer = not isinstance(key, slice)
        composed: dict[int, np.ndarray] = {}
        slots: dict[str, Any] = {}
        for name, slot in self._slots.items():
            if type(slot) is tuple:
                source, parent = slot
                index = composed.get(id(parent))
                if index is None:
                    index = composed[id(parent)] = parent[key]
                slots[name] = (source, index)
            else:
                slots[name] = (slot, key) if defer else slot[key]
        return Columns(slots)

    def __or__(self, other: "Columns") -> "Columns":
        """Both sides' columns (``other`` wins a shared name), nothing read."""
        return Columns({**self._slots, **other._slots})


class Table:
    """An immutable-by-convention columnar table.

    ``columns`` is a :class:`Columns` mapping of column names to
    equal-length arrays; ``lineage`` maps base-relation names to int64
    id arrays of the same length.  All transformation methods return
    new tables.

    A table built from arrays holds plain arrays.  :meth:`take`,
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
        on disk (dictionary-encoded string columns decode to object
        arrays — the documented exception), so slicing chunks out of the
        table never copies and the OS pages data in on demand.
        """
        from repro.colstore.format import load_columnar

        data = load_columnar(path)
        table = cls(
            name if name is not None else data.name,
            data.columns,
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
        from repro.colstore.format import ColumnarWriter

        with ColumnarWriter(
            path, self.name, list(self.columns), list(self.lineage)
        ) as writer:
            for start in range(0, max(self.n_rows, 1), block_rows):
                chunk = self.slice(start, start + block_rows)
                writer.append(chunk.columns, chunk.lineage)
        return Table.from_mmap(path, self.name)

    @property
    def is_mmap(self) -> bool:
        """Whether this table is a whole-table view over a colstore dir."""
        return self._mmap_path is not None

    @property
    def block_stats(self) -> Mapping[str, list] | None:
        """Per-block (start, stop, min, max) stats, if mmap-backed."""
        return self._block_stats

    def __reduce__(self):
        # Mmap-backed whole tables pickle as a (path, name) descriptor
        # so process-pool payloads stay O(bytes) regardless of row
        # count; everything else rebuilds from its arrays — read
        # first, so a pending column ships its rows, not its source.
        if self._mmap_path is not None:
            return (
                _table_from_mmap,
                (self._mmap_path, self.name, self.version),
            )
        return (
            _table_rebuild,
            (self.name, dict(self.columns), self.lineage, self.version),
        )

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
        return Table(
            self.name,
            {n: self.column(n) for n in names},
            self.lineage,
        )

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
        table's (zero-copy sharing), which is what makes
        snapshot-then-mutate cheap: after
        ``db.update_table(t, old.with_columns({...}))`` the snapshot and
        the live table share every untouched column.  Row positions are
        unchanged, so lineage (the coordinated-sampling key) carries
        over; new columns must match the row count.
        """
        merged = dict(self.columns)
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


def _table_from_mmap(
    path: str, name: str | None, version: int | None = None
) -> Table:
    """Unpickle target: reattach a descriptor-pickled mmap table."""
    return Table.from_mmap(path, name).with_version(version)


def _table_rebuild(
    name: str | None,
    columns: Mapping[str, Any],
    lineage: Mapping[str, Any],
    version: int | None = None,
) -> Table:
    """Unpickle target: rebuild an in-RAM table from its arrays."""
    return Table(name, columns, lineage).with_version(version)

"""On-disk layout of the memory-mapped columnar store.

A persisted table is a directory::

    table_dir/
        col_0.bin      # one raw binary file per data column
        col_1.bin
        lin_0.bin      # one int64 file per lineage column
        footer.json    # written last, atomically

The footer records, per column: the storage ``kind`` (``raw`` for
numeric/bool dtypes, ``dict`` for strings), the numpy dtype string, the
exact byte length of the data file, and per-append-block ``stats``
(``[start, stop, min, max]`` row ranges) that the pipeline uses for
scan pruning.  Numeric columns use NaN as the null; a block whose
values are all NaN records ``null`` bounds, which the pruner treats as
"may match anything".

Crash safety comes from write ordering: column files are flushed and
closed *before* the footer is renamed into place, and the reader
validates every file's size against the footer.  A torn or truncated
file therefore fails loud with :class:`~repro.errors.StorageError`
instead of surfacing as silently-wrong numbers.

String columns are dictionary-encoded: int32 codes on disk, the value
list (in first-seen row order) in the footer.  They load as they are
stored — :func:`load_columnar` maps the codes and hands out ``(codes,
values)``; the table layer decodes Python strings only for rows that
are read as strings.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import kernels
from repro.errors import SchemaError, StorageError
from repro.obs.trace import get_tracer, maybe_span

FOOTER_NAME = "footer.json"
FORMAT_NAME = "repro-colstore"
FORMAT_VERSION = 1

#: Codes dtype for dictionary-encoded string columns.
_CODES_DTYPE = np.dtype("<i4")

#: numpy dtype kinds storable as raw bytes (everything else must be
#: dictionary-encoded or rejected).
_RAW_KINDS = frozenset("iufb")


def _footer_dtype(dtype: np.dtype) -> str:
    """Portable dtype string for the footer (explicit byte order)."""
    return np.dtype(dtype).str


@dataclass
class _ColumnState:
    """Per-column writer state, fixed on the first non-empty append."""

    name: str
    file_name: str
    handle: object
    kind: str | None = None  # "raw" | "dict"
    dtype: np.dtype | None = None
    nbytes: int = 0
    stats: list = field(default_factory=list)
    # dict-encoding state
    mapping: dict = field(default_factory=dict)
    values: list = field(default_factory=list)


class ColumnarWriter:
    """Streaming block-wise writer for the columnar layout.

    Feed it equal-length column blocks via :meth:`append`; each append
    becomes one stats block in the footer.  The footer is written only
    on :meth:`close` (context-manager exit), so a crash mid-write
    leaves no footer and the directory reads as torn.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        name: str | None,
        column_names: Sequence[str],
        lineage_names: Sequence[str] = (),
    ) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.name = name
        self.n_rows = 0
        self._closed = False
        self._columns = [
            _ColumnState(
                name=col,
                file_name=f"col_{i}.bin",
                handle=open(self.path / f"col_{i}.bin", "wb"),
            )
            for i, col in enumerate(column_names)
        ]
        self._lineage = [
            _ColumnState(
                name=rel,
                file_name=f"lin_{i}.bin",
                handle=open(self.path / f"lin_{i}.bin", "wb"),
                kind="raw",
                dtype=np.dtype("<i8"),
            )
            for i, rel in enumerate(lineage_names)
        ]

    # -- writing -----------------------------------------------------------

    def append(
        self,
        columns: Mapping[str, "np.ndarray | tuple[np.ndarray, np.ndarray]"],
        lineage: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        """Write one block of rows (one stats entry per data column).

        A string column is given as an array of ``str``/``None`` or,
        already dictionary-encoded, as a ``(codes, values)`` pair with
        ``values[codes]`` the rows.
        """
        if self._closed:
            raise StorageError("writer is closed")
        lineage = lineage or {}
        if set(columns) != {c.name for c in self._columns}:
            raise SchemaError(
                f"append columns {sorted(columns)} do not match writer "
                f"columns {sorted(c.name for c in self._columns)}"
            )
        if set(lineage) != {c.name for c in self._lineage}:
            raise SchemaError(
                f"append lineage {sorted(lineage)} does not match writer "
                f"lineage {sorted(c.name for c in self._lineage)}"
            )
        blocks = {
            n: c if type(c) is tuple else np.asarray(c)
            for n, c in columns.items()
        }
        lengths = {
            (b[0] if type(b) is tuple else b).shape[0] for b in blocks.values()
        }
        for rel, ids in lineage.items():
            lengths.add(np.asarray(ids).shape[0])
        if len(lengths) > 1:
            raise SchemaError(f"ragged append block: lengths {sorted(lengths)}")
        block_len = lengths.pop() if lengths else 0
        if block_len == 0:
            return
        start, stop = self.n_rows, self.n_rows + block_len
        for state in self._columns:
            self._append_column(state, blocks[state.name], start, stop)
        for state in self._lineage:
            ids = np.ascontiguousarray(
                np.asarray(lineage[state.name], dtype=np.int64)
            )
            state.handle.write(memoryview(ids))
            state.nbytes += ids.nbytes
        self.n_rows = stop

    def _append_column(
        self,
        state: _ColumnState,
        block: "np.ndarray | tuple[np.ndarray, np.ndarray]",
        start: int,
        stop: int,
    ) -> None:
        encoded = type(block) is tuple
        if state.kind is None:
            strings = encoded or block.dtype.kind in "OUS"
            state.kind = "dict" if strings else "raw"
            if state.kind == "raw":
                if block.dtype.kind not in _RAW_KINDS:
                    raise SchemaError(
                        f"column {state.name!r}: unsupported dtype "
                        f"{block.dtype!r} for columnar storage"
                    )
                state.dtype = block.dtype.newbyteorder("<")
        if state.kind == "dict":
            if not encoded:
                try:
                    block = kernels.factorize(block)
                except TypeError as exc:
                    raise SchemaError(
                        f"column {state.name!r}: dictionary-encoded "
                        f"columns hold str/None ({exc})"
                    ) from exc
            out = self._encode_dict(state, *block)
        else:
            if encoded:
                block = block[1][block[0]]
            if block.dtype != state.dtype:
                block = block.astype(state.dtype)
            out = np.ascontiguousarray(block)
        state.handle.write(memoryview(out))
        state.nbytes += out.nbytes
        state.stats.append(self._block_stats(state, block, start, stop))

    @staticmethod
    def _encode_dict(
        state: _ColumnState, codes: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """One block's file codes from its dictionary codes.

        Only the block's distinct values are looked at: those new to
        the file join its dictionary in first-seen row order (what a
        row-by-row encoder assigns, so the bytes on disk do not depend
        on how a block arrived), then one gather recodes the rows.
        """
        mapping = state.mapping
        present = np.flatnonzero(
            np.bincount(codes, minlength=len(values))
        ).tolist()
        new = [c for c in present if values[c] not in mapping]
        if len(new) > 1:
            first = np.full(len(values), codes.shape[0], dtype=np.int64)
            np.minimum.at(first, codes, np.arange(codes.shape[0]))
            new.sort(key=first.__getitem__)
        for c in new:
            v = values[c]
            if v is not None and not isinstance(v, str):
                raise SchemaError(
                    f"column {state.name!r}: dictionary-encoded columns "
                    f"hold str/None, got {type(v).__name__}"
                )
            mapping[v] = len(state.values)
            state.values.append(v)
        recode = np.zeros(len(values), dtype=_CODES_DTYPE)
        recode[present] = [mapping[values[c]] for c in present]
        return recode[codes]

    @staticmethod
    def _block_stats(
        state: _ColumnState, arr: np.ndarray, start: int, stop: int
    ) -> list:
        if state.kind != "raw" or state.dtype.kind not in "iuf":
            return [start, stop, None, None]
        if state.dtype.kind == "f":
            finite = arr[~np.isnan(arr)]
            if finite.size == 0:
                return [start, stop, None, None]
            return [start, stop, float(finite.min()), float(finite.max())]
        return [start, stop, int(arr.min()), int(arr.max())]

    # -- footer ------------------------------------------------------------

    def close(self) -> Path:
        """Flush column files, then atomically publish the footer."""
        if self._closed:
            return self.path
        self._closed = True
        for state in self._columns + self._lineage:
            state.handle.flush()
            os.fsync(state.handle.fileno())
            state.handle.close()
        footer = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "table": self.name,
            "n_rows": self.n_rows,
            "columns": [self._column_footer(s) for s in self._columns],
            "lineage": [
                {
                    "name": s.name,
                    "file": s.file_name,
                    "dtype": _footer_dtype(s.dtype),
                    "nbytes": s.nbytes,
                }
                for s in self._lineage
            ],
        }
        with maybe_span(
            get_tracer(),
            f"colstore.write:{self.name or '<anon>'}",
            kind="io",
            rows=self.n_rows,
            columns=len(self._columns),
        ):
            tmp = self.path / (FOOTER_NAME + ".tmp")
            tmp.write_text(json.dumps(footer, indent=1))
            os.replace(tmp, self.path / FOOTER_NAME)
        return self.path

    def _column_footer(self, state: _ColumnState) -> dict:
        if state.kind is None:  # zero-row table: default to float64 raw
            state.kind = "raw"
            state.dtype = np.dtype("<f8")
        entry = {
            "name": state.name,
            "file": state.file_name,
            "kind": state.kind,
            "nbytes": state.nbytes,
            "stats": state.stats,
        }
        if state.kind == "dict":
            entry["dtype"] = _footer_dtype(_CODES_DTYPE)
            entry["values"] = state.values
        else:
            entry["dtype"] = _footer_dtype(state.dtype)
        return entry

    def __enter__(self) -> "ColumnarWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        # On error, leave no footer: the directory must read as torn.


@dataclass
class ColumnarData:
    """A loaded columnar directory: mapped arrays plus scan-prune stats."""

    path: Path
    name: str | None
    n_rows: int
    #: A string column is ``(mapped int32 codes, object array of values)``.
    columns: "dict[str, np.ndarray | tuple[np.ndarray, np.ndarray]]"
    lineage: dict[str, np.ndarray]
    block_stats: dict[str, list[tuple]]


def _mapped(path: Path, dtype: np.dtype, n_rows: int) -> np.ndarray:
    if n_rows == 0:
        return np.empty(0, dtype=dtype)
    return np.memmap(path, dtype=dtype, mode="r", shape=(n_rows,))


def _validated_file(path: Path, entry: dict, n_rows: int, itemsize: int) -> Path:
    file_path = path / entry["file"]
    expected = int(entry["nbytes"])
    if expected != n_rows * itemsize:
        raise StorageError(
            f"{file_path}: footer says {expected} bytes but {n_rows} rows "
            f"of itemsize {itemsize} need {n_rows * itemsize}"
        )
    try:
        actual = os.path.getsize(file_path)
    except OSError as exc:
        raise StorageError(f"{file_path}: missing column file: {exc}") from exc
    if actual != expected:
        raise StorageError(
            f"{file_path}: torn column file: {actual} bytes on disk, "
            f"footer recorded {expected}"
        )
    return file_path


def load_columnar(path: str | os.PathLike) -> ColumnarData:
    """Map a persisted table; fail loud on any torn or invalid state."""
    root = Path(path)
    footer_path = root / FOOTER_NAME
    try:
        footer = json.loads(footer_path.read_text())
    except FileNotFoundError as exc:
        raise StorageError(
            f"{root}: not a columnar table (no {FOOTER_NAME}); an "
            "interrupted write leaves no footer on purpose"
        ) from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(f"{footer_path}: unreadable footer: {exc}") from exc
    if footer.get("format") != FORMAT_NAME:
        raise StorageError(
            f"{footer_path}: format {footer.get('format')!r} is not "
            f"{FORMAT_NAME!r}"
        )
    if footer.get("version") != FORMAT_VERSION:
        raise StorageError(
            f"{footer_path}: version {footer.get('version')!r} is not "
            f"{FORMAT_VERSION}"
        )
    n_rows = int(footer["n_rows"])
    columns: dict = {}
    block_stats: dict[str, list[tuple]] = {}
    with maybe_span(
        get_tracer(),
        f"colstore.open:{footer.get('table') or '<anon>'}",
        kind="io",
        rows=n_rows,
        columns=len(footer.get("columns", [])),
    ):
        for entry in footer.get("columns", []):
            kind = entry.get("kind")
            try:
                dtype = np.dtype(entry["dtype"])
            except TypeError as exc:
                raise StorageError(
                    f"{footer_path}: column {entry.get('name')!r} has "
                    f"unsupported dtype {entry.get('dtype')!r}"
                ) from exc
            file_path = _validated_file(root, entry, n_rows, dtype.itemsize)
            if kind == "raw":
                columns[entry["name"]] = _mapped(file_path, dtype, n_rows)
                block_stats[entry["name"]] = [
                    tuple(block) for block in entry.get("stats", [])
                ]
            elif kind == "dict":
                values = np.empty(len(entry["values"]), dtype=object)
                values[:] = entry["values"]
                columns[entry["name"]] = (
                    _mapped(file_path, dtype, n_rows),
                    values,
                )
            else:
                raise StorageError(
                    f"{footer_path}: column {entry.get('name')!r} has "
                    f"unknown kind {kind!r}"
                )
        lineage: dict[str, np.ndarray] = {}
        for entry in footer.get("lineage", []):
            dtype = np.dtype(entry["dtype"])
            file_path = _validated_file(root, entry, n_rows, dtype.itemsize)
            lineage[entry["name"]] = _mapped(file_path, dtype, n_rows)
    return ColumnarData(
        path=root,
        name=footer.get("table"),
        n_rows=n_rows,
        columns=columns,
        lineage=lineage,
        block_stats=block_stats,
    )

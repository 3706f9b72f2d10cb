"""CSV import/export and columnar persistence for tables.

Deliberately small: comma-separated, header row required, type
inference over int → float → string.  Enough to load external data into
the engine and to export query samples for inspection — not a general
CSV toolkit.  :func:`ingest_csv` streams a (possibly multi-GB) CSV into
the memory-mapped columnar layout in blocks, so ingest memory stays
O(block) rather than O(file); :func:`write_columnar` /
:func:`read_columnar` are the table-level entry points to that layout.
"""

from __future__ import annotations

import csv
import io
import pathlib

import numpy as np

from repro.colstore.format import ColumnarWriter
from repro.errors import SchemaError
from repro.relational.table import Table

#: Public alias matching the format's writer class.
ColumnWriter = ColumnarWriter


def _infer_column(values: list[str]) -> np.ndarray:
    """int64 if every value parses as int, else float64, else object.

    Conversion is bulk ``astype`` over an object array (numpy applies
    ``int``/``float`` element-wise in C) rather than a Python-level
    list comprehension per dtype attempt — same int → float → string
    lattice, an order of magnitude less interpreter overhead on wide
    ingests.
    """
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    try:
        return arr.astype(np.int64)
    except (ValueError, TypeError, OverflowError):
        pass
    try:
        return arr.astype(np.float64)
    except (ValueError, TypeError):
        return arr


def read_csv(source, name: str | None = None) -> Table:
    """Load a table from a path or file-like object.

    The first row is the header; column types are inferred per column.
    """
    if isinstance(source, (str, pathlib.Path)):
        with open(source, newline="") as handle:
            return read_csv(handle, name=name or pathlib.Path(source).stem)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("CSV input is empty (no header row)") from None
    if not header or any(not h.strip() for h in header):
        raise SchemaError(f"invalid CSV header {header!r}")
    header = [h.strip() for h in header]
    rows = list(reader)
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise SchemaError(
                f"CSV row {i + 2} has {len(row)} fields, "
                f"expected {len(header)}"
            )
    columns = {
        column: _infer_column([row[j] for row in rows])
        for j, column in enumerate(header)
    }
    if not rows:
        columns = {column: np.empty(0, dtype=np.float64) for column in header}
    return Table(name, columns)


def write_csv(table: Table, destination) -> None:
    """Write a table (data columns only) to a path or file-like object."""
    if isinstance(destination, (str, pathlib.Path)):
        with open(destination, "w", newline="") as handle:
            write_csv(table, handle)
            return
    writer = csv.writer(destination)
    names = table.schema.names
    writer.writerow(names)
    for row in table.to_rows():
        writer.writerow(row)


def read_csv_text(text: str, name: str | None = None) -> Table:
    """Convenience: load from a CSV string (used heavily in tests)."""
    return read_csv(io.StringIO(text), name=name)


def to_csv_text(table: Table) -> str:
    """Convenience: render a table as a CSV string."""
    buffer = io.StringIO()
    write_csv(table, buffer)
    return buffer.getvalue()


# -- columnar persistence --------------------------------------------------

#: Default rows per ingest/persist block (one stats block each).
INGEST_BLOCK_ROWS = 1 << 16

#: Type-lattice ranks for streaming inference: int < float < string.
_KIND_RANK = {"i": 0, "f": 1, "O": 2}
_RANK_DTYPE = {0: np.int64, 1: np.float64}


def write_columnar(
    table: Table, path, *, block_rows: int = INGEST_BLOCK_ROWS
) -> pathlib.Path:
    """Write a table to the on-disk columnar layout; returns the dir."""
    with ColumnarWriter(
        path, table.name, list(table.columns), list(table.lineage)
    ) as writer:
        for start in range(0, max(table.n_rows, 1), block_rows):
            chunk = table.slice(start, start + block_rows)
            # Strings go as dictionary codes: encoded once per base
            # column (or mapped already), never re-hashed per block.
            writer.append(
                {
                    n: chunk.columns.encoded(n) or chunk.columns[n]
                    for n in chunk.columns
                },
                chunk.lineage,
            )
    return pathlib.Path(path)


def read_columnar(path, name: str | None = None) -> Table:
    """Open a persisted columnar table as a zero-copy mmap-backed Table."""
    return Table.from_mmap(path, name)


def _csv_header(reader) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("CSV input is empty (no header row)") from None
    if not header or any(not h.strip() for h in header):
        raise SchemaError(f"invalid CSV header {header!r}")
    return [h.strip() for h in header]


def _iter_csv_blocks(reader, header: list[str], block_rows: int):
    """Yield (first_row_number, list-of-rows) blocks, checking arity."""
    block: list = []
    first = 2  # 1-based; row 1 is the header
    for i, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise SchemaError(
                f"CSV row {i} has {len(row)} fields, expected {len(header)}"
            )
        block.append(row)
        if len(block) >= block_rows:
            yield first, block
            first = i + 1
            block = []
    if block:
        yield first, block


def _convert_block(values: list[str], rank: int) -> np.ndarray:
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    if rank in _RANK_DTYPE:
        return arr.astype(_RANK_DTYPE[rank])
    return arr


def ingest_csv(
    source,
    dest,
    name: str | None = None,
    *,
    block_rows: int = INGEST_BLOCK_ROWS,
) -> Table:
    """Stream a CSV file into the columnar layout; return the mmap table.

    Two streaming passes, each holding only ``block_rows`` rows of text
    in RAM: pass one joins each column's per-block inferred type over
    the int → float → string lattice; pass two converts blocks to the
    final dtypes and appends them through :class:`ColumnWriter`.  A
    multi-GB CSV therefore ingests with O(block) memory.
    """
    if not isinstance(source, (str, pathlib.Path)):
        raise SchemaError(
            "ingest_csv streams the file twice and needs a path, "
            f"got {type(source).__name__}"
        )
    source = pathlib.Path(source)
    name = name or source.stem

    with open(source, newline="") as handle:
        reader = csv.reader(handle)
        header = _csv_header(reader)
        ranks = [0] * len(header)
        for _, block in _iter_csv_blocks(reader, header, block_rows):
            for j in range(len(header)):
                inferred = _infer_column([row[j] for row in block])
                ranks[j] = max(ranks[j], _KIND_RANK[inferred.dtype.kind])

    with open(source, newline="") as handle:
        reader = csv.reader(handle)
        _csv_header(reader)
        with ColumnarWriter(dest, name, header) as writer:
            for _, block in _iter_csv_blocks(reader, header, block_rows):
                writer.append(
                    {
                        col: _convert_block(
                            [row[j] for row in block], ranks[j]
                        )
                        for j, col in enumerate(header)
                    }
                )
    return Table.from_mmap(dest, name)

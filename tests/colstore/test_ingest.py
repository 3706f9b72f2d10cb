"""Streaming CSV ingestion: block-wise inference and conversion.

``ingest_csv`` must agree with the one-shot ``read_csv`` reader on
every value while only ever holding one block of text rows in memory —
in particular, a column whose first blocks look integral but later
turn float (or string) must be promoted across block boundaries.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational.io import ingest_csv, read_csv

_CSV = "a,b,s\n" + "\n".join(f"{i},{i * 0.5},name{i % 7}" for i in range(100))


def test_ingest_matches_read_csv(tmp_path) -> None:
    source = tmp_path / "t.csv"
    source.write_text(_CSV + "\n")
    table = ingest_csv(source, tmp_path / "t", block_rows=7)
    reference = read_csv(io.StringIO(_CSV), name="t")
    assert table.is_mmap
    assert table.n_rows == reference.n_rows
    for name in reference.columns:
        expected = reference.columns[name]
        actual = np.asarray(table.columns[name])
        assert actual.dtype == expected.dtype
        if expected.dtype == object:
            assert list(actual) == list(expected)
        else:
            np.testing.assert_array_equal(actual, expected)


def test_type_promotion_crosses_block_boundaries(tmp_path) -> None:
    """Blocks 1..n integral, a later block float/string → promoted."""
    rows = [f"{i},{i}" for i in range(20)]
    rows.append("3.5,tail")  # floats and strings arrive late
    source = tmp_path / "p.csv"
    source.write_text("f,s\n" + "\n".join(rows) + "\n")
    table = ingest_csv(source, tmp_path / "p", block_rows=4)
    f = np.asarray(table.columns["f"])
    s = np.asarray(table.columns["s"])
    assert f.dtype == np.float64
    assert f[-1] == 3.5 and f[0] == 0.0
    assert s.dtype == object
    assert s[0] == "0" and s[-1] == "tail"


def test_ingest_rejects_file_like(tmp_path) -> None:
    with pytest.raises(SchemaError, match="path"):
        ingest_csv(io.StringIO(_CSV), tmp_path / "t")


def test_ingest_rejects_empty_csv(tmp_path) -> None:
    source = tmp_path / "e.csv"
    source.write_text("")
    with pytest.raises(SchemaError, match="empty"):
        ingest_csv(source, tmp_path / "e")


def test_ingest_rejects_ragged_rows(tmp_path) -> None:
    source = tmp_path / "r.csv"
    source.write_text("a,b\n1,2\n3\n")
    with pytest.raises(SchemaError):
        ingest_csv(source, tmp_path / "r")


def test_ingested_table_is_queryable(tmp_path) -> None:
    from repro.relational.database import Database

    source = tmp_path / "t.csv"
    source.write_text(_CSV + "\n")
    ingest_csv(source, tmp_path / "t", block_rows=16)
    db = Database(seed=0)
    db.attach("t", tmp_path / "t")
    result = db.sql_exact("SELECT SUM(a) AS total FROM t")
    assert float(result.column("total")[0]) == sum(range(100))

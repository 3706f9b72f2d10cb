"""CSV import tests."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational.io import read_csv
from repro.relational.schema import ColumnType


def _read_text(text, name=None):
    return read_csv(io.StringIO(text), name=name)


class TestReadCsv:
    def test_type_inference(self):
        table = _read_text(
            "id,price,label\n1,2.5,aa\n2,3.0,bb\n", name="t"
        )
        assert table.schema["id"].type is ColumnType.INT64
        assert table.schema["price"].type is ColumnType.FLOAT64
        assert table.schema["label"].type is ColumnType.STRING
        assert table.n_rows == 2

    def test_int_column_stays_int(self):
        table = _read_text("x\n1\n2\n3\n")
        assert table.column("x").dtype == np.int64

    def test_mixed_numeric_becomes_float(self):
        table = _read_text("x\n1\n2.5\n")
        assert table.column("x").dtype == np.float64

    def test_empty_body_allowed(self):
        table = _read_text("a,b\n")
        assert table.n_rows == 0
        assert table.schema.names == ("a", "b")

    def test_missing_header_rejected(self):
        with pytest.raises(SchemaError, match="empty"):
            _read_text("")

    def test_blank_header_field_rejected(self):
        with pytest.raises(SchemaError, match="header"):
            _read_text("a,,c\n1,2,3\n")

    def test_ragged_row_rejected(self):
        with pytest.raises(SchemaError, match="row 3"):
            _read_text("a,b\n1,2\n3\n")

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("k,v\n1,10.5\n2,20.25\n")
        table = read_csv(path)
        assert table.name == "data"
        assert table.column("v").tolist() == [10.5, 20.25]


class TestDatabaseFromCsv:
    def test_csv_backed_sql_query(self):
        from repro.relational.database import Database

        db = Database(seed=0)
        db.register(
            "sales",
            _read_text(
                "sale_id,amount\n0,10.0\n1,20.0\n2,30.0\n3,40.0\n",
                name="sales",
            ),
        )
        exact = db.sql_exact("SELECT SUM(amount) AS s FROM sales")
        assert exact.to_rows()[0][0] == pytest.approx(100.0)
        res = db.sql(
            "SELECT SUM(amount) AS s FROM sales TABLESAMPLE (50 PERCENT)",
            seed=1,
        )
        assert res.estimates["s"].value >= 0

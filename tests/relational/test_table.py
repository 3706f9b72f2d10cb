"""Tests for the columnar Table and Schema."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational.schema import Column, ColumnType, Schema
from repro.relational.table import Table


class TestColumnType:
    def test_dtype_roundtrip(self):
        assert ColumnType.from_dtype(np.dtype(np.int32)) is ColumnType.INT64
        assert ColumnType.from_dtype(np.dtype(np.float64)) is ColumnType.FLOAT64
        assert ColumnType.from_dtype(np.dtype(np.bool_)) is ColumnType.BOOL
        assert ColumnType.from_dtype(np.dtype(object)) is ColumnType.STRING
        assert ColumnType.from_dtype(np.dtype("U5")) is ColumnType.STRING

    def test_unsupported_dtype(self):
        with pytest.raises(SchemaError):
            ColumnType.from_dtype(np.dtype(np.complex128))

    def test_numeric_flag(self):
        assert ColumnType.INT64.numeric
        assert ColumnType.FLOAT64.numeric
        assert not ColumnType.STRING.numeric


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([Column("a", ColumnType.INT64), Column("a", ColumnType.BOOL)])

    def test_lookup(self):
        s = Schema([Column("a", ColumnType.INT64)])
        assert s["a"].type is ColumnType.INT64
        assert "a" in s and "b" not in s
        with pytest.raises(SchemaError, match="no column"):
            s["b"]

    def test_concat_and_project(self):
        s1 = Schema([Column("a", ColumnType.INT64)])
        s2 = Schema([Column("b", ColumnType.FLOAT64)])
        merged = s1.concat(s2)
        assert merged.names == ("a", "b")
        assert merged.project(["b"]).names == ("b",)

    def test_invalid_column_name(self):
        with pytest.raises(SchemaError):
            Column("", ColumnType.INT64)


class TestTable:
    def _table(self):
        return Table(
            "t",
            {"x": np.array([1, 2, 3]), "y": np.array([1.0, 2.0, 3.0])},
            {"t": np.array([10, 20, 30])},
        )

    def test_schema_inference(self):
        t = self._table()
        assert t.schema["x"].type is ColumnType.INT64
        assert t.schema["y"].type is ColumnType.FLOAT64
        assert t.n_rows == 3
        assert t.lineage_schema == {"t"}

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError, match="ragged"):
            Table("t", {"x": np.arange(3), "y": np.arange(4)})

    def test_bad_lineage_length_rejected(self):
        with pytest.raises(SchemaError, match="lineage"):
            Table("t", {"x": np.arange(3)}, {"t": np.arange(2)})

    def test_2d_column_rejected(self):
        with pytest.raises(SchemaError, match="1-D"):
            Table("t", {"x": np.ones((2, 2))})

    def test_take_gathers_lineage(self):
        t = self._table().take(np.array([2, 0]))
        assert t.to_rows() == [(3, 3.0), (1, 1.0)]
        np.testing.assert_array_equal(t.lineage["t"], [30, 10])

    def test_filter(self):
        t = self._table().filter(np.array([True, False, True]))
        assert t.n_rows == 2
        np.testing.assert_array_equal(t.lineage["t"], [10, 30])

    def test_filter_shape_mismatch(self):
        with pytest.raises(SchemaError, match="mask"):
            self._table().filter(np.array([True]))

    def test_from_rows(self):
        t = Table.from_rows("t", ["a", "b"], [(1, "x"), (2, "y")])
        assert t.n_rows == 2
        assert t.column("a").tolist() == [1, 2]

    def test_from_rows_arity_mismatch(self):
        with pytest.raises(SchemaError, match="arity"):
            Table.from_rows("t", ["a", "b"], [(1,)])

    def test_empty_table(self):
        t = Table("t", {})
        assert t.n_rows == 0
        assert len(t.schema) == 0

    def test_with_lineage_replaces(self):
        t = self._table().with_lineage("t", np.array([7, 8, 9]))
        np.testing.assert_array_equal(t.lineage["t"], [7, 8, 9])

    def test_select_columns_keeps_lineage(self):
        t = self._table().select_columns(["y"])
        assert t.schema.names == ("y",)
        assert t.lineage_schema == {"t"}

    def test_lineage_rows_sorted_by_relation(self):
        t = Table(
            None,
            {"x": np.arange(2)},
            {"b": np.array([1, 2]), "a": np.array([3, 4])},
        )
        assert t.lineage_rows() == [(3, 1), (4, 2)]

    def test_head(self):
        assert self._table().head(2).n_rows == 2

    def test_unknown_column(self):
        with pytest.raises(SchemaError, match="no column"):
            self._table().column("zzz")

    def test_string_columns_stored_as_object(self):
        t = Table("t", {"s": np.array(["ab", "cd"])})
        assert t.column("s").dtype == object


class TestZeroCopyFastPaths:
    def _table(self):
        return Table(
            "t",
            {"a": np.arange(6, dtype=np.int64), "b": np.arange(6.0)},
            {"t": np.arange(6, dtype=np.int64)},
        )

    def test_all_true_filter_returns_self(self):
        t = self._table()
        assert t.filter(np.ones(6, dtype=bool)) is t

    def test_partial_filter_still_gathers(self):
        t = self._table()
        kept = t.filter(np.arange(6) % 2 == 0)
        assert kept is not t
        assert kept.n_rows == 3
        assert not np.shares_memory(kept.columns["a"], t.columns["a"])

    def test_identity_select_returns_self(self):
        t = self._table()
        assert t.select_columns(["a", "b"]) is t
        projected = t.select_columns(["b"])
        assert projected is not t
        assert list(projected.columns) == ["b"]

    def test_with_lineage_shares_column_arrays(self):
        t = self._table()
        tagged = t.with_lineage("other", np.arange(6, dtype=np.int64))
        assert tagged is not t
        assert tagged.columns["a"] is t.columns["a"]
        assert tagged.schema is t.schema
        assert set(tagged.lineage) == {"t", "other"}
        # The original's lineage dict is untouched.
        assert set(t.lineage) == {"t"}

    def test_with_lineage_shape_mismatch(self):
        with pytest.raises(SchemaError):
            self._table().with_lineage("x", np.arange(5, dtype=np.int64))

    def test_slice_is_zero_copy_view(self):
        t = self._table()
        part = t.slice(2, 5)
        assert part.n_rows == 3
        assert np.shares_memory(part.columns["a"], t.columns["a"])
        assert np.shares_memory(part.lineage["t"], t.lineage["t"])
        np.testing.assert_array_equal(part.columns["a"], [2, 3, 4])
        # Out-of-range bounds clamp instead of wrapping.
        assert t.slice(4, 100).n_rows == 2
        assert t.slice(7, 9).n_rows == 0

    def test_rename_same_name_returns_self(self):
        t = self._table()
        assert t.rename("t") is t
        assert t.rename("u").name == "u"

    def test_lineage_only_table_keeps_rows(self):
        t = Table(None, {}, {"r": np.arange(4, dtype=np.int64)})
        assert t.n_rows == 4
        assert t.slice(1, 3).n_rows == 2


# -- pending columns: a row gather runs when its column is first read ------
#
# The seam is ``repro.relational.table._gather``: the one module-level
# function that performs ``source[index]`` for a data column.  The
# ``gathers`` fixture (tests/conftest.py) records its calls.


def _mixed_columns(prefix: str, n: int) -> dict[str, np.ndarray]:
    """int64, float64 (nan, -0.0, inf), bool and object columns of n rows."""
    floats = np.array([np.nan, -0.0, 0.0, 1.5, -2.25, np.inf])
    return {
        f"{prefix}i": np.arange(n, dtype=np.int64) * 7 - 3,
        f"{prefix}f": np.resize(floats, n),
        f"{prefix}b": np.arange(n) % 3 == 0,
        f"{prefix}s": np.array([f"s{k % 4}" for k in range(n)], dtype=object),
    }


def _assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    if want.dtype == object:
        assert got.tolist() == want.tolist()
    else:  # bytes, not ==: nan equals nan and -0.0 differs from 0.0
        assert got.tobytes() == want.tobytes()


class _Eager:
    """The numpy oracle: every transformation gathers every column now."""

    def __init__(self, name, columns, lineage, version=None):
        self.name, self.version = name, version
        self.columns, self.lineage = dict(columns), dict(lineage)

    @property
    def n_rows(self):
        arrays = list(self.columns.values()) + list(self.lineage.values())
        return arrays[0].shape[0]

    def rows(self, key):
        return _Eager(
            self.name,
            {n: a[key] for n, a in self.columns.items()},
            {r: a[key] for r, a in self.lineage.items()},
        )


class TestPendingColumnsEqualEagerNumpy:
    """Random programs over lazy tables against the eager oracle."""

    @staticmethod
    def _indices(data, n_rows, label):
        if n_rows == 0:
            return np.empty(0, dtype=np.int64)
        picks = data.draw(
            st.lists(st.integers(0, n_rows - 1), max_size=8), label=label
        )
        return np.array(picks, dtype=np.int64)

    def _step(self, data, step, table, eager):
        from repro.relational.executor import combine_rows

        op = data.draw(
            st.sampled_from(
                [
                    "take", "filter", "slice", "select_columns", "read",
                    "with_lineage", "rename", "with_version",
                    "with_columns", "combine_rows",
                ]
            ),
            label=f"op{step}",
        )
        n = eager.n_rows
        names = list(eager.columns)
        if op == "take":
            idx = self._indices(data, n, "take")
            return table.take(idx), eager.rows(idx)
        if op == "filter":
            mask = np.array(
                data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                dtype=bool,
            )
            return table.filter(mask), eager.rows(mask)
        if op == "slice":
            start = data.draw(st.integers(0, n + 1))
            stop = data.draw(st.integers(0, n + 1))
            stop = max(start, stop)
            return table.slice(start, stop), eager.rows(slice(start, stop))
        if op == "select_columns":
            keep = data.draw(st.permutations(names))[
                : data.draw(st.integers(0, len(names)))
            ]
            return table.select_columns(keep), _Eager(
                eager.name, {k: eager.columns[k] for k in keep}, eager.lineage
            )
        if op == "read" and names:
            name = data.draw(st.sampled_from(names))
            _assert_same_array(table.column(name), eager.columns[name])
            return table, eager
        if op == "with_lineage":
            ids = np.arange(n, dtype=np.int64) + 100 * step
            rel = data.draw(st.sampled_from(["a", "z"]))
            return table.with_lineage(rel, ids), _Eager(
                eager.name, eager.columns, {**eager.lineage, rel: ids}
            )
        if op == "rename":
            name = data.draw(st.sampled_from(["a", "u", None]))
            return table.rename(name), _Eager(
                name, eager.columns, eager.lineage
            )
        if op == "with_version":
            stamped = table.with_version(step)
            assert stamped.version == step
            return stamped, eager
        if op == "with_columns":
            name = data.draw(st.sampled_from(names + [f"n{step}"]))
            values = np.arange(n, dtype=np.float64) / 3 - step
            return table.with_columns({name: values}), _Eager(
                eager.name, {**eager.columns, name: values}, eager.lineage
            )
        if op == "combine_rows":
            m = data.draw(st.integers(0, 4))
            cols = _mixed_columns(f"r{step}", m)
            lin = {f"r{step}": np.arange(m, dtype=np.int64)}
            right, right_eager = Table("r", cols, lin), _Eager("r", cols, lin)
            if m and data.draw(st.booleans()):  # a pending right side
                pre = self._indices(data, m, "right take")
                right, right_eager = right.take(pre), right_eager.rows(pre)
            li = self._indices(data, n, "li")
            ri = self._indices(data, right_eager.n_rows, "ri")
            pairs = min(li.shape[0], ri.shape[0])
            li, ri = li[:pairs], ri[:pairs]
            left_e, right_e = eager.rows(li), right_eager.rows(ri)
            return combine_rows(table, right, li, ri), _Eager(
                None,
                {**left_e.columns, **right_e.columns},
                {**left_e.lineage, **right_e.lineage},
            )
        return table, eager

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_programs(self, data):
        n = data.draw(st.integers(0, 6), label="rows")
        cols = _mixed_columns("", n)
        lin = {"a": np.arange(n, dtype=np.int64) * 10}
        table, eager = Table("a", cols, lin), _Eager("a", cols, lin)
        for step in range(data.draw(st.integers(0, 7), label="steps")):
            table, eager = self._step(data, step, table, eager)
        # Everything known without reading, first.
        assert table.n_rows == eager.n_rows
        assert table.name == eager.name
        assert list(table.columns) == list(eager.columns)
        assert len(table.columns) == len(eager.columns)
        assert table.schema.names == tuple(eager.columns)
        for name, want in eager.columns.items():
            assert table.schema[name].type is ColumnType.from_dtype(want.dtype)
            assert table.columns.dtype(name) == want.dtype
        assert table.lineage.keys() == eager.lineage.keys()
        for rel, want in eager.lineage.items():
            _assert_same_array(table.lineage[rel], want)
        # Then the columns, in whatever order.
        for name in data.draw(st.permutations(list(eager.columns))):
            got = table.columns[name]
            _assert_same_array(got, eager.columns[name])
            assert table.columns[name] is got  # read once, kept

    @pytest.mark.parametrize("index", [[], np.empty(0, dtype=np.int64)])
    def test_empty_index(self, index):
        t = Table("t", _mixed_columns("", 3), {"t": np.arange(3)})
        empty = t.take(index)
        assert empty.n_rows == 0 and empty.to_rows() == []
        for name, arr in t.columns.items():
            assert empty.columns[name].dtype == arr.dtype


class TestOneGatherPerColumnRead:
    def _table(self, n=40):
        return Table(
            "t", _mixed_columns("", n), {"t": np.arange(n, dtype=np.int64)}
        )

    def test_take_after_take_after_filter_reads_with_one_gather(self, gathers):
        base = self._table()
        picked = (
            base.filter(np.arange(40) % 2 == 0)
            .take(np.array([9, 3, 3, 0, 17]))
            .take(np.array([4, 1, 1]))
        )
        assert gathers == []
        want = np.arange(40)[::2][[9, 3, 3, 0, 17]][[4, 1, 1]]
        for name, arr in base.columns.items():
            _assert_same_array(picked.columns[name], arr[want])
        # One gather per column, each straight from the base array...
        assert [
            [n for n, arr in base.columns.items() if source is arr]
            for source, _ in gathers
        ] == [["i"], ["f"], ["b"], ["s"]]
        # ...through one index object: each take composed the parent
        # index once and every column shares the result, not one
        # composition per column.
        assert len({id(index) for _, index in gathers}) == 1
        assert gathers[0][1].tolist() == want.tolist()

    def test_a_column_read_between_filters_becomes_the_next_source(
        self, gathers
    ):
        once = self._table().filter(np.arange(40) % 2 == 0)
        read = once.column("i")
        twice = once.take(np.array([5, 1]))
        _assert_same_array(twice.column("i"), read[[5, 1]])
        _assert_same_array(twice.column("f"), self._table().column("f")[[10, 2]])
        assert [source is read for source, _ in gathers] == [False, True, False]

    def test_nothing_but_a_read_gathers(self, gathers):
        from repro.store.catalog import table_nbytes

        lazy = self._table().filter(np.arange(40) % 3 == 0)
        assert len(lazy.columns) == 4 and lazy.n_rows == 14
        assert list(lazy.columns) == ["i", "f", "b", "s"]
        assert "s" in lazy.columns and "zz" not in lazy.columns
        assert lazy.schema.names == ("i", "f", "b", "s")
        assert "rows=14" in repr(lazy) and "s:" in repr(lazy)
        assert repr(lazy.columns) == "Columns(['i', 'f', 'b', 's'])"
        shared = lazy.with_lineage("u", np.arange(14)).rename("v")
        stamped = shared.with_version(3)
        sliced = stamped.slice(2, 9)
        lazy_bytes = table_nbytes(lazy)
        assert gathers == []
        # with_lineage / rename / with_version share what has been read.
        assert stamped.columns is lazy.columns
        assert stamped.column("f") is lazy.column("f") and len(gathers) == 1
        # A slice of a pending column stays pending (one gather when it
        # is read); a slice of a read column is a view of it.
        _assert_same_array(sliced.slice(1, 3).column("f"), lazy.column("f")[3:5])
        assert len(gathers) == 2
        assert np.shares_memory(lazy.slice(3, 5).column("f"), lazy.column("f"))
        assert len(gathers) == 2
        # Sized from dtypes: the same before and after reading, and the
        # sum of the arrays' own nbytes (the eager formula).
        read = dict(lazy.columns)
        assert len(gathers) == 2 + 3
        assert table_nbytes(lazy) == lazy_bytes
        assert lazy_bytes == sum(
            np.asarray(a).nbytes
            for a in list(read.values()) + list(lazy.lineage.values())
        )
        assert read["s"].dtype == object

    def test_values_items_and_unpacking_read_every_column(self, gathers):
        lazy = self._table().take(np.array([3, 1]))
        assert [a.tolist() for a in lazy.columns.values()][0] == [18, 4]
        assert len(gathers) == 4
        again = self._table().take(np.array([3, 1]))
        assert list({**again.columns}) == ["i", "f", "b", "s"]
        assert len(gathers) == 8

    def test_out_of_range_index_raises_on_the_spot(self):
        with pytest.raises(IndexError):
            self._table().take(np.array([40]))


# -- encoded string columns: dictionary + codes beside the object array ----
#
# ``columns.encoded(name)`` is the second read of a string column: it
# never touches a Python string once the base column has been encoded,
# and ``columns[name]`` keeps returning the object array it always did.


def _decoded(pair) -> list:
    codes, values = pair
    assert codes.dtype == np.int32 and values.dtype == object
    return values[codes].tolist()


class TestEncodedColumns:
    N = 60

    def _table(self):
        words = np.array(["N", "A", None, "R", "ä"], dtype=object)
        cols = _mixed_columns("", self.N)
        cols["s"] = words[np.arange(self.N) * 7 % 5]
        return Table("t", cols, {"t": np.arange(self.N, dtype=np.int64)})

    def _derived(self, base):
        """take → filter → slice → join output → with_columns."""
        from repro.relational.executor import combine_rows

        taken = base.take(np.array([5, 50, 3, 3, 41, 17, 8, 30, 2, 59]))
        filtered = taken.filter(np.arange(10) % 3 != 1)
        sliced = filtered.slice(1, 6)
        right = Table("r", {"k": np.arange(4)}, {"r": np.arange(4)})
        joined = combine_rows(
            sliced, right, np.array([4, 0, 2, 2]), np.array([0, 1, 2, 3])
        )
        updated = joined.with_columns({"extra": np.zeros(4)})
        return [base, taken, filtered, sliced, joined, updated]

    def test_encoded_composes_to_the_column_that_is_read(self, gathers):
        base = self._table()
        tables = self._derived(base)
        for table in tables:
            assert table.columns.encoded("i") is None
            assert table.columns.encoded("f") is None
        del gathers[:]
        pairs = [table.columns.encoded("s") for table in tables]
        # Codes are gathered, never objects...
        assert all(source.dtype == np.int32 for source, _ in gathers)
        # ...over one dictionary, the base column's.
        assert all(pair[1] is pairs[0][1] for pair in pairs)
        for table, pair in zip(tables, pairs):
            assert _decoded(pair) == table.columns["s"].tolist()
            assert table.columns.encoded("s")[0] is pair[0]  # kept

    def test_base_column_is_encoded_once_and_not_at_construction(
        self, monkeypatch
    ):
        from repro.core import kernels

        seen: list[int] = []
        real = kernels.factorize

        def factorize(column):
            seen.append(np.asarray(column).shape[0])
            return real(column)

        monkeypatch.setattr(kernels, "factorize", factorize)
        base = self._table()
        snapshot = base.with_version(1)
        live = base.with_columns({"f": np.ones(self.N)})
        tables = self._derived(base) + self._derived(live) + [snapshot]
        assert seen == []  # nothing is hashed until somebody asks
        for table in tables:
            table.columns.encoded("s")
        assert seen == [self.N]

    def test_encoded_reads_the_same_rows_after_the_array_was_read(self):
        base = self._table()
        taken = base.take(np.array([9, 0, 9, 33]))
        strings = taken.columns["s"]
        assert _decoded(taken.columns.encoded("s")) == strings.tolist()
        assert taken.columns["s"] is strings
        narrower = taken.take(np.array([3, 1]))
        assert _decoded(narrower.columns.encoded("s")) == strings[[3, 1]].tolist()

    def test_tables_sharing_a_column_read_the_identical_array(self):
        base = self._table()
        read = base.columns["s"]
        assert read.dtype == object
        for other in (
            base.with_columns({"f": np.ones(self.N)}),
            base.with_version(4),
            base.rename("u"),
            base.with_lineage("z", np.arange(self.N)),
            base.select_columns(["s", "i"]),
        ):
            assert other.columns["s"] is read
        base.columns.encoded("s")
        assert base.columns["s"] is read
        assert base.slice(0, self.N).columns["s"].tolist() == read.tolist()

    def test_plain_object_array_behind_share_is_encoded_on_demand(self):
        words = np.array(["b", "a", "b"], dtype=object)
        shared = Table._share(
            None, {"s": words}, {}, Table(None, {"s": words}).schema, 3
        )
        assert shared.columns["s"] is words
        assert _decoded(shared.columns.encoded("s")) == ["b", "a", "b"]
        assert shared.columns["s"] is words

    def test_encoded_column_of_an_attached_table_stays_mapped(self, tmp_path):
        base = self._table()
        mapped = base.persist(tmp_path / "t", block_rows=16)
        codes, values = mapped.columns.encoded("s")
        assert isinstance(codes, np.memmap)
        # The file's dictionary, in first-seen order: not sorted.
        assert values.tolist() == ["N", None, "ä", "A", "R"]
        for got, want in zip(self._derived(mapped), self._derived(base)):
            assert _decoded(got.columns.encoded("s")) == (
                want.columns["s"].tolist()
            )
            assert got.columns["s"].tolist() == want.columns["s"].tolist()

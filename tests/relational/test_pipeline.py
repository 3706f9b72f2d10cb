"""Execution invariance of the chunked pipeline.

The contract under test: for any row partitioning the pipeline produces
bit-for-bit the same output — exactly the output of the independent
reference interpreter (``Executor``), sampling included.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.sbox import SBox
from repro.data.tpch import tpch_database
from repro.errors import ExecutionError
from repro.relational.expressions import col, lit
from repro.relational.executor import Executor, join_codes
from repro.relational import partition
from repro.relational.partition import chunk_bounds, required_alignment
from repro.relational.pipeline import ChunkedExecutor, concat_tables
from repro.relational.plan import (
    AggSpec,
    Aggregate,
    CrossProduct,
    GroupAggregate,
    GUSNode,
    Intersect,
    Join,
    LineageSample,
    Project,
    Scan,
    Select,
    TableSample,
    Union,
)
from repro.relational.table import Table
from repro.sampling.bernoulli import Bernoulli
from repro.sampling.block import BlockBernoulli
from repro.sampling.composed import BiDimensionalBernoulli
from repro.sampling.without_replacement import WithoutReplacement


def assert_tables_equal(a: Table, b: Table) -> None:
    assert list(a.columns) == list(b.columns)
    assert a.n_rows == b.n_rows
    for name in a.columns:
        x, y = a.columns[name], b.columns[name]
        if x.dtype.kind == "O":
            assert (x == y).all(), name
        else:
            assert np.array_equal(x, y, equal_nan=True), name
    assert sorted(a.lineage) == sorted(b.lineage)
    for rel in a.lineage:
        assert np.array_equal(a.lineage[rel], b.lineage[rel]), rel


def make_catalog(n: int = 5_000, seed: int = 11) -> dict[str, Table]:
    rng = np.random.default_rng(seed)
    fact = Table(
        "fact",
        {
            "k": rng.integers(0, n // 10 or 1, n),
            "v": rng.normal(size=n),
            "tag": np.array(["a", "b", "c", "d"], dtype=object)[
                rng.integers(0, 4, n)
            ],
        },
    )
    dim = Table(
        "dim",
        {
            "dk": np.arange(n // 10 or 1, dtype=np.int64),
            "w": rng.normal(size=n // 10 or 1),
        },
    )
    return {"fact": fact, "dim": dim}


CATALOG = make_catalog()

PLANS = {
    "scan": Scan("fact"),
    "select": Select(Scan("fact"), col("v") > 0.0),
    "project": Project(
        Select(Scan("fact"), col("v") > -1.0),
        {"vv": col("v") * 2.0, "tag": col("tag")},
    ),
    "join": Join(Scan("dim"), Scan("fact"), ["dk"], ["k"]),
    "join_flipped": Join(Scan("fact"), Scan("dim"), ["k"], ["dk"]),
    "join_string": Join(
        Project(Scan("dim"), {"dtag": lit("a") , "w": col("w")}),
        Scan("fact"),
        ["dtag"],
        ["tag"],
    ),
    "bernoulli": TableSample(Scan("fact"), Bernoulli(0.3)),
    "block": TableSample(Scan("fact"), BlockBernoulli(0.4, 96)),
    "wor": TableSample(Scan("fact"), WithoutReplacement(1234)),
    "lineage_sample": LineageSample(
        Join(Scan("dim"), Scan("fact"), ["dk"], ["k"]),
        BiDimensionalBernoulli({"fact": 0.4, "dim": 0.7}, seed=5),
    ),
    "union": Union(
        TableSample(Scan("fact"), Bernoulli(0.3)),
        TableSample(Scan("fact"), Bernoulli(0.3)),
    ),
    "intersect": Intersect(
        TableSample(Scan("fact"), Bernoulli(0.5)),
        TableSample(Scan("fact"), Bernoulli(0.5)),
    ),
    "cross": CrossProduct(
        Select(Scan("fact"), col("v") > 2.2), Scan("dim")
    ),
    "group_aggregate": GroupAggregate(
        Scan("fact"),
        ["tag"],
        [AggSpec("sum", col("v"), "t"), AggSpec("count", None, "c")],
        having=col("c") > 0.0,
    ),
    "aggregate": Aggregate(
        TableSample(Scan("fact"), Bernoulli(0.5)),
        [AggSpec("sum", col("v"), "t")],
    ),
}


class TestChunkedMatchesSerial:
    """compat mode: chunked output == legacy executor, bit for bit."""

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    @pytest.mark.parametrize("chunk_size", [61, 509, 4096, 10**6])
    def test_all_plans(self, plan_name, chunk_size):
        plan = PLANS[plan_name]
        serial = Executor(CATALOG, np.random.default_rng(42)).execute(plan)
        chunked = ChunkedExecutor(
            CATALOG, np.random.default_rng(42), chunk_size=chunk_size
        ).execute(plan)
        assert_tables_equal(serial, chunked)

    def test_single_chunk_covers_everything(self):
        """All rows in one partition is just the serial path."""
        plan = PLANS["join"]
        serial = Executor(CATALOG, np.random.default_rng(0)).execute(plan)
        chunked = ChunkedExecutor(
            CATALOG, np.random.default_rng(0), chunk_size=10**9
        ).execute(plan)
        assert_tables_equal(serial, chunked)

    def test_gus_node_refuses_execution(self):
        from repro.core.gus import bernoulli_gus

        node = GUSNode(Scan("fact"), bernoulli_gus("fact", 0.5))
        with pytest.raises(ExecutionError, match="quasi-operator"):
            ChunkedExecutor(CATALOG).execute(node)


class TestJoinEdgeCases:
    def test_multi_key_join_matches_reference(self):
        """Regression: per-side composite codes used to be compared
        across sides, silently joining unrelated key tuples."""
        left = Table(
            "l",
            {
                "a": np.array([1, 2, 3, 2], dtype=np.int64),
                "b": np.array([10, 20, 30, 99], dtype=np.int64),
                "x": np.arange(4.0),
            },
        )
        right = Table(
            "r",
            {
                "c": np.array([2, 3, 2], dtype=np.int64),
                "d": np.array([20, 30, 21], dtype=np.int64),
                "y": np.arange(3.0) + 10.0,
            },
        )
        catalog = {"l": left, "r": right}
        plan = Join(Scan("l"), Scan("r"), ["a", "b"], ["c", "d"])
        expected = {
            (la, lb, lx, rc, rd, ry)
            for la, lb, lx in zip(left.columns["a"], left.columns["b"], left.columns["x"])
            for rc, rd, ry in zip(right.columns["c"], right.columns["d"], right.columns["y"])
            if la == rc and lb == rd
        }
        for ex in (
            Executor(catalog),
            ChunkedExecutor(catalog, chunk_size=2),
        ):
            got = {
                tuple(
                    v.item() if hasattr(v, "item") else v for v in row
                )
                for row in ex.execute(plan).to_rows()
            }
            assert got == expected
            assert len(got) == 2

    def test_nan_keys_follow_sort_total_order(self):
        """NaN keys equate with each other (numpy sort total order) in
        both the raw-value probe and the factorized multi-key path."""
        left = Table(
            "l",
            {"a": np.array([1.0, np.nan, 2.0]), "x": np.arange(3.0)},
        )
        right = Table(
            "r",
            {"c": np.array([np.nan, 1.0, np.nan]), "y": np.arange(3.0)},
        )
        catalog = {"l": left, "r": right}
        plan = Join(Scan("l"), Scan("r"), ["a"], ["c"])
        serial = Executor(catalog).execute(plan)
        chunked = ChunkedExecutor(catalog, chunk_size=1).execute(plan)
        # 1.0 ↔ 1.0 once, and the left NaN meets both right NaNs.
        assert serial.n_rows == chunked.n_rows == 3
        assert_tables_equal(serial, chunked)
        # Multi-key (factorized) path: same total order, applied
        # componentwise — (nan, x) only matches (nan, y) when x == y.
        plan2 = Join(Scan("l"), Scan("r"), ["a", "x"], ["c", "y"])
        serial2 = Executor(catalog).execute(plan2)
        chunked2 = ChunkedExecutor(catalog, chunk_size=1).execute(plan2)
        assert serial2.n_rows == chunked2.n_rows == 0
        assert_tables_equal(serial2, chunked2)

    def test_empty_side_and_empty_partitions(self):
        empty = Table(
            "l", {"a": np.empty(0, dtype=np.int64), "x": np.empty(0)}
        )
        right = Table(
            "r", {"c": np.array([1, 2], dtype=np.int64), "y": np.arange(2.0)}
        )
        catalog = {"l": empty, "r": right}
        for plan in (
            Join(Scan("l"), Scan("r"), ["a"], ["c"]),
            Join(Scan("r"), Scan("l"), ["c"], ["a"]),
        ):
            serial = Executor(catalog).execute(plan)
            chunked = ChunkedExecutor(catalog, chunk_size=1).execute(plan)
            assert chunked.n_rows == 0
            assert_tables_equal(serial, chunked)

    def test_join_codes_cross_side_consistency(self):
        lc = [np.array(["a", "b", "a"], dtype=object)]
        rc = [np.array(["b", "a"], dtype=object)]
        lcodes, rcodes = join_codes(lc, rc)
        assert lcodes.dtype == np.int64
        assert lcodes[0] == rcodes[1] and lcodes[1] == rcodes[0]


class TestHypothesisInvariance:
    """Bit-for-bit equality for arbitrary row splits."""

    @given(
        n_rows=st.integers(0, 400),
        chunk_size=st.integers(1, 500),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_sampled_join_pipeline(self, n_rows, chunk_size, seed):
        rng = np.random.default_rng(seed)
        catalog = {
            "f": Table(
                "f",
                {
                    "k": rng.integers(0, max(n_rows // 4, 1), n_rows),
                    "v": rng.normal(size=n_rows),
                },
            ),
            "d": Table(
                "d",
                {
                    "dk": np.arange(max(n_rows // 4, 1), dtype=np.int64),
                    "w": rng.normal(size=max(n_rows // 4, 1)),
                },
            ),
        }
        plan = Select(
            Join(
                Scan("d"),
                TableSample(Scan("f"), Bernoulli(0.5)),
                ["dk"],
                ["k"],
            ),
            col("v") < 1.0,
        )
        serial = Executor(catalog, np.random.default_rng(seed)).execute(plan)
        chunked = ChunkedExecutor(
            catalog, np.random.default_rng(seed), chunk_size=chunk_size
        ).execute(plan)
        assert_tables_equal(serial, chunked)
        unpartitioned = ChunkedExecutor(
            catalog, np.random.default_rng(seed)
        ).execute(plan)
        assert_tables_equal(unpartitioned, chunked)


class TestEstimationInvariance:
    """SBox estimates are the same for one chunk and for many."""

    @pytest.mark.parametrize("chunk_size", [13, 97, 1024, 10**6])
    def test_grouped_bit_identical(self, chunk_size):
        sbox = SBox(CATALOG)
        plan = GroupAggregate(
            TableSample(Scan("fact"), Bernoulli(0.2)),
            ["tag"],
            [
                AggSpec("sum", col("v"), "t"),
                AggSpec("count", None, "c"),
                AggSpec("avg", col("v"), "m"),
                AggSpec("sum", col("v") * 2.0, "q", quantile=0.9),
            ],
        )
        legacy = sbox.run(plan, rng=np.random.default_rng(9))
        result = sbox.run(
            plan, rng=np.random.default_rng(9), chunk_size=chunk_size
        )
        for key in legacy.keys:
            assert (result.keys[key] == legacy.keys[key]).all()
        for alias in legacy.values:
            assert np.array_equal(result.values[alias], legacy.values[alias])
            assert np.array_equal(
                result.estimates[alias].variance_raw,
                legacy.estimates[alias].variance_raw,
            )
            assert np.array_equal(
                result.estimates[alias].n_samples,
                legacy.estimates[alias].n_samples,
            )
            lo, hi = result.estimates[alias].ci_bounds(0.95)
            llo, lhi = legacy.estimates[alias].ci_bounds(0.95)
            assert np.array_equal(lo, llo, equal_nan=True)
            assert np.array_equal(hi, lhi, equal_nan=True)

    def test_no_sort_compares_more_strings_than_distinct_groups(
        self, monkeypatch
    ):
        """Group keys become integers once per batch of rows.

        A count, not a timing: after the per-batch factorization no
        comparison sort may be handed a string column longer than the
        number of distinct group tuples — on the chunk fold (update,
        every merge, the final read-out) and on the serial grouped
        estimator alike.
        """
        db = tpch_database(0.1, seed=3)
        text = (
            "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS q, "
            "AVG(l_discount) AS d, COUNT(*) AS n FROM lineitem "
            "TABLESAMPLE (40 PERCENT) GROUP BY l_returnflag, l_linestatus"
        )
        n_tuples = db.sql_exact(text).n_rows
        chunk_size = db.table("lineitem").n_rows // 5
        assert n_tuples >= 3 and chunk_size > 50 * n_tuples

        string_sorts: list[int] = []
        real_boundaries, real_lexsort = kernels.sorted_boundaries, np.lexsort

        def record(columns):
            string_sorts.extend(
                np.asarray(c).shape[0]
                for c in columns
                if np.asarray(c).dtype.kind in "OUS"
            )

        def sorted_boundaries(columns, n_rows):
            record(columns)
            return real_boundaries(columns, n_rows)

        def lexsort(keys, *args, **kwargs):
            record(keys)
            return real_lexsort(keys, *args, **kwargs)

        monkeypatch.setattr(kernels, "sorted_boundaries", sorted_boundaries)
        monkeypatch.setattr(np, "lexsort", lexsort)
        chunked = db.sql(text, seed=5, chunk_size=chunk_size)
        serial = db.sbox().estimate_from_sample_grouped(
            db.plan_sql(text), chunked.sample
        )
        assert max(string_sorts, default=0) <= n_tuples
        for key in serial.keys:
            assert (chunked.keys[key] == serial.keys[key]).all()
        for alias in serial.values:
            assert np.array_equal(
                chunked.values[alias], serial.values[alias]
            )

    @pytest.mark.parametrize("chunked", [False, True])
    def test_second_grouped_statement_touches_no_string_and_sorts_nothing(
        self, chunked, monkeypatch, gathers
    ):
        """Counts, not timings, on a table that has answered one GROUP BY.

        The base key columns are dictionary-encoded by then, so a second
        statement (other rate, other seed) hashes only dictionaries —
        distinct values, one dictionary per chunk in the read-out's
        union — gathers codes instead of strings, and its
        single-relation fold keeps scan order: no ``sorted_boundaries``
        in ``update``, in any merge, or in the read-out.
        """
        db = tpch_database(0.1, seed=3)
        text = (
            "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS q, "
            "AVG(l_discount) AS d, COUNT(*) AS n FROM lineitem "
            "TABLESAMPLE ({rate} PERCENT) GROUP BY l_returnflag, l_linestatus"
        )
        n_tuples = db.sql_exact(text.format(rate=100)).n_rows
        chunk_size = db.table("lineitem").n_rows // 5 if chunked else None
        first = db.sql(text.format(rate=40), seed=5, chunk_size=chunk_size)

        hashed: list[int] = []
        sorts: list[int] = []
        real_factorize = kernels.factorize
        real_boundaries = kernels.sorted_boundaries

        def factorize(column):
            hashed.append(np.asarray(column).shape[0])
            return real_factorize(column)

        def sorted_boundaries(columns, n_rows):
            sorts.append(n_rows)
            return real_boundaries(columns, n_rows)

        monkeypatch.setattr(kernels, "factorize", factorize)
        monkeypatch.setattr(kernels, "sorted_boundaries", sorted_boundaries)
        del gathers[:]
        second = db.sql(text.format(rate=25), seed=6, chunk_size=chunk_size)
        assert second.sample.n_rows > 50 * n_tuples
        # The read-out unions every chunk's dictionary in one call, so
        # one call sees up to a dictionary per chunk, and the total
        # stays at most what a union per merge hashed.
        n_rows = db.table("lineitem").n_rows
        n_chunks = 1 if chunk_size is None else -(-n_rows // chunk_size)
        assert hashed and max(hashed) <= n_chunks * n_tuples
        assert sum(hashed) <= (86 if chunked else 5)
        assert sorts == []
        assert not [source for source, _ in gathers if source.dtype == object]
        # The strings are still there for whoever reads them.
        assert second.sample.column("l_returnflag").dtype == object
        assert list(second.keys) == list(first.keys)
        for key in first.keys:
            assert second.keys[key].dtype == object
            assert second.keys[key].tolist() == first.keys[key].tolist()

    @pytest.mark.parametrize("chunked", [False, True])
    def test_foreign_key_join_neither_sorts_nor_searches(
        self, chunked, monkeypatch
    ):
        """Counts, not timings: ``lineitem TABLESAMPLE ⋈ orders``.

        The build side is a scan-order sample of a table clustered on
        its parent key — integer keys over a compact span, already in
        key order — so the pipeline's join addresses it directly: no
        ``argsort`` and no ``searchsorted`` is called from the pipeline
        or from the probe kernel it used to share with the interpreter.
        """
        db = tpch_database(0.1, seed=3)
        text = (
            "SELECT SUM(l_extendedprice) AS v FROM lineitem TABLESAMPLE "
            "(20 PERCENT), orders WHERE l_orderkey = o_orderkey"
        )
        chunk_size = db.table("orders").n_rows // 5 if chunked else None
        join_modules = (
            "repro.relational.pipeline",
            "repro.relational.executor",
        )
        calls: list[tuple[str, str]] = []

        def counted(name):
            real = getattr(np, name)

            def wrapper(*args, **kwargs):
                caller = sys._getframe(1).f_globals.get("__name__")
                if caller in join_modules:
                    calls.append((name, caller))
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np, "argsort", counted("argsort"))
        monkeypatch.setattr(np, "searchsorted", counted("searchsorted"))
        result = db.sql(text, seed=5, chunk_size=chunk_size)
        assert result.sample.n_rows > 500
        assert calls == []
        # The interpreter still joins by sort + search: the reference is
        # an independent implementation.
        db.sql_exact(text)
        assert {name for name, _ in calls} == {"argsort", "searchsorted"}

    @staticmethod
    def _core_argsorts(monkeypatch) -> list[np.dtype]:
        """The key dtype of every ``np.argsort`` called from ``repro.core``."""
        seen: list[np.dtype] = []
        real = np.argsort

        def counting(a, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("repro.core"):
                seen.append(np.asarray(a).dtype)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        return seen

    @pytest.mark.parametrize("chunked", [False, True])
    def test_two_sampled_fk_join_folds_without_a_sort(
        self, chunked, monkeypatch
    ):
        """Counts: ``lineitem TABLESAMPLE ⋈ orders TABLESAMPLE``.

        Probed in key order, the ``(l, o)`` lineage strictly ascends, so
        its compaction, every chunk merge and both one-relation masks of
        the lattice sort nothing.
        """
        db = tpch_database(0.1, seed=3)
        text = (
            "SELECT SUM(l_extendedprice) AS v FROM lineitem TABLESAMPLE "
            "(20 PERCENT), orders TABLESAMPLE (50 PERCENT) "
            "WHERE l_orderkey = o_orderkey"
        )
        chunk_size = db.table("orders").n_rows // 5 if chunked else None
        argsorts = self._core_argsorts(monkeypatch)
        result = db.sql(text, seed=5, chunk_size=chunk_size)
        assert result.sample.n_rows > 200
        assert argsorts == []

    @pytest.mark.parametrize("chunked", [False, True])
    def test_three_way_join_fold_sorts_by_uint16_digits_only(
        self, chunked, monkeypatch
    ):
        """Counts: the customer-major ``lineitem`` lineage of a three-way
        join is scrambled, and the fold radix-sorts it — no ``argsort``
        of a packed int64 key."""
        db = tpch_database(0.1, seed=3)
        text = (
            "SELECT SUM(l_extendedprice) AS v, COUNT(*) AS n FROM lineitem "
            "TABLESAMPLE (20 PERCENT), orders, customer WHERE l_orderkey = "
            "o_orderkey AND o_custkey = c_custkey AND c_acctbal > 0.0"
        )
        chunk_size = db.table("lineitem").n_rows // 5 if chunked else None
        argsorts = self._core_argsorts(monkeypatch)
        result = db.sql(text, seed=5, chunk_size=chunk_size)
        assert result.sample.n_rows > 200
        assert argsorts and set(argsorts) == {np.dtype(np.uint16)}

    @pytest.mark.parametrize("chunked", [False, True])
    def test_version_diff_nets_with_at_most_one_argsort(
        self, chunked, monkeypatch
    ):
        """Counts: both sides' keys ascend, so netting their hi-then-lo
        concatenation merges two runs — one ``argsort`` at most."""
        db = tpch_database(0.1, seed=3)
        lineitem = db.table("lineitem")
        price = lineitem.column("l_extendedprice").copy()
        price[::7] *= 1.1
        db.update_table(
            "lineitem", lineitem.with_columns({"l_extendedprice": price})
        )
        text = (
            "SELECT SUM(l_extendedprice) AS v FROM lineitem MINUS AT "
            "VERSION 1 TABLESAMPLE (20 PERCENT) REPEATABLE (7)"
        )
        chunk_size = lineitem.n_rows // 5 if chunked else None
        argsorts = self._core_argsorts(monkeypatch)
        db.sql(text, chunk_size=chunk_size)
        assert len(argsorts) <= 1

    @pytest.mark.parametrize("chunk_size", [7, 131, 4096, 10**6])
    def test_ungrouped_bit_identical(self, chunk_size):
        sbox = SBox(CATALOG)
        plan = Aggregate(
            TableSample(Scan("fact"), Bernoulli(0.35)),
            [
                AggSpec("sum", col("v"), "t"),
                AggSpec("count", None, "c"),
                AggSpec("avg", col("v"), "m"),
            ],
        )
        legacy = sbox.run(plan, rng=np.random.default_rng(4))
        result = sbox.run(
            plan, rng=np.random.default_rng(4), chunk_size=chunk_size
        )
        for alias in legacy.values:
            assert result.values[alias] == legacy.values[alias]
            assert (
                result.estimates[alias].variance_raw
                == legacy.estimates[alias].variance_raw
            )
            assert (
                result.estimates[alias].n_sample
                == legacy.estimates[alias].n_sample
            )

    def test_join_estimate_invariant_and_variance_exact(self):
        sbox = SBox(CATALOG)
        plan = Aggregate(
            LineageSample(
                Join(Scan("dim"), Scan("fact"), ["dk"], ["k"]),
                BiDimensionalBernoulli({"fact": 0.5, "dim": 0.8}, seed=3),
            ),
            [AggSpec("sum", col("v") * col("w"), "t")],
        )
        legacy = sbox.run(plan, rng=np.random.default_rng(1))
        reference = None
        for chunk_size in (61, 999, 10**6):
            result = sbox.run(
                plan, rng=np.random.default_rng(1), chunk_size=chunk_size
            )
            if reference is None:
                reference = result
            else:
                assert result.values == reference.values
                assert (
                    result.estimates["t"].variance_raw
                    == reference.estimates["t"].variance_raw
                )
        # Moments (hence variances) match the legacy path exactly; the
        # point estimate agrees up to float summation order.
        assert (
            reference.estimates["t"].variance_raw
            == legacy.estimates["t"].variance_raw
        )
        assert reference.values["t"] == pytest.approx(
            legacy.values["t"], rel=1e-12
        )
        assert (
            reference.estimates["t"].n_sample
            == legacy.estimates["t"].n_sample
        )

    def test_block_sampling_alignment_keeps_merge_exact(self):
        """Block lineage keys never straddle chunks, so the merged
        state is identical for every chunking."""
        plan = Aggregate(
            TableSample(Scan("fact"), BlockBernoulli(0.5, 96)),
            [AggSpec("sum", col("v"), "t")],
        )
        assert required_alignment(plan) == 96
        sbox = SBox(CATALOG)
        legacy = sbox.run(plan, rng=np.random.default_rng(2))
        reference = None
        for chunk_size in (1, 100, 1000, 10**6):
            result = sbox.run(
                plan, rng=np.random.default_rng(2), chunk_size=chunk_size
            )
            if reference is None:
                reference = result
            else:
                # Bit-for-bit across every chunking — the alignment is
                # what keeps block partial sums whole per chunk.
                assert result.values["t"] == reference.values["t"]
                assert (
                    result.estimates["t"].variance_raw
                    == reference.estimates["t"].variance_raw
                )
            # Repeated lineage keys make the sketch total a per-block
            # partial-sum tree, so the value agrees with the row-order
            # legacy sum only up to float association; the moments (and
            # hence the variance) are exact.
            assert result.values["t"] == pytest.approx(
                legacy.values["t"], rel=1e-12
            )
            assert (
                result.estimates["t"].variance_raw
                == legacy.estimates["t"].variance_raw
            )
            assert (
                result.estimates["t"].n_sample
                == legacy.estimates["t"].n_sample
            )

    def test_keep_sample_false_skips_materialization(self):
        sbox = SBox(CATALOG)
        plan = Aggregate(
            TableSample(Scan("fact"), Bernoulli(0.3)),
            [AggSpec("sum", col("v"), "t")],
        )
        with_sample = sbox.run(plan, rng=np.random.default_rng(8))
        without = sbox.run(
            plan, rng=np.random.default_rng(8), keep_sample=False
        )
        assert without.sample is None
        assert with_sample.sample is not None
        assert without.values == with_sample.values
        # The kept sample is pruned to the aggregate-relevant columns.
        assert list(with_sample.sample.columns) == ["v"]
        assert set(with_sample.sample.lineage) == {"fact"}


class TestPartitioning:
    def test_a_source_is_one_chunk_up_to_the_bound(self, monkeypatch):
        # The bound is patched down to 64 rows.  Up to it a source is
        # one chunk, above it 64-row chunks; an explicit chunk_size is
        # honoured either way.
        monkeypatch.setattr(partition, "CHUNK_ROWS", 64)
        n = 3 * 64 + 5
        catalog = {
            "t": Table("t", {"x": np.arange(n, dtype=np.int64)}),
            "small": Table("small", {"x": np.arange(40, dtype=np.int64)}),
        }

        def chunk_rows(plan, **kwargs):
            chunks = ChunkedExecutor(catalog, **kwargs).iter_chunks(plan)
            return [c.n_rows for c in chunks]

        big = Select(Scan("t"), col("x") >= 0)
        small = Select(Scan("small"), col("x") >= 0)
        assert chunk_rows(small) == [40]
        assert chunk_rows(big) == [64] * 3 + [5]
        assert chunk_rows(big, chunk_size=n // 2 + 1) == [
            n // 2 + 1,
            n - n // 2 - 1,
        ]
        assert chunk_rows(small, chunk_size=16) == [16, 16, 8]
        # Pipeline breakers re-chunk their result by the same rule.
        assert chunk_rows(Union(Scan("small"), Scan("small"))) == [40]
        union = Union(Scan("t"), Scan("t"))
        assert chunk_rows(union) == [64] * 3 + [5]
        assert chunk_rows(union, chunk_size=n) == [n]

    def test_chunk_bounds_cover_and_align(self):
        assert chunk_bounds(0, 10) == [(0, 0)]
        bounds = chunk_bounds(1000, 128, align=96)
        assert bounds[0][0] == 0 and bounds[-1][1] == 1000
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start
            assert stop % 96 == 0

    def test_scan_chunks_are_views_of_the_base_columns(self):
        table = CATALOG["fact"]
        chunks = list(
            ChunkedExecutor(CATALOG, chunk_size=1024).iter_chunks(Scan("fact"))
        )
        assert [c.n_rows for c in chunks] == [
            stop - start for start, stop in chunk_bounds(table.n_rows, 1024)
        ]
        for chunk in chunks:
            assert np.shares_memory(
                chunk.columns["v"], table.columns["v"]
            )


class TestJoinProbeNeedsNoReordering:
    @pytest.mark.parametrize("name", ["join", "join_string", "lineage_sample"])
    def test_a_chunked_join_never_lexsorts(self, name, monkeypatch):
        """One sorted build emits every probe chunk in canonical order;
        per-worker build buckets had to ``np.lexsort`` each chunk's pairs
        back into it."""
        plan = PLANS[name]
        serial = Executor(CATALOG, np.random.default_rng(3)).execute(plan)
        calls: list[int] = []
        lexsort = np.lexsort

        def counting(keys, *args, **kwargs):
            calls.append(len(keys))
            return lexsort(keys, *args, **kwargs)

        monkeypatch.setattr(np, "lexsort", counting)
        chunks = list(
            ChunkedExecutor(
                CATALOG, np.random.default_rng(3), chunk_size=512
            ).iter_chunks(plan)
        )
        monkeypatch.undo()
        assert len(chunks) > 4
        assert calls == []
        assert_tables_equal(serial, concat_tables(chunks))


class TestJoinKeyEquality:
    def test_negative_zero_and_nan_keys_match_their_equals(self):
        """-0.0 joins +0.0 and NaN joins NaN in one-row chunks, as
        on the reference interpreter (a build keyed on raw float bits
        once dropped these matches)."""
        left = Table(
            "l", {"a": np.array([-0.0, 1.0, np.nan]), "x": np.arange(3.0)}
        )
        right = Table(
            "r", {"c": np.array([0.0, 1.0, np.nan]), "y": np.arange(3.0)}
        )
        catalog = {"l": left, "r": right}
        plan = Join(Scan("l"), Scan("r"), ["a"], ["c"])
        serial = Executor(catalog).execute(plan)
        assert serial.n_rows == 3  # -0.0 == 0.0, 1.0 == 1.0, nan ~ nan
        chunked = ChunkedExecutor(catalog, chunk_size=1).execute(plan)
        assert_tables_equal(serial, chunked)

"""Execution invariance of the chunked pipeline.

The contract under test: for any worker count (none included) and any
row partitioning, the pipeline produces bit-for-bit the same output —
exactly the output of the independent reference interpreter
(``Executor``), sampling included.
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
from repro.relational.partition import (
    DEFAULT_CHUNK_ROWS,
    PartitionedTable,
    chunk_bounds,
    required_alignment,
)
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
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_all_plans(self, plan_name, workers):
        plan = PLANS[plan_name]
        serial = Executor(CATALOG, np.random.default_rng(42)).execute(plan)
        for chunk_size in (509, 4096, 10**6):
            chunked = ChunkedExecutor(
                CATALOG,
                np.random.default_rng(42),
                workers=workers,
                chunk_size=chunk_size,
            ).execute(plan)
            assert_tables_equal(serial, chunked)

    def test_single_chunk_covers_everything(self):
        """All rows in one partition is just the serial path."""
        plan = PLANS["join"]
        serial = Executor(CATALOG, np.random.default_rng(0)).execute(plan)
        chunked = ChunkedExecutor(
            CATALOG, np.random.default_rng(0), workers=4, chunk_size=10**9
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
            ChunkedExecutor(catalog, workers=2, chunk_size=2),
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
        chunked = ChunkedExecutor(catalog, workers=2, chunk_size=1).execute(
            plan
        )
        # 1.0 ↔ 1.0 once, and the left NaN meets both right NaNs.
        assert serial.n_rows == chunked.n_rows == 3
        assert_tables_equal(serial, chunked)
        # Multi-key (factorized) path: same total order, applied
        # componentwise — (nan, x) only matches (nan, y) when x == y.
        plan2 = Join(Scan("l"), Scan("r"), ["a", "x"], ["c", "y"])
        serial2 = Executor(catalog).execute(plan2)
        chunked2 = ChunkedExecutor(catalog, workers=2, chunk_size=1).execute(
            plan2
        )
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
            chunked = ChunkedExecutor(
                catalog, workers=4, chunk_size=1
            ).execute(plan)
            assert chunked.n_rows == 0
            assert_tables_equal(serial, chunked)

    def test_join_codes_cross_side_consistency(self):
        lc = [np.array(["a", "b", "a"], dtype=object)]
        rc = [np.array(["b", "a"], dtype=object)]
        lcodes, rcodes = join_codes(lc, rc)
        assert lcodes.dtype == np.int64
        assert lcodes[0] == rcodes[1] and lcodes[1] == rcodes[0]


class TestHypothesisInvariance:
    """Bit-for-bit equality for arbitrary row splits and workers."""

    @given(
        n_rows=st.integers(0, 400),
        chunk_size=st.integers(1, 500),
        workers=st.sampled_from([None, 1, 2, 4]),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_sampled_join_pipeline(self, n_rows, chunk_size, workers, seed):
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
            catalog,
            np.random.default_rng(seed),
            workers=workers,
            chunk_size=chunk_size,
        ).execute(plan)
        assert_tables_equal(serial, chunked)
        unpartitioned = ChunkedExecutor(
            catalog, np.random.default_rng(seed), workers=None
        ).execute(plan)
        assert_tables_equal(unpartitioned, chunked)


class TestEstimationInvariance:
    """SBox estimates are the same for one chunk and for many."""

    @pytest.mark.parametrize("workers", [None, 1, 2, 4])
    def test_grouped_bit_identical(self, workers):
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
        for chunk_size in (97, 1024, 10**6):
            result = sbox.run(
                plan,
                rng=np.random.default_rng(9),
                workers=workers,
                chunk_size=chunk_size,
            )
            for key in legacy.keys:
                assert (result.keys[key] == legacy.keys[key]).all()
            for alias in legacy.values:
                assert np.array_equal(
                    result.values[alias], legacy.values[alias]
                )
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
        chunked = db.sql(text, seed=5, workers=1, chunk_size=chunk_size)
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

    @pytest.mark.parametrize("workers", [None, 1, 4])
    def test_second_grouped_statement_touches_no_string_and_sorts_nothing(
        self, workers, monkeypatch, gathers
    ):
        """Counts, not timings, on a table that has answered one GROUP BY.

        The base key columns are dictionary-encoded by then, so a second
        statement (other rate, other seed) hashes only dictionaries —
        distinct values, two dictionaries' worth in a merge — gathers
        codes instead of strings, and its single-relation fold keeps
        scan order: no ``sorted_boundaries`` in ``update``, in any
        merge, or in the read-out.
        """
        db = tpch_database(0.1, seed=3)
        text = (
            "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS q, "
            "AVG(l_discount) AS d, COUNT(*) AS n FROM lineitem "
            "TABLESAMPLE ({rate} PERCENT) GROUP BY l_returnflag, l_linestatus"
        )
        n_tuples = db.sql_exact(text.format(rate=100)).n_rows
        chunk_size = (
            None if workers is None else db.table("lineitem").n_rows // 5
        )
        first = db.sql(
            text.format(rate=40), seed=5, workers=workers, chunk_size=chunk_size
        )

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
        second = db.sql(
            text.format(rate=25), seed=6, workers=workers, chunk_size=chunk_size
        )
        assert second.sample.n_rows > 50 * n_tuples
        assert hashed and max(hashed) <= 2 * n_tuples
        assert sorts == []
        assert not [source for source, _ in gathers if source.dtype == object]
        # The strings are still there for whoever reads them.
        assert second.sample.column("l_returnflag").dtype == object
        assert list(second.keys) == list(first.keys)
        for key in first.keys:
            assert second.keys[key].dtype == object
            assert second.keys[key].tolist() == first.keys[key].tolist()

    @pytest.mark.parametrize("workers", [None, 1, 4])
    def test_foreign_key_join_neither_sorts_nor_searches(
        self, workers, monkeypatch
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
        chunk_size = (
            None if workers is None else db.table("orders").n_rows // 5
        )
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
        result = db.sql(text, seed=5, workers=workers, chunk_size=chunk_size)
        assert result.sample.n_rows > 500
        assert calls == []
        # The interpreter still joins by sort + search: the reference is
        # an independent implementation.
        db.sql_exact(text)
        assert {name for name, _ in calls} == {"argsort", "searchsorted"}

    @pytest.mark.parametrize("workers", [None, 1, 2, 4])
    def test_ungrouped_bit_identical(self, workers):
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
        for chunk_size in (131, 10**6):
            result = sbox.run(
                plan,
                rng=np.random.default_rng(4),
                workers=workers,
                chunk_size=chunk_size,
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
        for workers in (1, 2, 4):
            for chunk_size in (61, 999, 10**6):
                result = sbox.run(
                    plan,
                    rng=np.random.default_rng(1),
                    workers=workers,
                    chunk_size=chunk_size,
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
                plan,
                rng=np.random.default_rng(2),
                workers=3,
                chunk_size=chunk_size,
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
        with_sample = sbox.run(
            plan, rng=np.random.default_rng(8), workers=2
        )
        without = sbox.run(
            plan, rng=np.random.default_rng(8), workers=2, keep_sample=False
        )
        assert without.sample is None
        assert with_sample.sample is not None
        assert without.values == with_sample.values
        # The kept sample is pruned to the aggregate-relevant columns.
        assert list(with_sample.sample.columns) == ["v"]
        assert set(with_sample.sample.lineage) == {"fact"}


class TestPartitioning:
    def test_no_workers_means_one_chunk_per_source(self):
        # No worker count means no partitioning; an explicit
        # chunk_size is honoured all the same.
        n = 3 * DEFAULT_CHUNK_ROWS + 5
        catalog = {"t": Table("t", {"x": np.arange(n, dtype=np.int64)})}
        plan = Select(Scan("t"), col("x") >= 0)

        def chunk_rows(**kwargs):
            chunks = ChunkedExecutor(catalog, **kwargs).iter_chunks(plan)
            return [c.n_rows for c in chunks]

        assert chunk_rows(workers=None) == [n]
        assert chunk_rows(workers=0) == [n]
        assert chunk_rows(workers=1) == [DEFAULT_CHUNK_ROWS] * 3 + [5]
        assert chunk_rows(workers=None, chunk_size=n // 2 + 1) == [
            n // 2 + 1,
            n - n // 2 - 1,
        ]
        # Pipeline breakers re-chunk by the same rule.
        union = Union(Scan("t"), Scan("t"))
        whole = ChunkedExecutor(catalog, workers=None).iter_chunks(union)
        assert [c.n_rows for c in whole] == [n]

    def test_chunk_bounds_cover_and_align(self):
        assert chunk_bounds(0, 10) == [(0, 0)]
        bounds = chunk_bounds(1000, 128, align=96)
        assert bounds[0][0] == 0 and bounds[-1][1] == 1000
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start
            assert stop % 96 == 0

    def test_partitioned_table_zero_copy(self):
        table = CATALOG["fact"]
        part = PartitionedTable.partition(table, chunk_size=1024)
        total = 0
        for chunk in part.chunks():
            assert np.shares_memory(
                chunk.table.columns["v"], table.columns["v"]
            )
            total += chunk.n_rows
        assert total == table.n_rows
        rebuilt = concat_tables([c.table for c in part.chunks()])
        assert_tables_equal(rebuilt, table)


class TestJoinProbeNeedsNoReordering:
    @pytest.mark.parametrize("name", ["join", "join_string", "lineage_sample"])
    def test_join_at_four_workers_never_lexsorts(self, name, monkeypatch):
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
                CATALOG, np.random.default_rng(3), workers=4, chunk_size=512
            ).iter_chunks(plan)
        )
        monkeypatch.undo()
        assert len(chunks) > 4
        assert calls == []
        assert_tables_equal(serial, concat_tables(chunks))


class TestJoinKeyEquality:
    def test_negative_zero_and_nan_keys_match_their_equals(self):
        """-0.0 joins +0.0 and NaN joins NaN at every worker count, as
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
        for workers in (2, 4):
            chunked = ChunkedExecutor(
                catalog, workers=workers, chunk_size=1
            ).execute(plan)
            assert_tables_equal(serial, chunked)

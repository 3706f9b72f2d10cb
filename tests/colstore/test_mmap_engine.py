"""Mmap-backed execution: bit-identity, pruning, and catalog wiring.

The headline contract: a query over memory-mapped tables returns the
same bits as over in-RAM tables, at every chunking — storage is
invisible to answers.  Block-stat
pruning must only ever *skip* rows the predicate would drop anyway, so
it is checked both behaviorally (task lists) and end-to-end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.tpch import tpch_database
from repro.fuzz.checker import fingerprint
from repro.obs.trace import start_trace
from repro.relational import expressions as ex
from repro.relational.database import Database
from repro.relational.partition import required_alignment
from repro.relational.pipeline import (
    ChunkedExecutor,
    _kept_runs,
    _predicate_conjuncts,
    _ruled_out,
)
from repro.relational.table import Table


def _snap(db: Database, statement: str, **kwargs):
    """Bit-exact comparable view of any query outcome (tables too)."""
    result = db.sql(statement, **kwargs)
    if isinstance(result, Table):
        return (
            "table",
            {
                name: np.asarray(col).tobytes() if np.asarray(col).dtype != object else tuple(col)
                for name, col in result.columns.items()
            },
            {rel: ids.tobytes() for rel, ids in result.lineage.items()},
        )
    return ("ok", fingerprint(result))


_STATEMENTS = [
    "SELECT SUM(v) AS s, COUNT(*) AS n FROM fact"
    " TABLESAMPLE (30 PERCENT) REPEATABLE (7)",
    "SELECT AVG(v * w) AS a FROM fact"
    " TABLESAMPLE (50 PERCENT) REPEATABLE (3), dim WHERE fk = dk",
    "SELECT tag, SUM(v) AS s FROM fact"
    " TABLESAMPLE (60 PERCENT) REPEATABLE (11) GROUP BY tag",
    "SELECT fk, v FROM fact WHERE v > 90 AND fk < 25",
]


def _tables(seed: int = 42) -> dict[str, dict[str, np.ndarray]]:
    rng = np.random.default_rng(seed)
    n = 600
    tags = np.empty(n, dtype=object)
    tags[:] = [f"g{i % 5}" for i in range(n)]
    return {
        "fact": {
            "fk": rng.integers(0, 50, n).astype(np.int64),
            "v": rng.normal(100.0, 20.0, n),
            "tag": tags,
        },
        "dim": {
            "dk": np.arange(50, dtype=np.int64),
            "w": rng.random(50),
        },
    }


@pytest.fixture(scope="module")
def inram_db() -> Database:
    db = Database(seed=0, chunk_size=64)
    for name, cols in _tables().items():
        db.create_table(name, cols)
    return db


@pytest.fixture(scope="module")
def mmap_db(tmp_path_factory) -> Database:
    root = tmp_path_factory.mktemp("colstore-engine")
    db = Database(seed=0, chunk_size=64)
    for name, cols in _tables().items():
        db.register(name, Table(name, cols).persist(root / name, block_rows=100))
    return db


@pytest.mark.parametrize("statement", _STATEMENTS)
@pytest.mark.parametrize("chunk_size", [None, 7, 100, 10**9])
def test_mmap_bit_identical_to_inram(
    inram_db, mmap_db, statement, chunk_size
) -> None:
    """Same statement, same seed → same bits, whatever the storage or
    chunking (the databases' own 64 rows, 7 rows, 100 rows, one
    chunk)."""
    baseline = _snap(inram_db, statement, seed=9, chunk_size=chunk_size)
    mapped = _snap(mmap_db, statement, seed=9, chunk_size=chunk_size)
    assert baseline == mapped


# -- block-stat pruning -------------------------------------------------------


def _compiled_tasks(db: Database, statement: str, chunk_size: int):
    plan = db.plan_sql(statement)
    executor = ChunkedExecutor(
        db.tables, np.random.default_rng(0), chunk_size=chunk_size
    )
    executor._prepare_draws(plan)
    return executor._compile(plan, None, required_alignment(plan)).tasks


def test_pruning_skips_unmatchable_chunks(tmp_path) -> None:
    db = Database(seed=0)
    table = Table(
        "t",
        {
            "a": np.arange(100, dtype=np.int64),
            "v": np.linspace(0.0, 1.0, 100),
        },
    )
    db.register("t", table.persist(tmp_path / "t", block_rows=10))

    tasks = _compiled_tasks(db, "SELECT v FROM t WHERE a >= 90", 10)
    assert tasks == [(90, 100)]

    tasks = _compiled_tasks(db, "SELECT v FROM t WHERE a >= 50 AND a < 60", 10)
    assert tasks == [(50, 60)]

    # All chunks pruned: one empty task survives to carry the schema.
    tasks = _compiled_tasks(db, "SELECT v FROM t WHERE a < 0", 10)
    assert tasks == [(0, 0)]

    # An unpruned in-RAM table keeps every chunk.
    db2 = Database(seed=0)
    db2.register("t", table)
    tasks = _compiled_tasks(db2, "SELECT v FROM t WHERE a >= 90", 10)
    assert len(tasks) == 10


def _draw_and_tasks(db: Database, statement: str, seed: int):
    """The sample positions and pruned tasks of a default-chunked run."""
    plan = db.plan_sql(statement).child  # what the aggregate folds
    executor = ChunkedExecutor(db.tables, np.random.default_rng(seed))
    executor._prepare_draws(plan)
    (draw,) = executor._draws.values()
    return draw.rows, executor._compile(plan, None, required_alignment(plan)).tasks


def _sampled_rows(db: Database, statement: str, seed: int) -> int:
    """Rows the statement's sampling node hands on, over all tasks."""
    with start_trace("q") as tracer:
        db.sql(statement, seed=seed)
    return sum(
        span.attrs["rows_out"]
        for span in tracer.finish_trace().spans
        if span.name.startswith("TableSample(")
    )


_BLOCK_PRUNED = {
    # One 256-row block, tuple-level: exactly that block is gathered.
    "SELECT SUM(v) AS s, COUNT(*) AS n FROM t TABLESAMPLE (30 PERCENT)"
    " WHERE a >= 1024 AND a < 1280": [(1024, 1280)],
    # SYSTEM blocks of 100 rows: the run widens to whole sampling blocks.
    "SELECT SUM(v) AS s, COUNT(*) AS n FROM t"
    " TABLESAMPLE (SYSTEM (50 PERCENT, 100)) WHERE a >= 1024 AND a < 1280": [
        (1000, 1300)
    ],
    # b cycles every 1 024 rows: four separate runs of one chunk.
    "SELECT AVG(v) AS m FROM t TABLESAMPLE (SYSTEM (40 PERCENT, 64))"
    " WHERE b >= 256 AND b < 512": [
        (256, 512), (1280, 1536), (2304, 2560), (3328, 3584)
    ],
}


@pytest.mark.parametrize("statement", sorted(_BLOCK_PRUNED))
def test_one_chunk_prunes_by_block(tmp_path, statement) -> None:
    """A table under the chunk bound is one chunk, and its block stats
    still cut the scan to the blocks the predicate may match: only
    their sampled rows are gathered, and the answer is the in-RAM (no
    stats) answer, bit for bit."""
    n = 4096
    table = Table(
        "t",
        {
            "a": np.arange(n, dtype=np.int64),
            "b": np.arange(n, dtype=np.int64) % 1024,
            "v": np.cos(np.arange(n) * 0.01),
        },
    )
    mapped = Database(seed=0)
    mapped.register("t", table.persist(tmp_path / "t", block_rows=256))
    ram = Database(seed=0)
    ram.register("t", table)

    rows, tasks = _draw_and_tasks(mapped, statement, seed=3)
    assert tasks == _BLOCK_PRUNED[statement]
    kept = sum(
        int(np.count_nonzero((rows >= start) & (rows < stop)))
        for start, stop in tasks
    )
    assert 0 < _sampled_rows(mapped, statement, seed=3) == kept < rows.size
    assert _sampled_rows(ram, statement, seed=3) == rows.size
    assert _snap(mapped, statement, seed=3) == _snap(ram, statement, seed=3)


def test_pruned_results_equal_unpruned(tmp_path) -> None:
    db = Database(seed=0, chunk_size=16)
    table = Table(
        "t",
        {
            "a": np.arange(512, dtype=np.int64),
            "v": np.sin(np.arange(512) * 0.1),
        },
    )
    db.register("t", table.persist(tmp_path / "t", block_rows=32))
    db2 = Database(seed=0, chunk_size=16)
    db2.register("t", table)
    for statement in [
        "SELECT a, v FROM t WHERE a >= 300 AND a < 420",
        "SELECT SUM(v) AS s FROM t TABLESAMPLE (40 PERCENT) REPEATABLE (2)"
        " WHERE a < 64",
        "SELECT COUNT(*) AS n FROM t WHERE a = 700",
    ]:
        pruned = _snap(db, statement, seed=1)
        full = _snap(db2, statement, seed=1)
        assert pruned == full, statement


@pytest.fixture(scope="module")
def updated_lineitem(tmp_path_factory):
    """``lineitem`` persisted, then one column replaced — every price
    negated, so no old bound of that column still holds — beside its
    in-RAM twin updated the same way."""
    root = tmp_path_factory.mktemp("updated")
    ram = tpch_database(0.2, seed=11)
    mapped = tpch_database(0.2, seed=11)
    mapped.persist("lineitem", str(root / "lineitem"), block_rows=1024)
    for db in (ram, mapped):
        lineitem = db.table("lineitem")
        price = -lineitem.column("l_extendedprice")
        db.update_table(
            "lineitem", lineitem.with_columns({"l_extendedprice": price})
        )
    return ram, mapped


def test_an_update_keeps_the_untouched_columns_zone_maps(updated_lineitem):
    ram, mapped = updated_lineitem
    lineitem = mapped.table("lineitem")
    n = lineitem.n_rows
    assert "l_orderkey" in lineitem.block_stats
    assert "l_extendedprice" not in lineitem.block_stats
    orderkey = lineitem.column("l_orderkey")
    cut = int(orderkey[n // 3])
    statement = (
        "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS s FROM lineitem "
        f"TABLESAMPLE (15 PERCENT) WHERE l_orderkey < {cut}"
    )
    _, tasks = _draw_and_tasks(mapped, statement, seed=3)
    kept = sum(stop - start for start, stop in tasks)
    # ``lineitem`` is clustered on its order key: the scan keeps the
    # 1 024-row blocks that hold the first third, no more.
    matching = int(np.count_nonzero(orderkey < cut))
    assert matching <= kept < matching + 1024 < n
    assert _draw_and_tasks(ram, statement, seed=3)[1] == [(0, n)]
    assert _snap(mapped, statement, seed=3) == _snap(ram, statement, seed=3)


def test_an_update_drops_the_replaced_columns_zone_maps(updated_lineitem):
    """Every price is negative now, so the old (positive) bounds would
    rule out every block; without them nothing is pruned."""
    ram, mapped = updated_lineitem
    n = mapped.table("lineitem").n_rows
    statement = (
        "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS s FROM lineitem "
        "TABLESAMPLE (15 PERCENT) WHERE l_extendedprice < 0.0"
    )
    assert _draw_and_tasks(mapped, statement, seed=3)[1] == [(0, n)]
    assert mapped.sql(statement, seed=3).values["n"] > 0
    assert _snap(mapped, statement, seed=3) == _snap(ram, statement, seed=3)


def test_conjunct_extraction() -> None:
    pred = ex.And(
        ex.Comparison("<", ex.Col("a"), ex.Lit(10.0)),
        ex.Comparison(">=", ex.Lit(3), ex.Col("b")),
    )
    assert _predicate_conjuncts(pred) == [
        ("a", "<", 10.0),
        ("b", "<=", 3),
    ]
    # Disjunctions cannot prune: no conjuncts extracted.
    pred = ex.Or(
        ex.Comparison("<", ex.Col("a"), ex.Lit(10.0)),
        ex.Comparison(">", ex.Col("a"), ex.Lit(90.0)),
    )
    assert _predicate_conjuncts(pred) == []


def test_ruled_out_respects_open_bounds() -> None:
    stats = {"a": [(0, 10, None, None)]}  # all-NaN block: unknown range
    assert _ruled_out([("a", "<", 5.0)], stats) == []
    stats = {"a": [(0, 10, 20.0, 30.0)]}
    assert _ruled_out([("a", "<", 5.0)], stats) == [(0, 10)]
    assert _ruled_out([("a", "=", 25.0)], stats) == []
    # Rows no stats block covers are conservatively kept.
    dropped = _ruled_out([("a", "<", 5.0)], stats)
    assert _kept_runs((50, 60), dropped, 1) == [(50, 60)]
    assert _kept_runs((0, 60), dropped, 1) == [(10, 60)]


def test_kept_runs_widen_to_whole_sampling_blocks() -> None:
    stats = {
        "a": [(0, 10, 0.0, 1.0), (10, 20, 5.0, 6.0), (20, 30, 0.0, 1.0)],
        "b": [(0, 15, 0.0, 0.0), (15, 30, 9.0, 9.0)],
    }
    # Any conjunct rules its blocks out: a > 3 drops [0, 10) and
    # [20, 30), b < 5 drops [15, 30).
    dropped = _ruled_out([("a", ">", 3.0), ("b", "<", 5.0)], stats)
    assert dropped == [(0, 10), (15, 30)]
    assert _kept_runs((0, 30), dropped, 1) == [(10, 15)]
    assert _kept_runs((0, 30), dropped, 4) == [(8, 16)]
    assert _kept_runs((0, 30), dropped, 16) == [(0, 16)]
    assert _kept_runs((16, 30), dropped, 16) == []
    # Runs that meet once widened become one task.
    dropped = [(3, 5), (9, 11)]
    assert _kept_runs((0, 16), dropped, 1) == [(0, 3), (5, 9), (11, 16)]
    assert _kept_runs((0, 16), dropped, 4) == [(0, 16)]


# -- database wiring ----------------------------------------------------------


def test_database_persist_swaps_and_invalidates(tmp_path) -> None:
    db = Database(seed=0, catalog=True)
    db.create_table("x", {"v": np.arange(64, dtype=np.float64)})
    db.sql("SELECT SUM(v) AS s FROM x TABLESAMPLE (50 PERCENT) REPEATABLE (1)")
    assert len(db.synopses) == 1
    mapped = db.persist("x", tmp_path / "x")
    assert mapped.is_mmap
    assert db.table("x").is_mmap
    assert len(db.synopses) == 0  # swap invalidated the stored sample
    result = db.sql_exact("SELECT SUM(v) AS s FROM x")
    assert float(result.column("s")[0]) == float(np.arange(64.0).sum())


def test_database_attach_registers_mmap(tmp_path) -> None:
    Table("x", {"v": np.arange(10, dtype=np.int64)}).persist(tmp_path / "x")
    db = Database(seed=0)
    attached = db.attach("x", tmp_path / "x")
    assert attached.is_mmap
    assert db.table("x").n_rows == 10


# -- string columns stay dictionary codes from disk to estimate --------------


def _string_table(n: int) -> Table:
    rng = np.random.default_rng(17)
    flags = np.array(["N", "A", "R", None], dtype=object)
    return Table(
        "t",
        {
            "flag": flags[rng.integers(0, 4, n)],
            "status": np.array(["O", "F"], dtype=object)[rng.integers(0, 2, n)],
            "v": rng.normal(10.0, 3.0, n),
        },
    )


def test_attach_allocates_no_per_row_string_memory(tmp_path) -> None:
    """Attaching maps the codes; no object array is decoded at open."""
    import tracemalloc

    n = 200_000
    _string_table(n).persist(tmp_path / "t")
    tracemalloc.start()
    try:
        mapped = Table.from_mmap(tmp_path / "t")
        chunk = mapped.slice(70_000, 70_500)
        codes, values = chunk.columns.encoded("flag")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n  # under one byte a row (a decode would take eight)
    assert isinstance(codes, np.memmap) and codes.shape == (500,)
    assert values.tolist() == mapped.slice(0, 100).columns.encoded("flag")[1].tolist()
    # Reading strings decodes the rows that were asked for, no others.
    tracemalloc.start()
    try:
        strings = chunk.column("flag")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert strings.dtype == object and strings.shape == (500,)
    assert peak < n


@pytest.mark.parametrize("chunk_size", [None, 700, 1_000])
def test_encoded_group_keys_answer_the_same_from_ram_and_mmap(
    tmp_path, chunk_size
) -> None:
    ram = Database(seed=0, chunk_size=chunk_size)
    ram.register("t", _string_table(6_000))
    mapped = Database(seed=0, chunk_size=chunk_size)
    mapped.register("t", _string_table(6_000).persist(tmp_path / "t", block_rows=700))
    text = (
        "SELECT flag, status, SUM(v) AS s, AVG(v) AS a, COUNT(*) AS n FROM t"
        " TABLESAMPLE (35 PERCENT) WHERE status = 'O' OR v > 9.0"
        " GROUP BY flag, status"
    )

    def answer(db):
        result = db.sql(text, seed=21)
        out = [[k, col.tolist()] for k, col in result.keys.items()]
        for alias, est in result.estimates.items():
            out.append(
                [
                    alias,
                    est.values.tobytes(),
                    est.variance_raw.tobytes(),
                    est.n_samples.tobytes(),
                ]
            )
        return out

    want = answer(ram)
    # Last key primary; NULL is a group of its own, ordered first.
    assert want[0] == ["flag", [None, "A", "N", "R", None, "A", "N", "R"]]
    assert answer(mapped) == want

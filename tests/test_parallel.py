"""Partitioned runs: the source's own chunking and the one-thread fold.

The bound a source folds as one chunk up to
(:data:`~repro.relational.partition.CHUNK_ROWS`, 2^20 rows) is patched
down to :data:`_BOUND` here, so a small table crosses it.
"""

from __future__ import annotations

import io
import multiprocessing.process
import threading
import tracemalloc

import numpy as np
import pytest

from repro.cli import main
from repro.core.sbox import SBox
from repro.fuzz.checker import fingerprint
from repro.obs.trace import start_trace
from repro.relational import partition
from repro.relational.database import Database
from repro.relational.expressions import col
from repro.relational.pipeline import ChunkedExecutor
from repro.relational.plan import Aggregate, AggSpec, LineageSample, Scan
from repro.relational.table import Table
from repro.sampling.composed import BiDimensionalBernoulli
from repro.service import (
    SELFTEST_STATEMENTS,
    QueryService,
    selftest,
    serve_statements,
)


#: The patched chunk bound: ``_ROWS`` folds as four chunks by default.
_BOUND = 4_096

_ROWS = 3 * _BOUND + 1_000


@pytest.fixture
def small_bound(monkeypatch):
    monkeypatch.setattr(partition, "CHUNK_ROWS", _BOUND)


_STATEMENTS = (
    "SELECT SUM(v) AS s, COUNT(*) AS n FROM t TABLESAMPLE (20 PERCENT)",
    "SELECT g, AVG(v) AS a FROM t TABLESAMPLE (30 PERCENT) GROUP BY g",
)


def _table() -> Table:
    rng = np.random.default_rng(3)
    return Table(
        "t",
        {
            "g": rng.integers(0, 7, _ROWS).astype(np.int64),
            "v": rng.normal(10.0, 2.0, _ROWS),
        },
    )


def _refuse_threads_and_processes(monkeypatch) -> None:
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__}.start() called")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


def test_many_chunks_start_no_thread_and_no_process(
    tmp_path, monkeypatch, small_bound
):
    """A source over the bound folds as bound-size chunks on this
    thread, and answers what one chunk answers, bit for bit."""
    ram = Database(seed=0)
    ram.register("t", _table())
    mapped = Database(seed=0)
    mapped.register("t", _table().persist(tmp_path / "t"))
    plan = ram.plan_sql("SELECT v FROM t")
    executor = ChunkedExecutor(ram.tables)
    assert len(list(executor.iter_chunks(plan))) == 4

    _refuse_threads_and_processes(monkeypatch)
    for statement in _STATEMENTS:
        want = fingerprint(ram.sql(statement, seed=5, chunk_size=_ROWS))
        for db in (ram, mapped):
            assert fingerprint(db.sql(statement, seed=5)) == want


# -- the chunking is the source's --------------------------------------------


def _answer(result):
    """Bit-exact view of an estimate (values and raw variances) or a
    materialized table."""
    if isinstance(result, Table):
        return {
            name: np.asarray(column).tobytes()
            for name, column in result.columns.items()
        }
    variances = {
        alias: np.asarray(est.variance_raw).tobytes()
        for alias, est in result.estimates.items()
    }
    return fingerprint(result), variances


def _chunk_rows(n_rows: int = _ROWS, **kwargs) -> list[int]:
    db = Database(seed=0)
    db.register("t", Table("t", {"v": np.arange(n_rows, dtype=np.float64)}))
    executor = ChunkedExecutor(db.tables, **kwargs)
    chunks = list(executor.iter_chunks(db.plan_sql("SELECT v FROM t")))
    return [chunk.n_rows for chunk in chunks]


@pytest.mark.parametrize(
    "n_rows, want",
    [
        (17, [17]),
        (_BOUND, [_BOUND]),
        (_BOUND + 1, [_BOUND, 1]),
        (_ROWS, [_BOUND] * 3 + [1_000]),
    ],
)
def test_a_source_is_one_chunk_up_to_the_bound(n_rows, want, small_bound):
    """Up to the bound a source is one chunk and above it bound-size
    chunks."""
    assert _chunk_rows(n_rows) == want


def test_the_bound_is_two_to_the_twentieth():
    assert partition.CHUNK_ROWS == 1 << 20
    assert _chunk_rows() == [_ROWS]


def test_a_fold_over_many_bounds_peaks_at_one_chunk(monkeypatch):
    """A sampled scan over four times the bound, with no ``chunk_size``,
    folds four chunks, and its traced peak is a chunk's
    working set (lineage ids, hash, mask), not the table's."""
    bound = 1 << 16
    monkeypatch.setattr(partition, "CHUNK_ROWS", bound)
    n = 4 * bound
    rng = np.random.default_rng(0)
    db = Database(seed=0)
    db.register("t", Table("t", {"v": rng.normal(size=n), "w": rng.normal(size=n)}))
    # A lineage sample keeps rows by a hash of their ids, chunk by chunk:
    # no draw over the whole table, so what a chunk allocates is the peak.
    plan = Aggregate(
        LineageSample(Scan("t"), BiDimensionalBernoulli({"t": 0.01}, seed=3)),
        [AggSpec("sum", col("v"), "s"), AggSpec("count", None, "n")],
    )

    def peak(**kwargs) -> int:
        db.estimate(plan, seed=0, keep_sample=False, **kwargs)  # warm caches
        tracemalloc.start()
        try:
            db.estimate(plan, seed=0, keep_sample=False, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with start_trace("q") as tracer:
        db.estimate(plan, seed=0, keep_sample=False)
    spans = tracer.finish_trace().spans
    assert sum(span.kind == "chunk" for span in spans) >= 4
    default, one_chunk = peak(), peak(chunk_size=n)
    # About 14 bytes per bound row here; a fold of the whole table as
    # one chunk peaks at about three times that.
    assert default <= 24 * bound, default
    assert 2 * default < one_chunk, (default, one_chunk)


@pytest.mark.parametrize(
    "chunk_size, want",
    [
        (1_000, [1_000] * 13 + [288]),
        (5_000, [5_000, 5_000, _ROWS - 10_000]),
        (_BOUND, [_BOUND] * 3 + [1_000]),
        # Above the bound too: an explicit size is never capped.
        (_ROWS, [_ROWS]),
        (2 * _ROWS, [_ROWS]),
    ],
)
def test_an_explicit_chunk_size_is_always_honoured(
    chunk_size, want, small_bound
):
    assert _chunk_rows(chunk_size=chunk_size) == want


# -- no route through the engine starts a thread or a process ------------------


def _database(backing: str, root) -> Database:
    db = Database(seed=0)
    table = _table()
    if backing == "mmap":
        table = table.persist(root / "t")
    db.register("t", table)
    db.create_table(
        "d",
        {"dk": np.arange(7, dtype=np.int64), "w": np.linspace(0.5, 2.0, 7)},
    )
    changed = db.table("t").column("v").copy()
    changed[:500] += 10.0
    db.update_table("t", db.table("t").with_columns({"v": changed}))
    return db


_GROUPED = _STATEMENTS[1]
_JOIN = (
    "SELECT SUM(v * w) AS s FROM t TABLESAMPLE (20 PERCENT), d WHERE g = dk"
)


def _route_sql(db):
    return db.sql(_STATEMENTS[0], seed=5)


def _route_grouped(db):
    return db.sql(_GROUPED, seed=5)


def _route_join(db):
    return db.sql(_JOIN, seed=5)


def _route_execute(db):
    plan = db.plan_sql("SELECT g, v FROM t TABLESAMPLE (10 PERCENT)")
    return db.execute(plan, seed=5)


def _route_sbox(db):
    plan = db.plan_sql(_GROUPED)
    return SBox(db.tables).run(plan, rng=np.random.default_rng(5))


def _route_version_diff(db):
    return db.sql(
        "SELECT SUM(v) AS s FROM t MINUS AT VERSION 1 "
        "TABLESAMPLE (20 PERCENT) REPEATABLE (3)",
        seed=5,
    )


def _route_traced(db):
    with start_trace("q"):
        return db.sql(_JOIN, seed=5)


_ROUTES = {
    "sql": _route_sql,
    "grouped": _route_grouped,
    "join": _route_join,
    "execute": _route_execute,
    "sbox": _route_sbox,
    "version_diff": _route_version_diff,
    "traced": _route_traced,
}


def _chunk_spans(db: Database) -> int:
    with start_trace("q") as tracer:
        _route_sql(db)
    return sum(span.kind == "chunk" for span in tracer.finish_trace().spans)


@pytest.mark.parametrize("backing", ["ram", "mmap"])
@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_no_route_starts_a_thread_or_process(
    route, backing, tmp_path, monkeypatch, small_bound
):
    """Every entry point folds its (four) chunks on the caller, and
    answers the same with threads and processes refused, bit for bit."""
    db = _database(backing, tmp_path)
    run = _ROUTES[route]
    want = _answer(run(db))
    _refuse_threads_and_processes(monkeypatch)
    assert _answer(run(db)) == want


@pytest.mark.parametrize("backing", ["ram", "mmap"])
@pytest.mark.parametrize("env", ["abc", "-3", "2.5", "1", "4"])
def test_repro_workers_is_not_read(
    env, backing, tmp_path, monkeypatch, small_bound
):
    """``REPRO_WORKERS`` is no setting: neither a value that is no worker
    count nor one that is raises anything, and every route answers as
    without it, bit for bit, over the same four chunks."""
    db = _database(backing, tmp_path)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    want = {name: _answer(run(db)) for name, run in _ROUTES.items()}
    assert _chunk_spans(db) == 4
    monkeypatch.setenv("REPRO_WORKERS", env)
    assert {name: _answer(run(db)) for name, run in _ROUTES.items()} == want
    assert _chunk_spans(db) == 4


# -- nor does serving: one engine thread, and none off the caller's --------

_SERVED = [*_STATEMENTS, _JOIN, _STATEMENTS[0], "\\stats"]


def _answer_lines(lines) -> list[str]:
    """The printed answers, without the timed tags and stats lines."""
    return [line for line in lines if not line.startswith("-- ")]


@pytest.mark.parametrize("backing", ["ram", "mmap"])
def test_serve_statements_starts_no_thread_or_process(
    backing, tmp_path, monkeypatch, small_bound
):
    """The stdin service serves its stream in order on the caller, and
    answers the same with threads and processes refused."""
    free, refused = (
        QueryService(_database(backing, tmp_path / name))
        for name in ("free", "refused")
    )
    want: list[str] = []
    assert serve_statements(free, _SERVED, out=want.append) == 4
    _refuse_threads_and_processes(monkeypatch)
    got: list[str] = []
    assert serve_statements(refused, _SERVED, out=got.append) == 4
    assert _answer_lines(got) == _answer_lines(want)
    assert got[-4].startswith("-- [result-cache, ")


def test_selftest_starts_no_thread_or_process(monkeypatch):
    _refuse_threads_and_processes(monkeypatch)
    messages: list[str] = []
    assert selftest(scale=0.01, out=messages.append)
    assert messages[-1].startswith("selftest ok")


def test_stdin_serve_starts_no_thread_or_process(monkeypatch, capsys):
    """``repro serve`` reading stdin answers as with threads allowed."""
    stdin = "\n".join(SELFTEST_STATEMENTS) + "\n"

    def serve() -> list[str]:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert main(["--scale", "0.01", "serve"]) == 0
        return _answer_lines(capsys.readouterr().out.splitlines())

    want = serve()
    _refuse_threads_and_processes(monkeypatch)
    assert serve() == want

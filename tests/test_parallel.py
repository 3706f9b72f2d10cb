"""Partitioned runs: worker resolution and the one-thread chunk fold."""

from __future__ import annotations

import multiprocessing.process
import threading

import numpy as np
import pytest

from repro.core.sbox import SBox
from repro.errors import ReproError
from repro.fuzz.checker import fingerprint
from repro.obs.trace import start_trace
from repro.relational.database import Database, env_workers, resolve_workers
from repro.relational.partition import DEFAULT_CHUNK_ROWS
from repro.relational.pipeline import ChunkedExecutor
from repro.relational.table import Table


class TestWorkerResolution:
    def test_env_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert env_workers() is None
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert env_workers() == 4
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert env_workers() is None
        monkeypatch.setenv("REPRO_WORKERS", "")
        assert env_workers() is None

    @pytest.mark.parametrize("bad", ["abc", "-3", "2.5"])
    def test_env_workers_rejects_garbage(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ReproError, match="REPRO_WORKERS") as info:
            env_workers()
        assert bad in str(info.value)
        assert "positive integer" in str(info.value)
        with pytest.raises(ReproError, match="REPRO_WORKERS"):
            resolve_workers(None)

    def test_resolve_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2
        # Explicit zero opts out of partitioning entirely.
        assert resolve_workers(0) is None
        monkeypatch.delenv("REPRO_WORKERS")
        assert resolve_workers(None) is None


_ROWS = 3 * DEFAULT_CHUNK_ROWS + 1_000

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


def test_many_chunks_start_no_thread_and_no_process(tmp_path, monkeypatch):
    """``workers=4`` over four default-size chunks runs on this thread
    and answers what ``workers=1`` answers, bit for bit."""
    ram = Database(seed=0)
    ram.register("t", _table())
    mapped = Database(seed=0)
    mapped.register("t", _table().persist(tmp_path / "t"))
    plan = ram.plan_sql("SELECT v FROM t")
    executor = ChunkedExecutor(ram.tables, workers=4)
    assert len(list(executor.iter_chunks(plan))) >= 3

    _refuse_threads_and_processes(monkeypatch)
    for statement in _STATEMENTS:
        want = fingerprint(ram.sql(statement, seed=5, workers=1))
        for db in (ram, mapped):
            assert fingerprint(db.sql(statement, seed=5, workers=4)) == want


# -- what ``workers`` still decides -------------------------------------------


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


def _n_chunks(**kwargs) -> int:
    db = Database(seed=0)
    db.register("t", _table())
    executor = ChunkedExecutor(db.tables, **kwargs)
    chunks = list(executor.iter_chunks(db.plan_sql("SELECT v FROM t")))
    assert sum(chunk.n_rows for chunk in chunks) == _ROWS
    return len(chunks)


@pytest.mark.parametrize("workers", [None, 0, 1, 2, 4])
def test_workers_picks_only_the_chunking(workers):
    """``None``/``0`` is one chunk; any count >= 1 is the same
    default-size chunking."""
    want = 1 if not workers else -(-_ROWS // DEFAULT_CHUNK_ROWS)
    assert _n_chunks(workers=workers) == want


@pytest.mark.parametrize("workers", [None, 0, 1, 4])
def test_explicit_chunk_size_wins_over_workers(workers):
    assert _n_chunks(workers=workers, chunk_size=50_000) == -(-_ROWS // 50_000)


def _chunk_spans(db: Database, statement: str, **kwargs) -> int:
    with start_trace("q") as tracer:
        db.sql(statement, seed=5, **kwargs)
    return sum(span.kind == "chunk" for span in tracer.finish_trace().spans)


@pytest.mark.parametrize("env", ["1", "2", "4"])
def test_repro_workers_sets_the_default_chunking(env, monkeypatch):
    db = Database(seed=0)
    db.register("t", _table())
    statement = _STATEMENTS[0]
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    one_chunk = _chunk_spans(db, statement)
    want = _answer(db.sql(statement, seed=5, workers=1))
    monkeypatch.setenv("REPRO_WORKERS", env)
    assert _chunk_spans(db, statement) == _chunk_spans(db, statement, workers=1)
    assert _chunk_spans(db, statement) > one_chunk == 1
    assert _answer(db.sql(statement, seed=5)) == want


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


def _route_sql(db, workers):
    return db.sql(_STATEMENTS[0], seed=5, workers=workers)


def _route_grouped(db, workers):
    return db.sql(_GROUPED, seed=5, workers=workers)


def _route_join(db, workers):
    return db.sql(_JOIN, seed=5, workers=workers)


def _route_execute(db, workers):
    plan = db.plan_sql("SELECT g, v FROM t TABLESAMPLE (10 PERCENT)")
    return db.execute(plan, seed=5, workers=workers)


def _route_sbox(db, workers):
    plan = db.plan_sql(_GROUPED)
    return SBox(db.tables).run(
        plan, rng=np.random.default_rng(5), workers=workers
    )


def _route_version_diff(db, workers):
    return db.sql(
        "SELECT SUM(v) AS s FROM t MINUS AT VERSION 1 "
        "TABLESAMPLE (20 PERCENT) REPEATABLE (3)",
        seed=5,
        workers=workers,
    )


def _route_traced(db, workers):
    with start_trace("q"):
        return db.sql(_JOIN, seed=5, workers=workers)


_ROUTES = {
    "sql": _route_sql,
    "grouped": _route_grouped,
    "join": _route_join,
    "execute": _route_execute,
    "sbox": _route_sbox,
    "version_diff": _route_version_diff,
    "traced": _route_traced,
}


@pytest.mark.parametrize("backing", ["ram", "mmap"])
@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_no_route_starts_a_thread_or_process(
    route, backing, tmp_path, monkeypatch
):
    """Every entry point folds its chunks on the caller, and a count
    above 1 answers what 1 answers, bit for bit."""
    db = _database(backing, tmp_path)
    run = _ROUTES[route]
    _refuse_threads_and_processes(monkeypatch)
    want = _answer(run(db, 1))
    assert _answer(run(db, 2)) == want
    assert _answer(run(db, 4)) == want

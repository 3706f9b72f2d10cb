"""Process-mode payloads: descriptor-sized pickles, one dispatch strategy.

Process parallelism over out-of-core tables only pays off if nothing
row-shaped ever crosses a pipe: mmap-backed tables pickle as a
``(path, name)`` descriptor, compiled chunk functions pickle as small
operator stacks, and tasks are ``(start, stop)`` bounds.  The tests
here pin those sizes so a regression (someone capturing a table copy
in a closure) fails loudly, and check that a function which cannot
cross the pipe is refused rather than run some other way.
"""

from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest

import repro.parallel as parallel
from repro.errors import ReproError
from repro.parallel import ChunkScheduler
from repro.relational.database import Database
from repro.relational.partition import required_alignment
from repro.relational.pipeline import ChunkedExecutor
from repro.relational.table import Table

#: A compiled operator stack is code references + a table descriptor +
#: draw state; 8 KiB is an order of magnitude above what it needs
#: while 100k rows of float64 would be ~800 KiB.
_MAX_FN_PICKLE = 8 << 10
_MAX_TABLE_PICKLE = 512


def _mmap_table(tmp_path, n_rows: int) -> Table:
    table = Table(
        "t",
        {
            "a": np.arange(n_rows, dtype=np.int64),
            "v": np.arange(n_rows, dtype=np.float64) * 0.5,
        },
    )
    return table.persist(tmp_path / f"t{n_rows}")


def test_mmap_table_pickles_as_descriptor(tmp_path) -> None:
    small = pickle.dumps(_mmap_table(tmp_path, 1_000))
    large = pickle.dumps(_mmap_table(tmp_path, 100_000))
    assert len(small) <= _MAX_TABLE_PICKLE
    assert len(large) <= _MAX_TABLE_PICKLE
    # The whole point: payload size is independent of row count (only
    # the directory path's text length differs).
    assert abs(len(large) - len(small)) <= 16


def test_mmap_table_unpickles_to_same_bytes(tmp_path) -> None:
    table = _mmap_table(tmp_path, 1_000)
    clone = pickle.loads(pickle.dumps(table))
    assert clone.is_mmap
    assert clone.n_rows == table.n_rows
    for name in table.columns:
        assert (
            np.asarray(clone.columns[name]).tobytes()
            == np.asarray(table.columns[name]).tobytes()
        )


def _compile_source(db: Database, statement: str):
    plan = db.plan_sql(statement)
    executor = ChunkedExecutor(db.tables, np.random.default_rng(0), workers=2, chunk_size=4096)
    executor._prepare_draws(plan)
    return executor._compile(plan, None, required_alignment(plan))


def test_compiled_chunk_fn_pickle_is_descriptor_sized(tmp_path) -> None:
    """An operator stack over a 100k-row mmap scan pickles in O(KB)."""
    db = Database(seed=0)
    db.register("t", _mmap_table(tmp_path, 100_000))
    source = _compile_source(db, "SELECT a, v FROM t WHERE v > 10")
    assert len(pickle.dumps(source.fn)) <= _MAX_FN_PICKLE


def test_task_pickles_are_descriptor_sized(tmp_path) -> None:
    """Tasks are (start, stop) bounds — O(bytes) per chunk, never rows.

    The sampled plan's *function* additionally carries the fixed draw
    state (pickled once, through the pool initializer); what crosses
    the pipe per chunk stays descriptor-sized either way.
    """
    db = Database(seed=0)
    db.register("t", _mmap_table(tmp_path, 100_000))
    source = _compile_source(
        db,
        "SELECT a, v FROM t TABLESAMPLE (25 PERCENT) REPEATABLE (3)"
        " WHERE v > 10",
    )
    assert len(source.tasks) >= 20
    for task in source.tasks:
        assert len(pickle.dumps(task)) <= 64  # (start, stop) bounds


def _double(task: int) -> int:
    return task * 2


def test_process_mode_ships_picklable_fn_via_pool() -> None:
    scheduler = ChunkScheduler(workers=2, mode="process")
    assert scheduler.map(_double, list(range(20))) == [2 * i for i in range(20)]


@pytest.mark.parametrize("start_methods", [None, ["spawn"]])
def test_process_mode_rejects_unpicklable_fn_before_any_pool(
    monkeypatch, start_methods
) -> None:
    """A closure is a caller error on every platform: no pool, no fallback."""
    if start_methods is not None:
        monkeypatch.setattr(
            parallel.multiprocessing,
            "get_all_start_methods",
            lambda: start_methods,
        )

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was created for an unpicklable function")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", no_pool)
    offset = 7

    def add_offset(task: int) -> int:
        return task + offset

    scheduler = ChunkScheduler(workers=2, mode="process")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refusing must not warn either
        with pytest.raises(ReproError, match="add_offset"):
            scheduler.map(add_offset, list(range(8)))

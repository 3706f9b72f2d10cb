"""The shared partition scheduler: ordering, backends, env resolution."""

from __future__ import annotations

import os
import threading

import pytest

from repro.errors import ReproError
from repro.parallel import ChunkScheduler, env_workers, resolve_workers


def _pid_and_square(i: int) -> tuple[int, int]:
    return os.getpid(), i * i


class TestChunkScheduler:
    def test_results_in_submission_order(self):
        scheduler = ChunkScheduler(4, mode="thread")
        barrier = threading.Event()

        def slow_then_fast(i: int) -> int:
            # Make an early task finish *after* a later one to prove
            # ordering comes from submission, not completion.
            if i == 0:
                barrier.wait(timeout=5.0)
            elif i == 7:
                barrier.set()
            return i * i

        assert scheduler.map(slow_then_fast, list(range(8))) == [
            i * i for i in range(8)
        ]

    def test_serial_runs_inline(self):
        thread_ids = []

        def record(i):
            thread_ids.append(threading.get_ident())
            return i

        ChunkScheduler(1).map(record, [1, 2, 3])
        assert set(thread_ids) == {threading.get_ident()}

    def test_exceptions_propagate(self):
        def boom(i):
            raise ValueError(f"task {i}")

        with pytest.raises(ValueError, match="task"):
            ChunkScheduler(2, mode="thread").map(boom, [0, 1, 2])

    def test_imap_window_bounds_in_flight(self):
        scheduler = ChunkScheduler(2, mode="thread")
        seen = []
        results = scheduler.imap(lambda i: i + 1, range(20), window=3)
        for value in results:
            seen.append(value)
        assert seen == list(range(1, 21))

    def test_validation(self):
        with pytest.raises(ReproError):
            ChunkScheduler(0)
        with pytest.raises(ReproError):
            ChunkScheduler(2, mode="carrier-pigeon")

    def test_process_mode_maps_module_level_callable_through_pool(self):
        results = ChunkScheduler(2, mode="process").map(
            _pid_and_square, list(range(12))
        )
        assert [value for _, value in results] == [i * i for i in range(12)]
        # Every task ran in a pool worker, none in the driver.
        assert os.getpid() not in {pid for pid, _ in results}


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

    def test_env_scheduler_typo_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", "proces")
        with pytest.raises(ReproError, match="REPRO_SCHEDULER") as info:
            ChunkScheduler(2)
        message = str(info.value)
        assert "'proces'" in message
        assert "thread" in message and "process" in message
        # An explicit mode never consults the environment.
        assert ChunkScheduler(2, mode="thread").mode == "thread"

    @pytest.mark.parametrize(
        "raw, mode",
        [(None, "thread"), ("", "thread"), (" Process ", "process")],
    )
    def test_env_scheduler_accepted_values(self, monkeypatch, raw, mode):
        if raw is None:
            monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
        else:
            monkeypatch.setenv("REPRO_SCHEDULER", raw)
        assert ChunkScheduler(2).mode == mode

    def test_resolve_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2
        # Explicit zero opts out of the chunked engine entirely.
        assert resolve_workers(0) is None
        monkeypatch.delenv("REPRO_WORKERS")
        assert resolve_workers(None) is None

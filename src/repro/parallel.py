"""The shared partition scheduler.

One small abstraction serves every layer that fans work out over
partitions: the chunked relational pipeline maps operator stacks over
table chunks, the streaming :class:`~repro.stream.ShardCoordinator`
updates shard sketches concurrently, and benchmarks drive both.  The
scheduler's contract is deliberately strict so the engine's
bit-for-bit reproducibility claim survives parallelism:

* **Order preservation** — results come back in task-submission order
  no matter which worker finished first, so downstream merges always
  fold partitions in the same deterministic order.
* **Pure tasks** — the mapped function must not mutate shared state;
  every task returns its contribution and the (single-threaded) caller
  merges.

Each mode has exactly one dispatch strategy, so the mode that was asked
for is the mode that ran.  ``thread`` (the default) is a thread pool:
NumPy releases the GIL inside numeric sorts, gathers and ufunc loops,
and threads pay no pickling freight.  Comparing Python objects holds the
GIL, so the grouped chunk fold turns string GROUP BY keys into int64
codes first (one hashing pass per chunk, under the GIL, linear in the
chunk's rows) and every sort and merge after that runs on packed
integers.
``process`` is a process pool that ships descriptors: the mapped
function is pickled **once** and broadcast through the pool
initializer, then each task ships only its descriptor (for pipeline
chunks a ``(start, stop)`` bounds tuple; mmap-backed tables pickle as
path descriptors), which works under every start method.  A function
that cannot be pickled raises :class:`~repro.errors.ReproError` before
any pool exists.

``REPRO_WORKERS`` sets an engine-wide default worker count and
``REPRO_SCHEDULER`` the mode; a value outside the accepted set raises
rather than selecting the default, so a typo in a CI job cannot pass by
testing the wrong configuration.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any

from repro.errors import ReproError

__all__ = [
    "ChunkScheduler",
    "available_cpus",
    "env_workers",
    "resolve_workers",
    "worker_label",
]


def worker_label() -> str:
    """Identity of the executing worker, for trace span attribution.

    Distinguishes pool threads and worker processes from the driver;
    purely informational — trace *structure* never depends on it.
    """
    return f"{os.getpid()}:{threading.get_ident()}"


_MODES = ("thread", "process")


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def env_workers() -> int | None:
    """The ``REPRO_WORKERS`` engine-wide default.

    Unset, empty and ``0`` mean "no default" (the pipeline runs inline
    and unpartitioned); anything but a non-negative integer raises.
    """
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if raw and not raw.isdecimal():
        raise ReproError(
            f"REPRO_WORKERS={raw!r} is not a worker count; accepted "
            "values are unset/empty, 0 (inline) or a positive integer"
        )
    return int(raw or 0) or None


def resolve_workers(workers: int | None) -> int | None:
    """Resolve an explicit worker count against the environment default.

    ``None`` defers to ``REPRO_WORKERS`` (itself possibly unset); any
    integer >= 1 is taken literally; 0 and negatives mean "no pool" —
    the pipeline runs inline and unpartitioned — and resolve to
    ``None``.
    """
    if workers is None:
        return env_workers()
    return int(workers) if workers >= 1 else None


#: The function a process pool runs, installed in each worker by the
#: pool initializer from one pickled payload — so a map over N tasks
#: pickles the operator stack once, not N times, and works under spawn
#: where nothing is inherited.
_POOL_FN: Callable[[Any], Any] | None = None


def _install_pool_fn(payload: bytes) -> None:  # pragma: no cover - child
    global _POOL_FN
    _POOL_FN = pickle.loads(payload)


def _invoke_pool_fn(task: Any) -> Any:  # pragma: no cover - child process
    assert _POOL_FN is not None
    return _POOL_FN(task)


def _process_pool(fn: Callable[[Any], Any], workers: int) -> Executor:
    """A process pool whose workers each hold one unpickled ``fn``."""
    try:
        payload = pickle.dumps(fn)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        name = getattr(fn, "__qualname__", type(fn).__qualname__)
        raise ReproError(
            f"scheduler mode 'process' needs a picklable function, "
            f"but {name} is not ({exc}); map a module-level callable "
            "or use mode='thread'"
        ) from exc
    start_methods = multiprocessing.get_all_start_methods()
    method = "fork" if "fork" in start_methods else start_methods[0]
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(method),
        initializer=_install_pool_fn,
        initargs=(payload,),
    )


class ChunkScheduler:
    """Order-preserving map over partition tasks.

    ``workers <= 1`` (or a single task) runs inline with zero pool
    overhead — the serial path and the parallel path execute the exact
    same per-task closures, which is what makes "same results for any
    worker count" testable rather than aspirational.
    """

    __slots__ = ("workers", "mode")

    def __init__(self, workers: int = 1, mode: str | None = None) -> None:
        if workers < 1:
            raise ReproError(f"need at least one worker, got {workers}")
        source = "scheduler mode "
        if mode is None:
            source = "REPRO_SCHEDULER="
            mode = os.environ.get("REPRO_SCHEDULER", "").strip().lower() or "thread"
        if mode not in _MODES:
            raise ReproError(
                f"unknown {source}{mode!r}; accepted values are {_MODES}"
            )
        self.workers = int(workers)
        self.mode = mode

    # -- execution ------------------------------------------------------

    def map(
        self, fn: Callable[[Any], Any], tasks: Sequence[Any]
    ) -> list[Any]:
        """Run ``fn`` over ``tasks``; results in submission order."""
        return list(self.imap(fn, tasks))

    def imap(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        *,
        window: int | None = None,
    ) -> Iterator[Any]:
        """Lazily yield ``fn(task)`` in submission order.

        At most ``window`` tasks are in flight (default ``4 × workers``)
        so a consumer that folds each result immediately keeps peak
        memory proportional to the window, not the task list.
        """
        tasks = list(tasks)
        if self.workers <= 1 or len(tasks) <= 1:
            for task in tasks:
                yield fn(task)
            return
        if window is None:
            window = 4 * self.workers
        window = max(window, 1)
        n_workers = min(self.workers, len(tasks))
        if self.mode == "process":
            pool = _process_pool(fn, n_workers)
            fn = _invoke_pool_fn
        else:
            pool = ThreadPoolExecutor(max_workers=n_workers)
        with pool:
            pending: list = []
            submitted = 0
            while submitted < len(tasks) or pending:
                while submitted < len(tasks) and len(pending) < window:
                    pending.append(pool.submit(fn, tasks[submitted]))
                    submitted += 1
                yield pending.pop(0).result()

    def __repr__(self) -> str:
        return f"ChunkScheduler(workers={self.workers}, mode={self.mode!r})"


"""Concurrency stress: many threads hammering one catalog + service.

Run by CI under ``PYTHONDEVMODE=1`` with 8 threads: races on the
shared synopsis catalog and result cache show up as inconsistent
answers, unbalanced counters, or ResourceWarnings.  The invariants:

* every thread sees the *same* answer for the same (statement, seed);
* catalog accounting balances (lookups == hits + misses) and the
  resident byte count returns to a consistent state;
* concurrent table mutation never crashes a reader and never lets a
  stale synopsis serve a post-mutation query.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.data.tpch import tpch_database
from repro.relational.database import Database
from repro.service import QueryService, selftest
from repro.store import SynopsisCatalog
from repro.store import catalog as catalog_module

N_THREADS = 8


@pytest.fixture()
def service() -> QueryService:
    db = tpch_database(scale=0.02, seed=3)
    db.attach_catalog()
    return QueryService(db)


WORKLOAD = [
    "SELECT SUM(l_extendedprice) AS v FROM lineitem "
    "TABLESAMPLE (20 PERCENT) REPEATABLE (1)",
    "SELECT COUNT(*) AS v FROM lineitem "
    "TABLESAMPLE (20 PERCENT) REPEATABLE (1)",
    "SELECT SUM(l_extendedprice) AS v FROM lineitem "
    "TABLESAMPLE (10 PERCENT) REPEATABLE (1)",
    "SELECT SUM(l_extendedprice) AS v FROM lineitem "
    "TABLESAMPLE (20 PERCENT) REPEATABLE (1) WHERE l_quantity > 25",
    "SELECT l_returnflag, SUM(l_quantity) AS q FROM lineitem "
    "TABLESAMPLE (20 PERCENT) REPEATABLE (1) GROUP BY l_returnflag",
    "SELECT SUM(o_totalprice) AS v FROM orders "
    "TABLESAMPLE (30 PERCENT) REPEATABLE (2)",
]


def test_concurrent_sessions_agree(service):
    rounds = 4
    barrier = threading.Barrier(N_THREADS)
    # Warm the base synopsis so the storm's subsumed statements have a
    # stored sample to hit (otherwise all six distinct statements can
    # execute concurrently, each missing before any put lands).
    warm = service.query(WORKLOAD[0])
    assert not warm.cached

    def run_client(tid: int) -> list[tuple[str, str]]:
        barrier.wait()
        out = []
        # Each thread walks the workload from a different offset so
        # misses, hits, and thinning interleave across threads.
        for i in range(rounds * len(WORKLOAD)):
            statement = WORKLOAD[(i + tid) % len(WORKLOAD)]
            response = service.query(statement)
            out.append((statement, response.text))
        return out

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        results = list(pool.map(run_client, range(N_THREADS)))

    canonical: dict[str, str] = {}
    for thread_answers in results:
        for statement, text in thread_answers:
            expected = canonical.setdefault(statement, text)
            assert text == expected, f"divergent answer for {statement!r}"

    stats, store = service.snapshot_stats()
    assert stats.queries == N_THREADS * rounds * len(WORKLOAD) + 1
    assert stats.errors == 0
    assert store.lookups == store.hits + store.misses
    assert store.hits > 0
    assert stats.result_cache_hits > 0


def test_concurrent_mutation_never_serves_stale(service):
    db = service.db
    stop = threading.Event()
    failures: list[str] = []

    def mutate():
        lineitem = db.table("lineitem")
        while not stop.is_set():
            service.refresh_table("lineitem", lineitem)

    def read(tid: int):
        for i in range(30):
            try:
                response = service.query(WORKLOAD[i % 2], seed=i % 5)
            except Exception as exc:  # noqa: BLE001 - recorded, re-raised below
                failures.append(f"{type(exc).__name__}: {exc}")
                return
            assert response.text

    mutator = threading.Thread(target=mutate)
    mutator.start()
    try:
        with ThreadPoolExecutor(max_workers=N_THREADS - 1) as pool:
            list(pool.map(read, range(N_THREADS - 1)))
    finally:
        stop.set()
        mutator.join()
    assert not failures, failures
    # A reader's put may land after the mutator's last invalidation —
    # that synopsis is drawn from the *current* table, so serving it is
    # correct.  The stale-ness invariant is: after one more explicit
    # mutation, nothing stored before it may be served.
    service.refresh_table("lineitem", db.table("lineitem"))
    result = db.sql(WORKLOAD[0], seed=99)
    assert result.reuse is None


def test_catalog_is_thread_safe_under_direct_hammering(monkeypatch):
    monkeypatch.setattr(catalog_module, "MAX_ENTRIES", 8)
    catalog = SynopsisCatalog()
    db = Database(seed=0, catalog=catalog)
    db.create_table(
        "t",
        {
            "k": np.arange(200, dtype=np.int64),
            "x": np.linspace(0.0, 1.0, 200),
        },
    )

    def worker(tid: int):
        for i in range(25):
            rate = 10 + 10 * ((tid + i) % 5)
            db.sql(
                f"SELECT SUM(x) AS s FROM t TABLESAMPLE ({rate} PERCENT) "
                f"REPEATABLE ({tid % 3})",
                seed=tid,
            )
            if i % 10 == 9 and tid == 0:
                catalog.invalidate("t")

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        list(pool.map(worker, range(N_THREADS)))

    stats = catalog.snapshot_stats()
    assert stats.lookups == stats.hits + stats.misses
    assert len(catalog) <= catalog_module.MAX_ENTRIES
    expected_bytes = sum(
        syn.nbytes for syn in catalog._entries.values()
    )
    assert catalog.resident_bytes == expected_bytes


STORED = (
    "SELECT SUM(l_extendedprice) AS v FROM lineitem "
    "TABLESAMPLE (40 PERCENT) REPEATABLE (1)"
)
THIN = "FROM lineitem TABLESAMPLE (10 PERCENT) REPEATABLE (2)"
#: Thin hits on STORED's synopsis, each over columns the miss never read.
UNREAD_COLUMN_HITS = [
    f"SELECT SUM(l_quantity) AS v {THIN}",
    f"SELECT SUM(l_discount) AS v {THIN}",
    f"SELECT SUM(l_tax) AS v, COUNT(*) AS n {THIN}",
    f"SELECT AVG(l_quantity) AS v {THIN} WHERE l_shipdate > 1000",
    f"SELECT SUM(l_quantity * l_discount) AS v {THIN}",
    f"SELECT l_returnflag, SUM(l_tax) AS v {THIN} GROUP BY l_returnflag",
]


def _answer_bytes(result) -> dict:
    out = {
        alias: (
            np.asarray(result.values[alias]).tobytes(),
            np.asarray(est.variance_raw).tobytes(),
        )
        for alias, est in result.estimates.items()
    }
    for name, col in getattr(result, "keys", {}).items():
        out[name] = col.tolist()
    return out


def test_concurrent_first_reads_of_a_stored_sample_agree():
    """A stored sample's columns are gathered on first read, unlocked.

    Threads that hit one freshly stored synopsis at the same moment —
    two on every statement, so both over the same and over different
    unread columns — must each get the single-threaded answer, and
    leave one array per column behind.
    """

    def freshly_stored() -> Database:
        db = tpch_database(scale=0.02, seed=3)
        db.attach_catalog()
        assert db.sql(STORED, seed=1).reuse is None
        return db

    single = freshly_stored()
    expected = {q: _answer_bytes(single.sql(q, seed=1)) for q in UNREAD_COLUMN_HITS}
    (read_alone,) = single.synopses._entries.values()
    n_hits = len(UNREAD_COLUMN_HITS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # The race is the first read, so every round stores afresh.
        for _ in range(6):
            db = freshly_stored()
            (syn,) = db.synopses._entries.values()
            barrier = threading.Barrier(N_THREADS)

            def hit(tid: int):
                barrier.wait(timeout=30)
                out = []
                for i in range(n_hits):
                    statement = UNREAD_COLUMN_HITS[(tid // 2 + i) % n_hits]
                    result = db.sql(statement, seed=1)
                    assert result.reuse is not None
                    assert result.reuse.entry_id == syn.entry_id
                    out.append((statement, _answer_bytes(result)))
                return out

            with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
                answers = list(pool.map(hit, range(N_THREADS), timeout=120))
            assert len(answers) == N_THREADS
            for thread_answers in answers:
                assert len(thread_answers) == n_hits
                for statement, got in thread_answers:
                    assert got == expected[statement], statement
            for name in ("l_quantity", "l_discount", "l_tax", "l_returnflag"):
                kept = syn.sample.columns[name]
                assert syn.sample.columns[name] is kept
                assert np.array_equal(kept, read_alone.sample.columns[name])
    finally:
        sys.setswitchinterval(interval)


def test_selftest_entrypoint_passes():
    messages: list[str] = []
    assert selftest(scale=0.01, out=messages.append)
    assert messages and "selftest ok" in messages[-1]

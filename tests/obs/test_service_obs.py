"""Service-level observability: consistent snapshots, \\stats, \\metrics."""

import threading

import pytest

from repro.obs.trace import Trace
from repro.service import QueryService, serve_statements

STMT = (
    "SELECT SUM(l_extendedprice) AS rev "
    "FROM lineitem TABLESAMPLE (20 PERCENT) REPEATABLE (11)"
)
GROUPED = (
    "SELECT l_returnflag, SUM(l_quantity) AS qty "
    "FROM lineitem TABLESAMPLE (20 PERCENT) REPEATABLE (11) "
    "GROUP BY l_returnflag"
)


@pytest.fixture
def service(tpch_db_catalog):
    return QueryService(tpch_db_catalog)


class TestSnapshotConsistency:
    def test_snapshot_invariants_under_hammering(self, service):
        """Snapshots taken mid-storm must satisfy the cross-counter
        invariants that only hold when both sides are read atomically:
        every store lookup belongs to an already-counted query, and the
        catalog's own tallies balance.
        """
        n_threads, per_thread = 6, 25
        stop = threading.Event()
        errors: list[BaseException] = []

        def client(tid: int) -> None:
            try:
                for i in range(per_thread):
                    # Distinct seeds force fresh executions (each with
                    # a store lookup); repeats exercise the result
                    # cache.
                    service.query(STMT, seed=(tid * per_thread + i) % 40)
            except BaseException as exc:  # noqa: BLE001 - recorded
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(t,))
            for t in range(n_threads)
        ]
        snapshots = []

        def snapshotter() -> None:
            while not stop.is_set():
                snapshots.append(service.snapshot_stats())

        watcher = threading.Thread(target=snapshotter)
        watcher.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        watcher.join()
        assert not errors
        snapshots.append(service.snapshot_stats())
        assert len(snapshots) > 1
        for stats, store in snapshots:
            assert store.lookups <= stats.queries, (stats, store)
            assert store.hits + store.misses == store.lookups, store
            assert (
                stats.result_cache_hits
                + stats.errors
                <= stats.queries
            ), stats
        final_stats, final_store = snapshots[-1]
        assert final_stats.queries == n_threads * per_thread
        assert final_stats.errors == 0
        assert final_store.hits > 0  # repeats were served from the store

    def test_snapshot_returns_copies(self, service):
        service.query(STMT)
        stats, store = service.snapshot_stats()
        stats.queries += 100
        store.lookups += 100
        fresh_stats, fresh_store = service.snapshot_stats()
        assert fresh_stats.queries == 1
        assert fresh_store.lookups <= 1


class TestLatencyMetrics:
    def test_latency_snapshot_counts_every_outcome(self, service):
        service.query(STMT, seed=1)  # fresh
        service.query(STMT, seed=1)  # result cache
        with pytest.raises(Exception):
            service.query("SELECT nope FROM nothing")
        snap = service.latency_snapshot()
        assert snap.count == 3
        assert snap.quantile(0.5) > 0.0

    def test_stats_line_includes_quantiles(self, service):
        line = service.stats_line()
        assert "p50" not in line  # nothing served yet
        service.query(STMT)
        line = service.stats_line()
        assert "p50" in line and "p99" in line
        assert line.startswith("served 1 ")

    def test_metrics_text_exposition(self, service):
        service.query(STMT, seed=1)
        service.query(STMT, seed=1)
        text = service.metrics_text()
        assert "repro_service_queries_total 2" in text
        assert "repro_service_result_cache_hits_total 1" in text
        assert "repro_catalog_lookups_total" in text
        assert 'repro_catalog_hits_total{mode="exact"}' in text
        assert "repro_catalog_entries" in text
        assert (
            'repro_service_latency_seconds{outcome="fresh",quantile="0.5"}'
            in text
        )
        assert 'outcome="result-cache"' in text
        # Engine-wide metrics ride along.
        assert "repro_store_lookups_total" in text


class TestServeCommands:
    def test_stats_and_metrics_commands_in_stream(self, service):
        lines: list[str] = []
        served = serve_statements(
            service,
            [STMT, GROUPED, "\\stats", "\\metrics", "\\bogus"],
            out=lines.append,
        )
        assert served == 2
        text = "\n".join(lines)
        assert "rev = " in text
        stats_lines = [ln for ln in lines if ln.startswith("-- served")]
        # One for the \stats command, one for the closing summary.
        assert len(stats_lines) == 2
        assert all("p50" in ln for ln in stats_lines)
        assert "repro_service_queries_total" in text
        assert any("unknown command" in ln and "bogus" in ln for ln in lines)

    def test_serve_isolates_bad_statement(self, service):
        lines: list[str] = []
        served = serve_statements(
            service,
            ["SELECT broken FROM nowhere", STMT],
            out=lines.append,
        )
        assert served == 1
        assert any(ln.startswith("-- [error]") for ln in lines)


class TestResponseTrace:
    def test_trace_attached_under_env_flag(self, service, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        plain = service.query(STMT, seed=3)
        assert plain.trace is None
        monkeypatch.setenv("REPRO_TRACE", "1")
        traced = service.query(STMT, seed=4)
        assert isinstance(traced.trace, Trace)
        assert traced.trace.find("estimate")
        assert plain.values.keys() == traced.values.keys()

"""Tracing never changes an answer, and trace skeletons are stable.

The two contracts asserted here:

* enabling tracing (explicitly or via ``REPRO_TRACE=1``) leaves every
  estimate and raw variance bit-for-bit identical, at every chunking;
* the structural part of a trace — span names, kinds, nesting, and
  value attributes (rows, chunk indices), with raw timings excluded —
  is identical run to run: the skeleton is a function of the plan and
  the chunking alone.
"""

import pytest

from repro.obs.trace import start_trace

JOIN_Q = (
    "SELECT SUM(l_extendedprice) AS rev, COUNT(*) AS n "
    "FROM lineitem TABLESAMPLE (20 PERCENT) REPEATABLE (11), orders "
    "WHERE l_orderkey = o_orderkey"
)
GROUPED_Q = (
    "SELECT l_returnflag, SUM(l_quantity) AS qty "
    "FROM lineitem TABLESAMPLE (25 PERCENT) REPEATABLE (3) "
    "GROUP BY l_returnflag"
)


def _traced(db, statement, seed=5, chunk_size=None):
    with start_trace("q") as tracer:
        result = db.sql(statement, seed=seed, chunk_size=chunk_size)
    return result, tracer.finish_trace()


def _values(result):
    if hasattr(result, "n_groups"):
        return (
            {k: v.tolist() for k, v in result.keys.items()},
            {a: v.tolist() for a, v in result.values.items()},
            {
                a: result.estimates[a].variance_raw.tolist()
                for a in result.values
            },
        )
    return (
        dict(result.values),
        {a: result.estimates[a].variance_raw for a in result.values},
    )


class TestSkeletonDeterminism:
    @pytest.mark.parametrize("chunk_size", [None, 7, 100])
    @pytest.mark.parametrize("statement", [JOIN_Q, GROUPED_Q])
    def test_repeat_runs_identical_skeleton(
        self, tpch_db, statement, chunk_size
    ):
        # Same chunks, same per-chunk rows, same order — only
        # wall-clock timings may differ, and those are not in the
        # skeleton.
        r1, t1 = _traced(tpch_db, statement, chunk_size=chunk_size)
        r2, t2 = _traced(tpch_db, statement, chunk_size=chunk_size)
        assert t1.skeleton() == t2.skeleton()
        assert _values(r1) == _values(r2)

    def test_default_is_the_one_chunk_skeleton(self, tpch_db):
        # The default chunking of a table under the bound is the
        # pipeline with one chunk, not another engine: node, kernel and
        # chunk spans included, nothing to drop.
        r0, t0 = _traced(tpch_db, JOIN_Q)
        r1, t1 = _traced(tpch_db, JOIN_Q, chunk_size=10**9)
        assert t0.skeleton() == t1.skeleton()
        assert {s.kind for s in t0.spans} >= {"node", "kernel", "chunk"}
        assert _values(r0) == _values(r1)

    def test_chunking_changes_only_the_chunk_level(self, tpch_db):
        _, t0 = _traced(tpch_db, JOIN_Q)
        _, t4 = _traced(tpch_db, JOIN_Q, chunk_size=100)
        kinds = frozenset({"node", "kernel", "chunk", "build"})
        assert t0.skeleton() != t4.skeleton()
        assert t0.skeleton(drop_kinds=kinds) == t4.skeleton(drop_kinds=kinds)

    @pytest.mark.parametrize("chunk_size", [None, 7, 100])
    def test_chunk_spans_carry_only_chunk_and_rows(self, tpch_db, chunk_size):
        # Every chunk runs on the calling thread: a chunk span names its
        # index and row count, and no worker.
        _, trace = _traced(tpch_db, JOIN_Q, chunk_size=chunk_size)
        chunks = [s for s in trace.spans if s.kind == "chunk"]
        assert chunks
        assert [s.attrs["chunk"] for s in chunks] == list(range(len(chunks)))
        assert all(set(s.attrs) == {"chunk", "rows"} for s in chunks)


class TestEnvTraceBitIdentity:
    def test_repro_trace_changes_no_answer(self, tpch_db, monkeypatch):
        for chunk_size in (None, 100):
            monkeypatch.delenv("REPRO_TRACE", raising=False)
            plain = tpch_db.sql(JOIN_Q, seed=5, chunk_size=chunk_size)
            assert plain.trace is None
            monkeypatch.setenv("REPRO_TRACE", "1")
            traced = tpch_db.sql(JOIN_Q, seed=5, chunk_size=chunk_size)
            assert traced.trace is not None
            assert _values(plain) == _values(traced)

    def test_repro_trace_grouped(self, tpch_db, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        plain = tpch_db.sql(GROUPED_Q, seed=2)
        monkeypatch.setenv("REPRO_TRACE", "1")
        traced = tpch_db.sql(GROUPED_Q, seed=2)
        assert traced.trace is not None
        assert _values(plain) == _values(traced)

    def test_explicit_tracer_wins_over_env(self, tpch_db, monkeypatch):
        # With a tracer already active, REPRO_TRACE must not start a
        # second trace; spans land in the caller's tracer.
        monkeypatch.setenv("REPRO_TRACE", "1")
        with start_trace("outer") as tracer:
            result = tpch_db.sql(JOIN_Q, seed=5)
        trace = tracer.finish_trace()
        assert result.trace is None
        assert trace.find("draw")
        assert trace.find("estimate")

"""Trace trees, pinned to their shape.

A traced statement's spans — name, kind, id, parent id and every
attribute that is not a wall-clock ``*_ns`` value — are a function of
the plan and the chunking alone.  The digests below were taken before
chunk operators opened their own spans (when each chunk task logged
its plan-node timings and the executor's task loop replayed the log
into the tracer); every statement shape, chunking and storage has to keep
reproducing them, and every span has to lie inside its parent's
interval.  The one attribute the digests leave out is a join span's
``probe`` — the path its build took for the chunk, which came later
than the digests — and it is pinned apart, per shape, below.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data.tpch import tpch_database
from repro.obs.trace import start_trace
from repro.relational import pipeline
from repro.relational.expressions import col
from repro.relational.pipeline import ChunkedExecutor
from repro.relational.plan import (
    Aggregate,
    AggSpec,
    Join,
    LineageSample,
    Scan,
    TableSample,
)
from repro.relational.table import Table
from repro.sampling import Bernoulli, BiDimensionalBernoulli


def _lineage_sample_plan() -> Aggregate:
    """A lineage sample over a join: fused into the probe when untraced,
    compiled apart (its own node and hash kernel span) when traced."""
    join = Join(
        TableSample(Scan("lineitem"), Bernoulli(0.5)),
        Scan("orders"),
        ["l_orderkey"],
        ["o_orderkey"],
    )
    sampler = BiDimensionalBernoulli({"lineitem": 0.4, "orders": 0.6}, seed=9)
    return Aggregate(
        LineageSample(join, sampler),
        [AggSpec("sum", col("l_extendedprice"), "v")],
    )


SQL_FK_JOIN = (
    "SELECT SUM(l_extendedprice) AS v, COUNT(*) AS n FROM lineitem "
    "TABLESAMPLE (20 PERCENT), orders WHERE l_orderkey = o_orderkey"
)

#: name → how to run it on ``(db, chunk_size)``.
SHAPES = {
    "fk_join": lambda db, c: db.sql(
        SQL_FK_JOIN,
        seed=5,
        chunk_size=c,
    ),
    "grouped": lambda db, c: db.sql(
        "SELECT l_returnflag, SUM(l_quantity) AS qty FROM lineitem "
        "TABLESAMPLE (25 PERCENT) GROUP BY l_returnflag",
        seed=6,
        chunk_size=c,
    ),
    "three_way": lambda db, c: db.sql(
        "SELECT SUM(l_extendedprice) AS v, COUNT(*) AS n FROM lineitem "
        "TABLESAMPLE (10 PERCENT), orders, customer WHERE "
        "l_orderkey = o_orderkey AND o_custkey = c_custkey "
        "AND c_acctbal > 0.0",
        seed=7,
        chunk_size=c,
    ),
    "string_key": lambda db, c: db.sql(
        "SELECT SUM(l_extendedprice * f_weight) AS v FROM lineitem "
        "TABLESAMPLE (20 PERCENT), flags WHERE l_returnflag = f_flag",
        seed=8,
        chunk_size=c,
    ),
    "scan_project": lambda db, c: db.execute(
        db.plan_sql(
            "SELECT l_orderkey, l_quantity FROM lineitem "
            "TABLESAMPLE (10 PERCENT) WHERE l_quantity > 10"
        ),
        seed=9,
        chunk_size=c,
    ),
    "lineage_sample": lambda db, c: db.estimate(
        _lineage_sample_plan(), seed=10, chunk_size=c
    ),
}

#: name → ``chunk_size``: one chunk named explicitly, the source's own
#: (one chunk below 2^20 rows), and 997-row chunks.
CHUNKINGS = {
    "one_chunk": 10**9,
    "default": None,
    "small": 997,
}

PINNED: dict[tuple[str, str, str], str] = {
    ('fk_join', 'default', 'ram'): 'f51f66a85c80514e',
    ('fk_join', 'default', 'mmap'): 'f51f66a85c80514e',
    ('fk_join', 'one_chunk', 'ram'): 'f51f66a85c80514e',
    ('fk_join', 'one_chunk', 'mmap'): 'f51f66a85c80514e',
    ('fk_join', 'small', 'ram'): 'c374b71a4b623b20',
    ('fk_join', 'small', 'mmap'): 'c374b71a4b623b20',
    ('grouped', 'default', 'ram'): 'febf9aa45cd7fe1f',
    ('grouped', 'default', 'mmap'): 'febf9aa45cd7fe1f',
    ('grouped', 'one_chunk', 'ram'): 'febf9aa45cd7fe1f',
    ('grouped', 'one_chunk', 'mmap'): 'febf9aa45cd7fe1f',
    ('grouped', 'small', 'ram'): '9e5f23cff8bdff1b',
    ('grouped', 'small', 'mmap'): '9e5f23cff8bdff1b',
    ('lineage_sample', 'default', 'ram'): 'b907edef4564c018',
    ('lineage_sample', 'default', 'mmap'): 'b907edef4564c018',
    ('lineage_sample', 'one_chunk', 'ram'): 'b907edef4564c018',
    ('lineage_sample', 'one_chunk', 'mmap'): 'b907edef4564c018',
    ('lineage_sample', 'small', 'ram'): '494fccec47f5967b',
    ('lineage_sample', 'small', 'mmap'): '494fccec47f5967b',
    ('scan_project', 'default', 'ram'): 'c220c71c9823add7',
    ('scan_project', 'default', 'mmap'): 'c220c71c9823add7',
    ('scan_project', 'one_chunk', 'ram'): 'c220c71c9823add7',
    ('scan_project', 'one_chunk', 'mmap'): 'c220c71c9823add7',
    ('scan_project', 'small', 'ram'): '0cc30a450c62f1bb',
    ('scan_project', 'small', 'mmap'): '0cc30a450c62f1bb',
    ('string_key', 'default', 'ram'): 'ffba0e58bb49a9e4',
    ('string_key', 'default', 'mmap'): 'ffba0e58bb49a9e4',
    ('string_key', 'one_chunk', 'ram'): 'ffba0e58bb49a9e4',
    ('string_key', 'one_chunk', 'mmap'): 'ffba0e58bb49a9e4',
    ('string_key', 'small', 'ram'): 'a3191cb49b63b8a1',
    ('string_key', 'small', 'mmap'): 'a3191cb49b63b8a1',
    ('three_way', 'default', 'ram'): '0771497d05b681a0',
    ('three_way', 'default', 'mmap'): '0771497d05b681a0',
    ('three_way', 'one_chunk', 'ram'): '0771497d05b681a0',
    ('three_way', 'one_chunk', 'mmap'): '0771497d05b681a0',
    ('three_way', 'small', 'ram'): '59ef0707ee2b0069',
    ('three_way', 'small', 'mmap'): '59ef0707ee2b0069',
}


def _database(root=None):
    db = tpch_database(0.25, seed=7)
    db.register(
        "flags",
        Table(
            "flags",
            {
                "f_flag": np.array(["A", "N", "R", "X"], dtype=object),
                "f_weight": np.array([1.0, 0.5, 2.0, 9.0]),
            },
        ),
    )
    if root is not None:
        for name in ("lineitem", "orders", "customer"):
            db.persist(name, str(root / name), block_rows=1024)
    return db


@pytest.fixture(scope="module")
def databases(tmp_path_factory):
    root = tmp_path_factory.mktemp("trace_pinned")
    return {"ram": _database(), "mmap": _database(root)}


def _plain(value):
    return value.item() if isinstance(value, np.generic) else value


def _shape(trace) -> list[tuple]:
    return [
        (
            s.name,
            s.kind,
            s.span_id,
            s.parent_id,
            tuple(
                sorted(
                    (k, _plain(v))
                    for k, v in s.attrs.items()
                    if not k.endswith("_ns") and k != "probe"
                )
            ),
        )
        for s in trace.spans
    ]


def _digest(trace) -> str:
    return hashlib.sha256(repr(_shape(trace)).encode()).hexdigest()[:16]


def _traced(db, shape: str, chunking: str):
    with start_trace("q") as tracer:
        SHAPES[shape](db, CHUNKINGS[chunking])
    return tracer.finish_trace()


@pytest.mark.parametrize("storage", ["ram", "mmap"])
@pytest.mark.parametrize("chunking", sorted(CHUNKINGS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_trace_shape_is_pinned(databases, shape, chunking, storage):
    trace = _traced(databases[storage], shape, chunking)
    assert not trace.dropped
    assert _digest(trace) == PINNED[shape, chunking, storage]


#: shape → the ``probe`` path every chunk of each of its joins takes.
#: ``lineitem ⋈ orders`` and ``⋈ customer`` probe a scanned primary key
#: (a filter on it keeps it ascending), so a silent fall back to the
#: count table fails here.
PROBE_PATHS = {
    "fk_join": {"Join(l_orderkey = o_orderkey)": "ascending"},
    "grouped": {},
    "lineage_sample": {"Join(l_orderkey = o_orderkey)": "ascending"},
    "scan_project": {},
    "string_key": {"Join(l_returnflag = f_flag)": "ascending"},
    "three_way": {
        "Join(l_orderkey = o_orderkey)": "ascending",
        "Join(o_custkey = c_custkey)": "ascending",
    },
}


@pytest.mark.parametrize("storage", ["ram", "mmap"])
@pytest.mark.parametrize("chunking", sorted(CHUNKINGS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_join_spans_name_their_probe_path(databases, shape, chunking, storage):
    trace = _traced(databases[storage], shape, chunking)
    joins = [s for s in trace.spans if s.name.startswith("Join(")]
    assert {s.name for s in joins} == set(PROBE_PATHS[shape])
    for span in joins:
        assert span.attrs["probe"] == PROBE_PATHS[shape][span.name]


@pytest.mark.parametrize("chunking", sorted(CHUNKINGS))
def test_a_sampled_primary_key_probe_stays_ascending(databases, chunking):
    """``orders TABLESAMPLE (50 PERCENT)``: kept keys still ascend, with
    gaps, so the lookup half of the ascending path runs."""
    with start_trace("q") as tracer:
        databases["ram"].sql(
            "SELECT SUM(l_extendedprice) AS v FROM lineitem TABLESAMPLE "
            "(10 PERCENT), orders TABLESAMPLE (50 PERCENT) "
            "WHERE l_orderkey = o_orderkey",
            seed=11,
            chunk_size=CHUNKINGS[chunking],
        )
    joins = [s for s in tracer.finish_trace().spans if "probe" in s.attrs]
    assert joins and {s.attrs["probe"] for s in joins} == {"ascending"}


@pytest.mark.parametrize("chunking", sorted(CHUNKINGS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_span_lies_inside_its_parent(databases, shape, chunking):
    trace = _traced(databases["mmap"], shape, chunking)
    by_id = {s.span_id: s for s in trace.spans}
    for span in trace.spans:
        assert span.start_ns <= span.end_ns, span.name
        if span.parent_id is None:
            continue
        parent = by_id[span.parent_id]
        assert parent.start_ns <= span.start_ns, span.name
        assert span.end_ns <= parent.end_ns, span.name


#: A join whose ``orders`` side is probed chunk by chunk.
_PROBED_JOIN = Join(
    TableSample(Scan("lineitem"), Bernoulli(0.2)),
    Scan("orders"),
    ["l_orderkey"],
    ["o_orderkey"],
)


def test_no_span_stays_open_while_the_consumer_holds_a_chunk(databases):
    executor = ChunkedExecutor(
        databases["ram"].tables, np.random.default_rng(3), chunk_size=997
    )
    with start_trace("q") as tracer:
        root = tracer.current_id()
        chunks = 0
        for _ in executor.iter_chunks(_PROBED_JOIN):
            assert tracer.current_id() == root
            chunks += 1
    assert chunks > 1


class _Boom(RuntimeError):
    pass


def _fail_every_second_probe(monkeypatch) -> _Boom:
    """Make every second join-probe chunk raise; returns the error."""
    error = _Boom("a probe chunk failed")
    real = pipeline.combine_rows
    calls = []

    def flaky(*args):
        calls.append(None)
        if len(calls) % 2 == 0:
            raise error
        return real(*args)

    monkeypatch.setattr(pipeline, "combine_rows", flaky)
    return error


def test_an_error_inside_a_traced_chunk_leaves_no_span_open(
    databases, monkeypatch
):
    db = databases["ram"]
    error = _fail_every_second_probe(monkeypatch)
    with start_trace("q") as tracer:
        with tracer.span("outer") as outer:
            executor = ChunkedExecutor(
                db.tables, np.random.default_rng(3), chunk_size=997
            )
            with pytest.raises(_Boom) as raised:
                for _ in executor.iter_chunks(_PROBED_JOIN):
                    pass
            assert raised.value is error
            assert tracer.current_id() == outer.span_id
            with tracer.span("next") as after:
                pass
        assert after.parent_id == outer.span_id
        with pytest.raises(_Boom):
            db.sql(SQL_FK_JOIN, seed=5, chunk_size=997)
        assert tracer.current_id() == tracer.spans[0].span_id
    trace = tracer.finish_trace()
    assert all(s.start_ns <= s.end_ns for s in trace.spans)

"""Every ad hoc statement shape answers the same at any chunking.

A source of up to :data:`~repro.relational.partition.CHUNK_ROWS` rows
folds as one chunk, so the benchmark's tables (all smaller) never fold
as many by default.  This is the many-chunk run of each shape the ad
hoc streams send (``benchmarks/e2e`` → ``streams``): at the default
chunking and at chunks of a third of ``lineitem`` — with ``orders`` and
``customer`` cut as well, and block pruning cutting the range-pruned
scan further — in RAM and on persisted tables, the answer is the same
down to the raw variances' bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.tpch import tpch_database
from repro.fuzz.checker import fingerprint
from repro.obs.trace import start_trace

_Q1 = (
    "l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
    "SUM(l_extendedprice) AS sum_price, AVG(l_discount) AS avg_disc, "
    "COUNT(*) AS n"
)

#: One statement per shape; ``{cut}`` is an ``l_orderkey`` bound that
#: keeps about a third of ``lineitem``.
SHAPES = {
    "scalar": (
        "SELECT SUM(l_extendedprice) AS v FROM lineitem "
        "TABLESAMPLE (10 PERCENT)"
    ),
    "filtered_scalar": (
        "SELECT AVG(l_quantity) AS v FROM lineitem "
        "TABLESAMPLE (12.5 PERCENT) WHERE l_quantity > 25"
    ),
    "range_pruned_scalar": (
        "SELECT COUNT(*) AS v FROM lineitem TABLESAMPLE (15 PERCENT) "
        "WHERE l_orderkey < {cut}"
    ),
    "fk_join": (
        "SELECT SUM(l_extendedprice) AS v FROM lineitem "
        "TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (50 PERCENT) "
        "WHERE l_orderkey = o_orderkey"
    ),
    "three_way_join": (
        "SELECT SUM(l_extendedprice) AS v, COUNT(*) AS n FROM lineitem "
        "TABLESAMPLE (10 PERCENT), orders, customer WHERE l_orderkey = "
        "o_orderkey AND o_custkey = c_custkey AND c_acctbal > 0.0"
    ),
    "q1_group_by": (
        f"SELECT {_Q1} FROM lineitem TABLESAMPLE (9 PERCENT) "
        "WHERE l_shipdate <= 2400 GROUP BY l_returnflag, l_linestatus"
    ),
    "minus_at_version": (
        "SELECT SUM(l_extendedprice) AS v FROM lineitem MINUS AT VERSION 1 "
        "TABLESAMPLE (7.5 PERCENT) REPEATABLE (41)"
    ),
    "within": (
        "SELECT SUM(l_extendedprice) AS v FROM lineitem "
        "TABLESAMPLE (5 PERCENT) WITHIN 2 % CONFIDENCE 0.95"
    ),
}


def _perturbed(table, rng: np.random.Generator):
    """``table`` with 1 % of its prices changed, row positions kept."""
    price = table.column("l_extendedprice").copy()
    rows = rng.choice(table.n_rows, table.n_rows // 100, replace=False)
    price[rows] = np.round(price[rows] * rng.uniform(0.8, 1.2, rows.size), 2)
    return table.with_columns({"l_extendedprice": price})


@pytest.fixture(scope="module")
def databases(tmp_path_factory):
    root = tmp_path_factory.mktemp("tpch")
    out = {}
    for storage in ("ram", "mmap"):
        db = tpch_database(0.2, seed=11)
        # Version 1 exists so MINUS AT VERSION 1 has something to net.
        db.update_table(
            "lineitem",
            _perturbed(db.table("lineitem"), np.random.default_rng(3)),
        )
        if storage == "mmap":  # the live tables, block stats and all
            for name in ("lineitem", "orders", "customer"):
                db.persist(name, str(root / name), block_rows=1024)
        out[storage] = db
    return out


def _bits(result):
    """Values (per group) and every raw variance, bit for bit."""
    inner = getattr(result, "result", result)  # a WITHIN answer
    variances = {
        alias: np.asarray(est.variance_raw).tobytes()
        for alias, est in inner.estimates.items()
    }
    return fingerprint(result), variances


def _spans(db, statement: str, **kwargs) -> list:
    with start_trace("q") as tracer:
        db.sql(statement, seed=5, **kwargs)
    return tracer.finish_trace().spans


def _chunks(db, statement: str, **kwargs) -> int:
    """Chunks the statement folds or builds a join side from."""
    spans = _spans(db, statement, **kwargs)
    return sum(span.kind in ("chunk", "build") for span in spans)


def _scanned(db, statement: str, **kwargs) -> int:
    """Base rows the statement's scans slice."""
    spans = _spans(db, statement, **kwargs)
    return sum(
        span.attrs["rows_out"] for span in spans if span.name.startswith("Scan(")
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_shape_answers_the_same_at_any_chunking(databases, shape):
    ram = databases["ram"]
    lineitem = ram.table("lineitem")
    third = -(-lineitem.n_rows // 3)
    cut = int(lineitem.column("l_orderkey")[third])
    statement = SHAPES[shape].format(cut=cut)
    want = _bits(ram.sql(statement, seed=5))
    for storage, db in databases.items():
        for chunk_size in (None, third):
            got = _bits(db.sql(statement, seed=5, chunk_size=chunk_size))
            assert got == want, (storage, chunk_size)
    if shape in ("scalar", "q1_group_by"):
        # The cut really is a many-chunk run, and the default one chunk.
        assert _chunks(ram, statement) == 1
        assert _chunks(ram, statement, chunk_size=third) == 3
    if shape == "fk_join":  # the lineitem build side, then the orders probe
        assert _chunks(ram, statement) == 2
        assert _chunks(ram, statement, chunk_size=third) == 4
    if shape == "range_pruned_scalar":
        # Block stats cut the scan to the blocks below the cut, as one
        # chunk or as many.
        mapped = databases["mmap"]
        assert _scanned(ram, statement) == lineitem.n_rows
        for chunk_size in (None, third):
            scanned = _scanned(mapped, statement, chunk_size=chunk_size)
            assert third <= scanned < third + 1024

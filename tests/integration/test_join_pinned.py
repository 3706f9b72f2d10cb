"""Join, budget and version-diff answers, pinned to their bits.

The statements below are the shapes the lineage hash and the join
build/probe carry: the ad hoc streams' two join shapes
(``benchmarks/e2e`` → ``streams.join_requests``) at three rates, a
string-key and a two-column-key join (jointly factorized codes), a
lineage sample fused into a join probe, a ``WITHIN … CONFIDENCE``
ladder over a join and over one table, and a ``MINUS AT VERSION``
difference.  The digests were taken at the commit *before* the hash
ran block-wise on an integer threshold and integer-key joins addressed
instead of searching; every route from statement to estimate — one
chunk, small chunks, memory-mapped tables — has to keep reproducing
them: values, raw variances, sample counts and interval bounds.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data.tpch import tpch_database
from repro.optimizer import ErrorBudget
from repro.relational.plan import (
    Aggregate,
    AggSpec,
    Join,
    LineageSample,
    Scan,
    TableSample,
)
from repro.relational.expressions import col
from repro.relational.table import Table
from repro.sampling import Bernoulli, BiDimensionalBernoulli

_JOIN2 = (
    "SELECT SUM(l_extendedprice) AS v FROM lineitem TABLESAMPLE "
    "({rate:g} PERCENT), orders TABLESAMPLE (50 PERCENT) "
    "WHERE l_orderkey = o_orderkey"
)
_JOIN3 = (
    "SELECT SUM(l_extendedprice) AS v, COUNT(*) AS n FROM lineitem "
    "TABLESAMPLE ({rate:g} PERCENT), orders, customer WHERE "
    "l_orderkey = o_orderkey AND o_custkey = c_custkey AND c_acctbal > 0.0"
)

#: name → SQL text; each runs at ``seed = 200 + position``.
STATEMENTS = {
    **{f"join2@{r:g}": _JOIN2.format(rate=r) for r in (5.0, 10.0, 20.0)},
    **{f"join3@{r:g}": _JOIN3.format(rate=r) for r in (5.0, 10.0, 20.0)},
    "string_key": (
        "SELECT SUM(l_extendedprice * f_weight) AS v FROM lineitem "
        "TABLESAMPLE (20 PERCENT), flags WHERE l_returnflag = f_flag"
    ),
    "two_column_key": (
        "SELECT SUM(l_quantity * g_weight) AS v, COUNT(*) AS n FROM "
        "lineitem TABLESAMPLE (20 PERCENT), flagstatus WHERE "
        "l_returnflag = g_flag AND l_linenumber = g_line"
    ),
}

_VERSIONDIFF = (
    "SELECT SUM(l_extendedprice) AS v FROM lineitem MINUS AT VERSION 1 "
    "TABLESAMPLE (10 PERCENT) REPEATABLE (211)"
)

#: name → (SQL text, budget percent): run through the optimizer at seed
#: 241, where the first rung misses and the ladder escalates once.
BUDGETS = {
    "budget": (
        "SELECT SUM(l_extendedprice) AS v FROM lineitem "
        "TABLESAMPLE (5 PERCENT)",
        1.5,
    ),
    "budget_join": (
        "SELECT SUM(l_extendedprice) AS v FROM lineitem TABLESAMPLE "
        "(5 PERCENT), orders WHERE l_orderkey = o_orderkey "
        "AND o_orderdate < 1200",
        3.0,
    ),
}

PINNED = {
    "versiondiff": "a9f5b3756d239abb",
    "join2@5": "6f521c932ad67f08",
    "join2@10": "4602db7ecffb6588",
    "join2@20": "0db21a84653d3f9c",
    "join3@5": "baa5552f3227e88f",
    "join3@10": "3188cc4da9266ed7",
    "join3@20": "4a4f97360048d4a9",
    "string_key": "8ecaea931237c7d3",
    "two_column_key": "ae53961416a00125",
    "fused_lineage_filter": "4d9621db3a9808ed",
    "budget": (
        "eda73bae8a01ce97:lineitem=WOR(5985):5985;lineitem=WOR(11970):11970"
    ),
    "budget_join": "c24fe35f3e5b5b19:lineitem=WOR(11970):5990",
}


def _fused_plan() -> Aggregate:
    """A lineage sample directly over a join: filtered inside the probe."""
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


def _digest(result) -> str:
    h = hashlib.sha256()
    for alias, est in result.estimates.items():
        ci = est.ci(0.95)
        h.update(alias.encode())
        h.update(
            np.array(
                [result.values[alias], est.value, est.variance_raw, ci.lo, ci.hi]
            ).tobytes()
        )
        h.update(str(est.n_sample).encode())
    return h.hexdigest()[:16]


def _database(root=None):
    db = tpch_database(2.0, seed=42)
    flags = np.array(["A", "N", "R", "X"], dtype=object)
    db.register(
        "flags",
        Table("flags", {"f_flag": flags, "f_weight": np.array([1.0, 0.5, 2.0, 9.0])}),
    )
    db.register(
        "flagstatus",
        Table(
            "flagstatus",
            {
                "g_flag": np.repeat(flags, 3),
                "g_line": np.tile(np.array([1, 2, 9], dtype=np.int64), 4),
                "g_weight": np.linspace(0.5, 3.25, 12),
            },
        ),
    )
    if root is not None:
        for name in ("lineitem", "orders", "customer"):
            db.persist(name, str(root / name), block_rows=4096)
    return db


def _versioned(root=None):
    """A database whose ``lineitem`` has a version 1 to net against."""
    db = tpch_database(2.0, seed=42)
    lineitem = db.table("lineitem")
    price = lineitem.column("l_extendedprice").copy()
    price[::7] = np.round(price[::7] * 1.1, 2)
    db.update_table("lineitem", lineitem.with_columns({"l_extendedprice": price}))
    if root is not None:
        db.persist("lineitem", str(root / "lineitem_v2"), block_rows=4096)
    return db


@pytest.fixture(scope="module")
def databases(tmp_path_factory):
    root = tmp_path_factory.mktemp("join_pinned")
    return {
        "ram": (_database(), _versioned()),
        "mmap": (_database(root), _versioned(root)),
    }


def _answers(db, versioned, chunk_size) -> dict[str, str]:
    got = {
        "versiondiff": _digest(
            versioned.sql(_VERSIONDIFF, seed=211, chunk_size=chunk_size)
        )
    }
    for position, (name, text) in enumerate(STATEMENTS.items()):
        result = db.sql(text, seed=200 + position, chunk_size=chunk_size)
        got[name] = _digest(result)
    got["fused_lineage_filter"] = _digest(
        db.estimate(_fused_plan(), seed=231, chunk_size=chunk_size)
    )
    optimizer = db.optimizer()
    for name, (text, percent) in BUDGETS.items():
        optimized = optimizer.optimize(
            db.plan_sql(text), ErrorBudget.from_percent(percent, 0.95), seed=241
        )
        ladder = ";".join(
            f"{a.methods_label}:{a.n_sample}" for a in optimized.attempts
        )
        got[name] = _digest(optimized.result) + ":" + ladder
    return got


@pytest.mark.parametrize("storage", ["ram", "mmap"])
@pytest.mark.parametrize("chunk_size", [None, 64, 997, 4096])
def test_every_route_reproduces_the_pinned_join_answers(
    databases, storage, chunk_size
) -> None:
    assert _answers(*databases[storage], chunk_size) == PINNED

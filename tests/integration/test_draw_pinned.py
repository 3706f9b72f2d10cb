"""Sampling families no other digest covers, pinned to their bits.

``n ROWS`` (without replacement, also with ``n`` above the table size),
``SYSTEM (p PERCENT, b)``, ``SYSTEM (k BLOCKS, b)``, a per-table
``REPEATABLE`` draw (the lineage hash), a join of two sampled relations
(the generator stream has to continue from one draw into the next) and
the exact, lineage-only run of the SOA oracle.  The digests were taken
while a draw was still a whole-table keep-mask; a draw made of its kept
positions, block by block, has to reproduce them on every route — in
RAM and memory-mapped, as one chunk and as chunks of 997 rows: values,
raw variances, sample counts and interval bounds.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.soa import lineage_preserving_exact
from repro.data.tpch import tpch_database
from repro.relational.executor import Executor

#: name → SQL text; each runs at ``seed = 300 + position``.
STATEMENTS = {
    "rows": (
        "SELECT SUM(l_extendedprice) AS v, COUNT(*) AS n FROM lineitem "
        "TABLESAMPLE (3000 ROWS)"
    ),
    "rows_whole_table": (
        "SELECT SUM(o_totalprice) AS v FROM orders TABLESAMPLE (20000 ROWS)"
    ),
    "system_percent": (
        "SELECT SUM(l_extendedprice) AS v FROM lineitem "
        "TABLESAMPLE (SYSTEM (10 PERCENT, 100))"
    ),
    "system_blocks": (
        "SELECT SUM(l_quantity) AS v, COUNT(*) AS n FROM lineitem "
        "TABLESAMPLE (SYSTEM (40 BLOCKS, 64))"
    ),
    "repeatable": (
        "SELECT SUM(l_extendedprice) AS v FROM lineitem "
        "TABLESAMPLE (10 PERCENT) REPEATABLE (7)"
    ),
    "two_sampled_join": (
        "SELECT SUM(l_extendedprice) AS v, COUNT(*) AS n FROM lineitem "
        "TABLESAMPLE (SYSTEM (20 PERCENT, 50)), orders TABLESAMPLE "
        "(4000 ROWS) WHERE l_orderkey = o_orderkey"
    ),
}

#: Statements whose exact, lineage-only run is pinned too.
EXACT = ("system_percent", "system_blocks", "two_sampled_join")

#: Digests of one chunk (``chunk_size=None``).
PINNED = {
    "rows": "1b35b785d33a092e",
    "rows_whole_table": "ad7d222084ce0835",
    "system_percent": "56103c997228fcd3",
    "system_blocks": "c006f909358cc89a",
    "repeatable": "5b93cffd39c3c04f",
    "two_sampled_join": "2602d7449afb8f54",
    "exact:system_percent": "bdebc8909cf1b5a5",
    "exact:system_blocks": "8ede1c026e931caf",
    "exact:two_sampled_join": "c7da6edc7e5a591d",
}

#: Chunks of 997 rows: a sample of the whole ``orders`` table merges
#: its chunks' partial sums, not one chunk's rows, so the last bits of
#: that one answer follow the chunking (every other answer does not).
PINNED_CHUNKED = {**PINNED, "rows_whole_table": "61481ac874f45c4b"}


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


def _exact_digest(db, text: str) -> str:
    """Every row kept, lineage ids in the sampling unit (block ids)."""
    plan = lineage_preserving_exact(db.plan_sql(text).child)
    full = Executor(db.tables, np.random.default_rng(0)).execute(plan)
    h = hashlib.sha256(str(full.n_rows).encode())
    for rel in sorted(full.lineage):
        h.update(rel.encode())
        h.update(np.ascontiguousarray(full.lineage[rel]).tobytes())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def databases(tmp_path_factory):
    root = tmp_path_factory.mktemp("draw_pinned")
    mmap = tpch_database(1.0, seed=42)
    for name in ("lineitem", "orders"):
        mmap.persist(name, str(root / name), block_rows=4096)
    return {"ram": tpch_database(1.0, seed=42), "mmap": mmap}


def _answers(db, chunk_size) -> dict[str, str]:
    got = {}
    for position, (name, text) in enumerate(STATEMENTS.items()):
        result = db.sql(text, seed=300 + position, chunk_size=chunk_size)
        got[name] = _digest(result)
    for name in EXACT:
        got[f"exact:{name}"] = _exact_digest(db, STATEMENTS[name])
    return got


@pytest.mark.parametrize("storage", ["ram", "mmap"])
@pytest.mark.parametrize("chunk_size", [None, 997])
def test_every_route_reproduces_the_pinned_draws(
    databases, storage, chunk_size
) -> None:
    expected = PINNED if chunk_size is None else PINNED_CHUNKED
    assert _answers(databases[storage], chunk_size) == expected

"""Grouped answers of the ad hoc streams' shape, pinned to their bits.

The benchmark's grouped class is TPC-H Q1 over a sampled ``lineitem``
at nine rates (``benchmarks/e2e`` → ``streams.grouped_requests``).  The
digests below were taken at the commit *before* string keys travelled
as dictionary codes and the key-ordered fold stopped sorting; every
route from statement to estimate — inline, chunked on threads, small
chunks, memory-mapped tables — has to keep reproducing them: keys,
values, raw variances, sample counts and interval bounds.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data.tpch import tpch_database

_Q1 = (
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
    "SUM(l_extendedprice) AS sum_price, AVG(l_discount) AS avg_disc, "
    "COUNT(*) AS n FROM lineitem TABLESAMPLE ({rate:g} PERCENT) "
    "WHERE l_shipdate <= 2400 GROUP BY l_returnflag, l_linestatus"
)

#: rate → digest of the answer at ``seed = 100 + position``.
PINNED = {
    5.0: "ec450f05efdf63f2",
    6.0: "40f1bf6664a9f734",
    7.5: "7e8824303770278d",
    9.0: "e8ecc5c866f8f4df",
    10.0: "f238dbb2fa6bf97d",
    12.5: "db99676a09a7b40c",
    15.0: "06846e4d5bef76e6",
    17.5: "33b545ad1a0b8c76",
    20.0: "31087bc9700f7bb3",
}


def _digest(result) -> str:
    h = hashlib.sha256()
    for name, col in result.keys.items():
        h.update(name.encode())
        h.update(repr(col.tolist()).encode())
    for alias, est in result.estimates.items():
        h.update(alias.encode())
        h.update(np.asarray(result.values[alias]).tobytes())
        h.update(est.values.tobytes())
        h.update(est.variance_raw.tobytes())
        h.update(est.n_samples.tobytes())
        for bound in est.ci_bounds(0.95):
            h.update(bound.tobytes())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def databases(tmp_path_factory):
    ram = tpch_database(0.1, seed=42)
    mapped = tpch_database(0.1, seed=42)
    root = tmp_path_factory.mktemp("pinned")
    mapped.persist("lineitem", str(root / "lineitem"), block_rows=1024)
    return {"ram": ram, "mmap": mapped}


@pytest.mark.parametrize("storage", ["ram", "mmap"])
@pytest.mark.parametrize("chunk_size", [None, 997])
@pytest.mark.parametrize("workers", [None, 1, 2, 4])
def test_every_route_reproduces_the_pinned_grouped_answers(
    databases, storage, workers, chunk_size
) -> None:
    db = databases[storage]
    got = {
        rate: _digest(
            db.sql(
                _Q1.format(rate=rate),
                seed=100 + position,
                workers=workers,
                chunk_size=chunk_size,
            )
        )
        for position, rate in enumerate(PINNED)
    }
    assert got == PINNED

"""A deterministic, scaled-down TPC-H-style generator.

The paper runs its examples on the TPC-H schema (lineitem, orders,
customer, part).  This generator reproduces the schema shape and the
foreign-key structure with realistic value distributions — skewed order
sizes, part popularity, correlated prices — at laptop scale.

Cardinalities at ``scale = 1.0`` follow TPC-H divided by 100 (so
``scale = 1.0`` ≈ 60 k lineitem rows); all draws are functions of the
seed, so any scale/seed pair regenerates identical data.

Every column is drawn with whole-array numpy calls, in one fixed order
of generator calls (``tests/data/test_tpch_pinned.py`` pins the bits).
A string column is drawn as integer codes into its small value tuple
and handed to :class:`~repro.relational.table.Encoded` in both forms —
the object array and the ``(codes, values)`` pair that
:func:`repro.core.kernels.factorize` would return — so neither a GROUP
BY nor :meth:`Table.persist` ever hashes the generated strings.
"""

from __future__ import annotations

import numpy as np

from repro.data.distributions import skewed_ints
from repro.errors import ReproError
from repro.relational.table import Encoded, Table

#: Base cardinalities at scale 1.0 (TPC-H SF1 ÷ 100).
TPCH_TABLES: dict[str, int] = {
    "customer": 1_500,
    "orders": 15_000,
    "part": 2_000,
    "supplier": 100,
    "nation": 25,
    "region": 5,
}

_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
_BRANDS = tuple(f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6))
_STATUS = ("F", "O", "P")
_RETURNFLAGS = ("A", "N", "R")
_LINESTATUS = ("F", "O")


def generate_tpch(
    scale: float = 0.1, seed: int = 0
) -> dict[str, Table]:
    """Generate the full table set at the given scale factor."""
    if scale <= 0:
        raise ReproError(f"scale {scale} must be positive")
    rng = np.random.default_rng(seed)
    counts = {
        name: max(int(round(base * scale)), 5)
        for name, base in TPCH_TABLES.items()
    }
    counts["nation"] = TPCH_TABLES["nation"]
    counts["region"] = TPCH_TABLES["region"]

    tables: dict[str, Table] = {}
    tables["region"] = _region()
    tables["nation"] = _nation(rng)
    tables["supplier"] = _supplier(counts["supplier"], rng)
    tables["customer"] = _customer(counts["customer"], rng)
    tables["part"] = _part(counts["part"], rng)
    tables["orders"] = _orders(counts["orders"], counts["customer"], rng)
    tables["lineitem"] = _lineitem(
        counts["orders"], counts["part"], counts["supplier"], rng
    )
    return tables


def tpch_database(scale: float = 0.1, seed: int = 0):
    """Convenience: a :class:`~repro.relational.database.Database`
    pre-loaded with the generated tables."""
    from repro.relational.database import Database

    return Database.from_tables(generate_tpch(scale, seed), seed=seed)


def _strings(values: tuple[str, ...], raw: np.ndarray) -> Encoded:
    """The string column ``values[raw]``, with its dictionary pair.

    The pair is what :func:`repro.core.kernels.factorize` returns for
    the column: the values that occur, sorted, and each row's int32
    rank among them.
    """
    pool = np.empty(len(values), dtype=object)
    pool[:] = values
    present = np.bincount(raw, minlength=len(values)) > 0
    order = sorted(range(len(values)), key=values.__getitem__)
    kept = np.array([i for i in order if present[i]], dtype=np.int64)
    rank = np.zeros(len(values), dtype=np.int32)
    rank[kept] = np.arange(kept.size, dtype=np.int32)
    return Encoded(pool[raw], (rank[raw], pool[kept]))


def _region() -> Table:
    return Table(
        "region",
        {"r_regionkey": np.arange(5, dtype=np.int64)},
    )


def _nation(rng: np.random.Generator) -> Table:
    n = TPCH_TABLES["nation"]
    return Table(
        "nation",
        {
            "n_nationkey": np.arange(n, dtype=np.int64),
            "n_regionkey": rng.integers(0, 5, n).astype(np.int64),
        },
    )


def _supplier(n: int, rng: np.random.Generator) -> Table:
    return Table(
        "supplier",
        {
            "s_suppkey": np.arange(n, dtype=np.int64),
            "s_nationkey": rng.integers(0, 25, n).astype(np.int64),
            "s_acctbal": np.round(rng.uniform(-999.99, 9999.99, n), 2),
        },
    )


def _customer(n: int, rng: np.random.Generator) -> Table:
    return Table(
        "customer",
        {
            "c_custkey": np.arange(n, dtype=np.int64),
            "c_nationkey": rng.integers(0, 25, n).astype(np.int64),
            "c_acctbal": np.round(rng.uniform(-999.99, 9999.99, n), 2),
            "c_mktsegment": _strings(
                _SEGMENTS, rng.integers(0, len(_SEGMENTS), n)
            ),
        },
    )


def _part(n: int, rng: np.random.Generator) -> Table:
    return Table(
        "part",
        {
            "p_partkey": np.arange(n, dtype=np.int64),
            "p_retailprice": np.round(
                900.0 + np.arange(n) % 1000 + rng.uniform(0, 100, n), 2
            ),
            "p_size": rng.integers(1, 51, n).astype(np.int64),
            "p_brand": _strings(_BRANDS, rng.integers(0, len(_BRANDS), n)),
        },
    )


def _orders(n: int, n_customers: int, rng: np.random.Generator) -> Table:
    # Heavy customers: order ownership is Zipf-skewed.
    custkey = skewed_ints(n, n_customers, rng, alpha=0.6)
    return Table(
        "orders",
        {
            "o_orderkey": np.arange(n, dtype=np.int64),
            "o_custkey": custkey,
            "o_totalprice": np.round(rng.lognormal(9.0, 0.6, n), 2),
            "o_orderdate": rng.integers(0, 2_400, n).astype(np.int64),
            "o_orderstatus": _strings(
                _STATUS, rng.integers(0, len(_STATUS), n)
            ),
        },
    )


def _lineitem(
    n_orders: int, n_parts: int, n_suppliers: int, rng: np.random.Generator
) -> Table:
    # TPC-H gives each order 1–7 lineitems (mean 4).
    per_order = rng.integers(1, 8, n_orders)
    orderkey = np.repeat(np.arange(n_orders, dtype=np.int64), per_order)
    n = orderkey.shape[0]
    # Each order's lines count 1, 2, …: the row number minus the
    # number of rows before the order's first line.
    starts = np.cumsum(per_order) - per_order
    linenumber = np.arange(1, n + 1, dtype=np.int64) - np.repeat(
        starts, per_order
    )
    partkey = skewed_ints(n, n_parts, rng, alpha=0.8)
    quantity = rng.integers(1, 51, n).astype(np.int64)
    # Price correlates with quantity, with part-level noise.
    unit_price = rng.uniform(900.0, 2000.0, n)
    extendedprice = np.round(quantity * unit_price / 10.0, 2)
    # Keep the original draw sequence (suppkey, discount, tax,
    # shipdate) so seed-pinned datasets regenerate the same values
    # they always did; the Q1 flag columns draw after them.
    suppkey = rng.integers(0, n_suppliers, n).astype(np.int64)
    discount = np.round(rng.uniform(0.0, 0.10, n), 2)
    tax = np.round(rng.uniform(0.0, 0.08, n), 2)
    shipdate = rng.integers(0, 2_500, n).astype(np.int64)
    # Q1's grouping columns: returned/accepted flag correlates with ship
    # date (old lines are mostly resolved), line status follows it.
    # Codes index _RETURNFLAGS ("A", "N", "R") and _LINESTATUS ("F", "O").
    old = shipdate < 1_700
    flags = rng.integers(0, 2, n)
    flags *= 2
    flags[~old] = 1
    returnflag = _strings(_RETURNFLAGS, flags)
    linestatus = _strings(_LINESTATUS, (~old).astype(np.int8))
    return Table(
        "lineitem",
        {
            "l_orderkey": orderkey,
            "l_linenumber": linenumber,
            "l_partkey": partkey,
            "l_suppkey": suppkey,
            "l_quantity": quantity,
            "l_extendedprice": extendedprice,
            "l_discount": discount,
            "l_tax": tax,
            "l_returnflag": returnflag,
            "l_linestatus": linestatus,
            "l_shipdate": shipdate,
        },
    )

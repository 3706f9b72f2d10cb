"""Every generated TPC-H column, pinned to its bits.

The digests were taken from the row-by-row generator (one
``np.arange`` per order, ``np.searchsorted`` for every Zipf draw,
string columns hashed into codes on first use).  Any rewrite of the
generator has to reproduce them: the same values in the same dtype, and
for a string column the same strings *and* the same dictionary pair
(``columns.encoded``, which must equal what ``kernels.factorize``
returns for the strings).  A digest is the first 16 hex digits of the
column's SHA-256.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data.tpch import generate_tpch

#: ``(scale, seed)`` → ``"table.column"`` → digest.
PINNED = {
    (0.01, 5): {
        "region.r_regionkey": "2b3a9c8d215b0d62",
        "nation.n_nationkey": "0664d214c8a54283",
        "nation.n_regionkey": "ac3d8519a0408054",
        "supplier.s_suppkey": "2b3a9c8d215b0d62",
        "supplier.s_nationkey": "ecd2a31dd2f46e8b",
        "supplier.s_acctbal": "1f0aa05b94568e1f",
        "customer.c_custkey": "81ce46a010b0c56b",
        "customer.c_nationkey": "9e6e576a27173a17",
        "customer.c_acctbal": "7b9962f281f94521",
        "customer.c_mktsegment": "51422b59c9b4d2e6",
        "part.p_partkey": "9ebae6be5fc9bad4",
        "part.p_retailprice": "67e3d2ca190c250f",
        "part.p_size": "616eebd98fac263f",
        "part.p_brand": "3b406d863c780862",
        "orders.o_orderkey": "407cae0c2dc462a6",
        "orders.o_custkey": "62ee769d3a9c0fb6",
        "orders.o_totalprice": "231b9186db47671c",
        "orders.o_orderdate": "291c1c364fc53be7",
        "orders.o_orderstatus": "28b59918507da444",
        "lineitem.l_orderkey": "e5ef22b0931e54f2",
        "lineitem.l_linenumber": "907eaebbc16d5a06",
        "lineitem.l_partkey": "572f67458601e0e0",
        "lineitem.l_suppkey": "42db40e9f7234c4d",
        "lineitem.l_quantity": "5a71cc4316cf2099",
        "lineitem.l_extendedprice": "1e8a8241ca09c13e",
        "lineitem.l_discount": "68be056d9ab78fb0",
        "lineitem.l_tax": "3f5d4bacdb5db4df",
        "lineitem.l_returnflag": "069991ad7e3c500d",
        "lineitem.l_linestatus": "7d789b5fa1d8eecb",
        "lineitem.l_shipdate": "24f91f95929cc297",
    },
    (0.5, 42): {
        "region.r_regionkey": "2b3a9c8d215b0d62",
        "nation.n_nationkey": "0664d214c8a54283",
        "nation.n_regionkey": "2ae52403fbcfe52a",
        "supplier.s_suppkey": "e500ff93c4c05368",
        "supplier.s_nationkey": "7b22722b7678749d",
        "supplier.s_acctbal": "edc477be6422c4da",
        "customer.c_custkey": "a99d12328531ca10",
        "customer.c_nationkey": "63c6829480b2a24f",
        "customer.c_acctbal": "8eb4a6094da34dbc",
        "customer.c_mktsegment": "82a064d0e5a3f3b6",
        "part.p_partkey": "fbd8226c2e3bcd21",
        "part.p_retailprice": "9f682fbb3943ddee",
        "part.p_size": "398ca9f481a57913",
        "part.p_brand": "1bd4c47cf68a3bc1",
        "orders.o_orderkey": "adbc37a71d24c546",
        "orders.o_custkey": "55792a70b1efe348",
        "orders.o_totalprice": "6db0ebd4662b8b4d",
        "orders.o_orderdate": "bdfd58919cd3ca89",
        "orders.o_orderstatus": "abd46dde4d85cfbd",
        "lineitem.l_orderkey": "f387960ded18936d",
        "lineitem.l_linenumber": "242b85a1c1392255",
        "lineitem.l_partkey": "7305d1473762acf5",
        "lineitem.l_suppkey": "3c335deef6c78446",
        "lineitem.l_quantity": "fc2eb51b6dcf1e1a",
        "lineitem.l_extendedprice": "ccaedc8a0c5d2738",
        "lineitem.l_discount": "b50f75e37b95ed25",
        "lineitem.l_tax": "47e1913c35c03546",
        "lineitem.l_returnflag": "9be831a727508cb5",
        "lineitem.l_linestatus": "1a4c0122d6162938",
        "lineitem.l_shipdate": "2c57959a3b6a8df4",
    },
    (5.0, 42): {
        "region.r_regionkey": "2b3a9c8d215b0d62",
        "nation.n_nationkey": "0664d214c8a54283",
        "nation.n_regionkey": "2ae52403fbcfe52a",
        "supplier.s_suppkey": "c09aa398858748b0",
        "supplier.s_nationkey": "5949e9c4a3a23855",
        "supplier.s_acctbal": "ebae16bcddc27b01",
        "customer.c_custkey": "adbc37a71d24c546",
        "customer.c_nationkey": "5c02b6739d002d77",
        "customer.c_acctbal": "a9739f8f03ba5eb2",
        "customer.c_mktsegment": "307d28ec6aa3d927",
        "part.p_partkey": "ca3f831fe718b412",
        "part.p_retailprice": "6ea448e3281aca51",
        "part.p_size": "50fba68ce96c53db",
        "part.p_brand": "0043340edd24dc5b",
        "orders.o_orderkey": "046c6a458ac8a483",
        "orders.o_custkey": "163706ed0fd610b6",
        "orders.o_totalprice": "f3ad3f99671cf109",
        "orders.o_orderdate": "e070bbdf684b1505",
        "orders.o_orderstatus": "e3fe568709f18648",
        "lineitem.l_orderkey": "e0e5cc95c60de1dd",
        "lineitem.l_linenumber": "d6588edbc693f32f",
        "lineitem.l_partkey": "c6e7030f6a4a9f3b",
        "lineitem.l_suppkey": "882252221d5c7935",
        "lineitem.l_quantity": "56000ecad6c242fe",
        "lineitem.l_extendedprice": "2d7324d2b85a7d9b",
        "lineitem.l_discount": "812d3b32e041587a",
        "lineitem.l_tax": "c61a84bf464dc1e7",
        "lineitem.l_returnflag": "88ea681bb7a5bef3",
        "lineitem.l_linestatus": "520cdbe3b36496c4",
        "lineitem.l_shipdate": "40a85e74b6007cb5",
    },
}


def column_digest(table, name: str) -> str:
    """Digest of one column: dtype and bytes, or strings and codes."""
    digest = hashlib.sha256()
    column = table.column(name)
    digest.update(column.dtype.str.encode())
    if column.dtype == object:
        digest.update("\x1f".join(column.tolist()).encode())
        codes, values = table.columns.encoded(name)
        digest.update(codes.dtype.str.encode())
        digest.update(np.ascontiguousarray(codes).tobytes())
        digest.update("\x1f".join(values.tolist()).encode())
    else:
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()[:16]


def digests(scale: float, seed: int) -> dict[str, str]:
    tables = generate_tpch(scale, seed)
    return {
        f"{t}.{c}": column_digest(table, c)
        for t, table in tables.items()
        for c in table.schema.names
    }


@pytest.mark.parametrize("scale, seed", sorted(PINNED))
def test_every_column_keeps_its_bits(scale, seed):
    assert digests(scale, seed) == PINNED[(scale, seed)]

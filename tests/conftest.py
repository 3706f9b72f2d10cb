"""Shared fixtures: small hand-made databases and a TPC-H instance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.tpch import tpch_database
from repro.relational.database import Database


@pytest.fixture
def small_db() -> Database:
    """A tiny, hand-checkable two-table join database."""
    db = Database(seed=123)
    db.create_table(
        "orders",
        {
            "o_orderkey": np.array([1, 2, 3, 4], dtype=np.int64),
            "o_totalprice": np.array([10.0, 20.0, 30.0, 40.0]),
        },
    )
    db.create_table(
        "lineitem",
        {
            "l_orderkey": np.array([1, 1, 2, 3, 3, 3], dtype=np.int64),
            "l_extendedprice": np.array(
                [100.0, 150.0, 200.0, 50.0, 120.0, 80.0]
            ),
            "l_discount": np.array([0.1, 0.05, 0.0, 0.08, 0.02, 0.04]),
            "l_tax": np.array([0.02, 0.04, 0.01, 0.0, 0.03, 0.05]),
        },
    )
    return db


@pytest.fixture(scope="session")
def tpch_db() -> Database:
    """A small deterministic TPC-H instance shared across tests."""
    return tpch_database(scale=0.02, seed=7)


@pytest.fixture(scope="session")
def tpch_db_mid() -> Database:
    """A mid-size TPC-H instance for statistical tests."""
    return tpch_database(scale=0.1, seed=11)


@pytest.fixture
def gathers(monkeypatch) -> list:
    """Every ``(source, index)`` a pending column was gathered with.

    Counts through ``repro.relational.table._gather``, the one
    module-level function that performs ``source[index]`` for a data
    column; lineage is gathered on the spot and never passes it.
    """
    from repro.relational import table as table_module

    calls: list[tuple[np.ndarray, np.ndarray]] = []
    real = table_module._gather

    def counting(source, index):
        calls.append((source, index))
        return real(source, index)

    monkeypatch.setattr(table_module, "_gather", counting)
    return calls

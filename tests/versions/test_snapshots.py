"""Snapshot algebra: naming, copy-on-write identity, versioned API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational.database import Database
from repro.versions.snapshots import (
    SnapshotRegistry,
    base_name,
    split_versioned_name,
    versioned_name,
)


def make_db() -> Database:
    db = Database(seed=123)
    db.create_table(
        "t",
        {
            "k": np.arange(6, dtype=np.int64),
            "v": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        },
    )
    return db


class TestNaming:
    def test_versioned_name_round_trips(self):
        assert versioned_name("t", 3) == "t@v3"
        assert split_versioned_name("t@v3") == ("t", 3)
        assert split_versioned_name("t") == ("t", None)
        assert base_name("t@v12") == "t"
        assert split_versioned_name("t@v1")[1] is not None
        assert split_versioned_name("t")[1] is None

    def test_versions_start_at_one(self):
        with pytest.raises(SchemaError):
            versioned_name("t", 0)

    def test_registry_allocates_monotonically(self):
        reg = SnapshotRegistry()
        assert reg.allocate("t") == 1
        assert reg.allocate("t") == 2
        assert reg.allocate("u") == 1
        assert reg.versions_of("t") == (1, 2)
        assert reg.latest("t") == 2
        assert reg.latest("x") is None
        assert reg.has("t", 2) and not reg.has("t", 3)
        assert len(reg) == 3
        assert reg.drop_base("t") == (1, 2)
        assert reg.versions_of("t") == ()


class TestSnapshotAPI:
    def test_snapshot_is_copy_on_write(self):
        db = make_db()
        live = db.table("t")
        assert db.snapshot("t") == 1
        snap = db.table("t", version=1)
        assert snap.version == 1
        assert snap.name == "t@v1"
        assert np.shares_memory(
            np.asarray(snap.column("v")), np.asarray(live.column("v"))
        )

    def test_update_table_freezes_pre_mutation_contents(self):
        db = make_db()
        new_vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 60.0])
        db.update_table("t", db.table("t").with_columns({"v": new_vals}))
        assert db.versions_of("t") == (1,)
        np.testing.assert_array_equal(
            np.asarray(db.table("t", version=1).column("v")),
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        np.testing.assert_array_equal(
            np.asarray(db.table("t").column("v")), new_vals
        )
        # Untouched columns still share arrays between snapshot and live.
        assert np.shares_memory(
            np.asarray(db.table("t", version=1).column("k")),
            np.asarray(db.table("t").column("k")),
        )

    def test_snapshot_contents_survive_later_mutations(self):
        db = make_db()
        db.snapshot("t")
        db.update_table(
            "t", db.table("t").with_columns({"v": np.zeros(6)})
        )
        assert db.versions_of("t") == (1, 2)
        np.testing.assert_array_equal(
            np.asarray(db.table("t", version=1).column("v")),
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        np.testing.assert_array_equal(
            np.asarray(db.table("t", version=2).column("v")),
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )

    def test_update_chain_shares_every_untouched_column(self):
        """Four updates that each rewrite ``v``: one buffer per version
        for ``v``, one buffer in all for every other column."""
        db = make_db()
        db.create_table(
            "w",
            {
                "k": np.arange(6, dtype=np.int64),
                "g": np.arange(6, dtype=np.int64) % 2,
                "x": np.linspace(0.5, 1.5, 6),
                "v": np.ones(6),
            },
        )
        for step in range(4):
            v = db.table("w").column("v").copy()
            v[step] += 1.0
            db.update_table("w", db.table("w").with_columns({"v": v}))
        assert db.versions_of("w") == (1, 2, 3, 4)
        chain = [db.table("w")] + [db.table("w", version=n) for n in (1, 2, 3, 4)]
        arrays = [np.asarray(t.column(name)) for t in chain for name in t.columns]
        distinct: list[np.ndarray] = []
        for arr in arrays:
            if not any(np.shares_memory(arr, seen) for seen in distinct):
                distinct.append(arr)
        # Three shared columns plus five private ``v`` buffers: 20
        # arrays in 8 buffers, the 2.5x sharing of a 4-deep chain.
        assert len(arrays) == 20 and len(distinct) == 3 + 5
        for name in ("k", "g", "x"):
            first = np.asarray(chain[0].column(name))
            for table in chain[1:]:
                assert np.shares_memory(np.asarray(table.column(name)), first)

    def test_resolve_version(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.resolve_version("missing", None)
        with pytest.raises(SchemaError, match="no snapshot version"):
            db.resolve_version("t", 1)
        db.snapshot("t")
        assert db.resolve_version("t", 1) == "t@v1"
        assert db.resolve_version("t", None) == "t"

    def test_drop_table_removes_every_version(self):
        db = make_db()
        db.snapshot("t")
        db.snapshot("t")
        db.drop_table("t")
        assert "t@v1" not in db.tables and "t@v2" not in db.tables
        assert db.versions_of("t") == ()
        with pytest.raises(SchemaError):
            db.table("t")

"""SynopsisCatalog mechanics: LRU bounds, replacement, invalidation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.relational import plan as p
from repro.relational.database import Database
from repro.relational.table import Table
from repro.sampling import LineageHashBernoulli
from repro.store import SynopsisCatalog, canonicalize, table_nbytes
from repro.store import catalog as catalog_module

SIZES = {"t": 100}


def make_canon(rate: float, seed: int):
    plan = p.TableSample(p.Scan("t"), LineageHashBernoulli(rate, seed=seed))
    canon = canonicalize(plan, SIZES)
    assert canon is not None
    return canon


def make_sample(n: int = 8) -> Table:
    return Table(
        "t",
        {"x": np.arange(n, dtype=np.float64)},
        lineage={"t": np.arange(n, dtype=np.int64)},
    )


def make_params(rate: float):
    from repro.core.gus import bernoulli_gus

    return bernoulli_gus("t", rate)


def put(catalog: SynopsisCatalog, rate: float, seed: int, n: int = 8):
    canon = make_canon(rate, seed)
    return catalog.put(canon, make_sample(n), make_params(rate), p.Scan("t"))


class TestBounds:
    def test_entry_bound_evicts_lru(self, monkeypatch):
        monkeypatch.setattr(catalog_module, "MAX_ENTRIES", 2)
        catalog = SynopsisCatalog()
        a = put(catalog, 0.1, seed=1)
        b = put(catalog, 0.2, seed=2)
        # Touch a so b becomes the LRU victim.
        catalog.record_hit(a, "exact")
        put(catalog, 0.3, seed=3)
        assert len(catalog) == 2
        remaining = {
            syn.entry_id for syn in catalog.candidates(make_canon(0.2, 2))
        }
        assert b.entry_id not in remaining
        assert catalog.snapshot_stats().evictions == 1

    def test_byte_bound_evicts(self, monkeypatch):
        one_entry = table_nbytes(make_sample(64))
        monkeypatch.setattr(catalog_module, "MAX_BYTES", one_entry + 1)
        monkeypatch.setattr(catalog_module, "MAX_ENTRY_BYTES", one_entry)
        catalog = SynopsisCatalog()
        put(catalog, 0.1, seed=1, n=64)
        put(catalog, 0.2, seed=2, n=64)
        assert len(catalog) == 1
        assert catalog.resident_bytes <= catalog_module.MAX_BYTES

    def test_oversized_entry_is_not_stored(self, monkeypatch):
        # One sample must never dominate the byte budget: larger than
        # MAX_ENTRY_BYTES -> skipped entirely (the answer is unaffected,
        # only reuse is skipped).
        assert catalog_module.MAX_ENTRY_BYTES == catalog_module.MAX_BYTES // 4
        monkeypatch.setattr(catalog_module, "MAX_BYTES", 1024)
        monkeypatch.setattr(catalog_module, "MAX_ENTRY_BYTES", 1024 // 4)
        catalog = SynopsisCatalog()
        assert put(catalog, 0.1, seed=1, n=64) is None
        assert len(catalog) == 0
        assert catalog.resident_bytes == 0

    def test_put_same_identity_replaces(self):
        catalog = SynopsisCatalog()
        put(catalog, 0.1, seed=1)
        put(catalog, 0.1, seed=1)
        assert len(catalog) == 1

    def test_empty_catalog_instance_attaches(self):
        # Regression guard: SynopsisCatalog defines __len__, so an
        # empty instance is falsy — the ctor must test identity, not
        # truthiness.
        catalog = SynopsisCatalog()
        db = Database(seed=0, catalog=catalog)
        assert db.synopses is catalog
        assert Database(seed=0, catalog=False).synopses is None
        assert Database.from_tables({}, catalog=catalog).synopses is catalog


class TestInvalidation:
    def test_invalidate_purges_and_versions(self):
        catalog = SynopsisCatalog()
        put(catalog, 0.1, seed=1)
        assert catalog.version_of("t") == 0
        assert catalog.invalidate("t") == 1
        assert catalog.version_of("t") == 1
        assert catalog.candidates(make_canon(0.1, 1)) == []
        assert len(catalog) == 0

    def test_invalidate_other_table_keeps_entries(self):
        catalog = SynopsisCatalog()
        put(catalog, 0.1, seed=1)
        assert catalog.invalidate("unrelated") == 0
        assert len(catalog) == 1

    def test_put_with_pre_mutation_stamps_is_discarded(self):
        # A sample executed against a table snapshot taken before a
        # mutation must not enter the catalog: its invalidation already
        # happened.  (This is the in-flight-miss race: snapshot ->
        # mutate -> put.)
        catalog = SynopsisCatalog()
        stamps = catalog.version_stamps(["t"])
        catalog.invalidate("t")  # the mutation lands mid-execution
        canon = make_canon(0.1, 1)
        assert (
            catalog.put(
                canon,
                make_sample(),
                make_params(0.1),
                p.Scan("t"),
                versions=stamps,
            )
            is None
        )
        assert len(catalog) == 0

    def test_in_flight_miss_race_through_the_database(self):
        # End to end: the SBox reads version stamps before snapshotting
        # the tables, so an update_table landing between sbox() and
        # run() leaves the catalog without the stale sample.
        db = self._mutation_db()
        sbox = db.sbox()  # snapshot taken here
        plan = db.plan_sql(TestDatabaseMutationPaths.QUERY)
        db.update_table("t", db.table("t"))  # mutation lands
        sbox.run(plan, rng=db.rng(1))  # executes against the snapshot
        assert len(db.synopses) == 0
        assert db.sql(TestDatabaseMutationPaths.QUERY, seed=1).reuse is None

    @staticmethod
    def _mutation_db() -> Database:
        db = Database(seed=0, catalog=True)
        db.create_table(
            "t",
            {
                "k": np.arange(20, dtype=np.int64),
                "x": np.linspace(0.0, 1.0, 20),
            },
        )
        return db

    def test_stale_version_filtered_at_lookup(self):
        # An entry stored against an older version must never be served,
        # even if invalidate() was called on a catalog that did not hold
        # it yet (versions are global, entries lazily validated).
        catalog = SynopsisCatalog()
        syn = put(catalog, 0.1, seed=1)
        catalog._versions["t"] = catalog._versions.get("t", 0) + 1
        assert catalog.candidates(syn.canon) == []


class TestDatabaseMutationPaths:
    """Every Database mutation path must invalidate affected synopses."""

    def _db(self) -> Database:
        db = Database(seed=0, catalog=True)
        db.create_table(
            "t",
            {
                "k": np.arange(20, dtype=np.int64),
                "x": np.linspace(0.0, 1.0, 20),
            },
        )
        return db

    QUERY = "SELECT SUM(x) AS s FROM t TABLESAMPLE (50 PERCENT) REPEATABLE (3)"

    def _prime(self, db: Database) -> None:
        db.sql(self.QUERY, seed=1)
        assert len(db.synopses) == 1

    def test_update_table_invalidates(self):
        db = self._db()
        self._prime(db)
        db.update_table("t", db.table("t"))
        assert len(db.synopses) == 0
        assert db.sql(self.QUERY, seed=1).reuse is None

    def test_drop_table_invalidates(self):
        db = self._db()
        self._prime(db)
        db.drop_table("t")
        assert len(db.synopses) == 0

    def test_recreate_after_drop_does_not_serve_stale(self):
        db = self._db()
        self._prime(db)
        old = db.table("t")
        db.drop_table("t")
        db.register("t", old)
        result = db.sql(self.QUERY, seed=1)
        assert result.reuse is None  # repopulated, not served stale

    def test_register_unrelated_table_keeps_synopses(self):
        db = self._db()
        self._prime(db)
        db.create_table("other", {"y": np.arange(3, dtype=np.float64)})
        assert len(db.synopses) == 1
        assert db.sql(self.QUERY, seed=1).reuse is not None

    def test_update_unknown_table_raises(self):
        from repro.errors import SchemaError

        db = self._db()
        with pytest.raises(SchemaError):
            db.update_table("nope", db.table("t"))


class TestChunkedEnginePopulation:
    """The chunked engine populates and serves the catalog too."""

    QUERY = (
        "SELECT SUM(x) AS s FROM t TABLESAMPLE (50 PERCENT) REPEATABLE (3)"
    )

    def _db(self, chunk_size: int | None) -> Database:
        db = Database(seed=0, catalog=True, chunk_size=chunk_size)
        db.create_table(
            "t",
            {
                "k": np.arange(500, dtype=np.int64),
                "x": np.linspace(0.0, 1.0, 500),
            },
        )
        return db

    def test_miss_and_hit_match_serial_engine_bitwise(self):
        chunked = self._db(chunk_size=64)
        serial = self._db(chunk_size=None)
        first = chunked.sql(self.QUERY, seed=1)
        assert first.reuse is None and len(chunked.synopses) == 1
        second = chunked.sql(self.QUERY, seed=1)
        assert second.reuse is not None and second.reuse.kind == "exact"
        reference = serial.sql(self.QUERY, seed=1)
        assert first.values == second.values == reference.values
        assert (
            first.estimates["s"].variance_raw
            == second.estimates["s"].variance_raw
            == reference.estimates["s"].variance_raw
        )

    def test_clear_empties_the_catalog(self):
        db = self._db(chunk_size=None)
        db.sql(self.QUERY, seed=1)
        assert len(db.synopses) == 1
        db.synopses.clear()
        assert len(db.synopses) == 0
        assert db.synopses.resident_bytes == 0


class TestStats:
    def test_hit_miss_accounting_balances(self):
        db = Database(seed=0, catalog=True)
        db.create_table(
            "t", {"x": np.linspace(0.0, 1.0, 30)}
        )
        q = "SELECT SUM(x) AS s FROM t TABLESAMPLE (50 PERCENT) REPEATABLE (9)"
        for _ in range(4):
            db.sql(q, seed=2)
        stats = db.synopses.snapshot_stats()
        assert stats.lookups == stats.hits + stats.misses == 4
        assert stats.hits == 3 and stats.exact_hits == 3
        assert stats.puts == 1
        assert stats.hit_rate == pytest.approx(0.75)

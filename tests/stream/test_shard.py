"""Acceptance: the sharded path is exact for 1-8 shards, both policies."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.algebra import join_gus
from repro.core.estimator import estimate_sum
from repro.core.gus import bernoulli_gus, without_replacement_gus
from repro.errors import EstimationError
from repro.stream import ShardCoordinator

GUS_CASES = {
    "bernoulli": bernoulli_gus("l", 0.3),
    "wor": without_replacement_gus("l", 25, 80),
    "join": join_gus(bernoulli_gus("l", 0.4), without_replacement_gus("o", 30, 100)),
}


def _sample(rng, n, dims):
    f = rng.uniform(-2, 6, n)
    spans = {"l": 50, "o": 20}
    lineage = {d: rng.integers(0, spans[d], n).astype(np.int64) for d in dims}
    return f, lineage


class TestShardedExactness:
    @pytest.mark.parametrize("gus_name", sorted(GUS_CASES))
    @pytest.mark.parametrize("n_shards", range(1, 9))
    @pytest.mark.parametrize("policy", ["lineage-hash", "round-robin"])
    def test_merged_equals_batch(self, gus_name, n_shards, policy):
        gus = GUS_CASES[gus_name]
        rng = np.random.default_rng(n_shards * 31 + len(policy))
        f, lineage = _sample(rng, 700, gus.lattice.dims)
        coordinator = ShardCoordinator(gus, n_shards, policy=policy)
        for part in np.array_split(np.arange(700), 5):
            coordinator.ingest(f[part], {d: c[part] for d, c in lineage.items()})
        sharded = coordinator.estimate()
        batch = estimate_sum(gus, f, lineage)
        assert sharded.value == pytest.approx(batch.value, abs=1e-9, rel=1e-9)
        assert sharded.variance_raw == pytest.approx(batch.variance_raw, abs=1e-9, rel=1e-9)
        assert sharded.n_sample == batch.n_sample == 700

    def test_all_rows_routed_exactly_once(self):
        gus = GUS_CASES["join"]
        rng = np.random.default_rng(5)
        f, lineage = _sample(rng, 500, gus.lattice.dims)
        coordinator = ShardCoordinator(gus, 4)
        coordinator.ingest(f, lineage)
        assert sum(coordinator.shard_sizes()) == 500
        assert coordinator.n_sample == 500

    def test_lineage_hash_coloCates_groups(self):
        """Same full lineage key -> same shard, so shard tables never
        share keys and the merged group count equals each key once."""
        gus = GUS_CASES["bernoulli"]
        rng = np.random.default_rng(6)
        keys = rng.integers(0, 40, 2000).astype(np.int64)
        coordinator = ShardCoordinator(gus, 4, policy="lineage-hash")
        coordinator.ingest(np.ones(2000), {"l": keys})
        per_shard_groups = sum(shard.sketch.n_groups for shard in coordinator.shards)
        assert per_shard_groups == np.unique(keys).size

    def test_identity_gus_falls_back_to_round_robin(self):
        """With no active lineage dimension every row folds to the same
        hash key; routing must spread the load instead of piling one
        shard high (placement never affects exactness)."""
        gus = bernoulli_gus("l", 1.0)
        coordinator = ShardCoordinator(gus, 4, policy="lineage-hash")
        coordinator.ingest(np.ones(400), {"l": np.arange(400, dtype=np.int64)})
        assert coordinator.shard_sizes() == [100, 100, 100, 100]

    def test_round_robin_balances(self):
        gus = GUS_CASES["bernoulli"]
        coordinator = ShardCoordinator(gus, 3, policy="round-robin")
        coordinator.ingest(np.ones(300), {"l": np.zeros(300, dtype=np.int64)})
        assert coordinator.shard_sizes() == [100, 100, 100]

    def test_routing_is_deterministic_across_batching(self):
        """Splitting the same stream differently must not move a lineage
        key between shards under lineage-hash routing."""
        gus = GUS_CASES["bernoulli"]
        rng = np.random.default_rng(7)
        f, lineage = _sample(rng, 400, gus.lattice.dims)
        one = ShardCoordinator(gus, 5, seed=9)
        one.ingest(f, lineage)
        many = ShardCoordinator(gus, 5, seed=9)
        for part in np.array_split(np.arange(400), 7):
            many.ingest(f[part], {d: c[part] for d, c in lineage.items()})
        assert one.shard_sizes() == many.shard_sizes()

    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_large_batches_update_shards_on_this_thread(
        self, n_shards, monkeypatch
    ):
        """Shard updates run in a loop: a batch of any size starts no
        thread, and the merge stays exact."""

        def refuse(self, *args, **kwargs):
            raise AssertionError("Thread.start() called")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        gus = GUS_CASES["join"]
        rng = np.random.default_rng(n_shards)
        f, lineage = _sample(rng, 20_000, gus.lattice.dims)
        coordinator = ShardCoordinator(gus, n_shards)
        coordinator.ingest(f, lineage)
        assert all(size > 0 for size in coordinator.shard_sizes())
        batch = estimate_sum(gus, f, lineage)
        sharded = coordinator.estimate()
        assert sharded.value == pytest.approx(batch.value, rel=1e-9)
        assert sharded.variance_raw == pytest.approx(
            batch.variance_raw, rel=1e-9
        )

    def test_invalid_configuration_rejected(self):
        gus = GUS_CASES["bernoulli"]
        with pytest.raises(EstimationError, match="at least one shard"):
            ShardCoordinator(gus, 0)
        with pytest.raises(EstimationError, match="unknown shard policy"):
            ShardCoordinator(gus, 2, policy="random")

    def test_missing_lineage_rejected(self):
        gus = GUS_CASES["join"]
        coordinator = ShardCoordinator(gus, 2)
        with pytest.raises(EstimationError, match="missing"):
            coordinator.ingest(np.ones(3), {"l": np.arange(3)})

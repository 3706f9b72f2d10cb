"""Sharded ingestion: N sketches side by side, one exact estimate out.

The group-sum table inside a
:class:`~repro.stream.sketch.MomentSketchBundle` is additive, so a
stream can be partitioned across any number of shard sketches —
different cores, processes, or machines — and the merged table is
identical to what a single sketch would have built.  The
:class:`ShardCoordinator` here is the single-process reference
implementation of that protocol: it routes incoming batches to shards,
and :meth:`estimate` merges on demand.

Two routing policies:

* ``"lineage-hash"`` — shard by a deterministic hash of the full active
  lineage key.  Rows of the same lineage group land on the same shard,
  so each shard's table stays maximally compact and the final merge
  sees no overlapping keys.
* ``"round-robin"`` — spread rows evenly regardless of lineage.  Shard
  tables may share keys (the merge re-reduces them exactly); useful
  when load balance matters more than compaction.

Either way the merged estimate equals the batch
:func:`repro.core.estimator.estimate_sum` on the concatenated sample —
the property the test suite pins down for 1–8 shards.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.core.estimator import Estimate
from repro.core.gus import GUSParams
from repro.errors import EstimationError
from repro.sampling.pseudorandom import hash01
from repro.stream.estimator import StreamingEstimator

__all__ = ["ShardCoordinator"]

#: FNV-ish odd multiplier for folding several lineage columns into one
#: 64-bit key before hashing.  Collisions only affect shard placement,
#: never correctness: any deterministic routing yields an exact merge.
_FOLD = np.uint64(0x100000001B3)

#: Salt mixed into the routing seed so a coordinator sharing a seed with
#: a lineage-hash *shedding* filter does not see hashes pre-filtered
#: below the keep-rate (which would pile every kept row on shard 0).
_ROUTING_SALT = 0x5A4D_C0DE_D155_ECED

_POLICIES = ("lineage-hash", "round-robin")


class ShardCoordinator:
    """Partition tuple batches across shard sketches; merge on demand."""

    __slots__ = (
        "params",
        "n_shards",
        "policy",
        "seed",
        "shards",
        "_active_dims",
        "_row_counter",
    )

    def __init__(
        self,
        params: GUSParams,
        n_shards: int,
        *,
        policy: str = "lineage-hash",
        seed: int = 0,
        label: str = "SUM",
    ) -> None:
        if n_shards < 1:
            raise EstimationError(f"need at least one shard, got {n_shards}")
        if policy not in _POLICIES:
            raise EstimationError(
                f"unknown shard policy {policy!r}; choose from {_POLICIES}"
            )
        self.params = params
        self.n_shards = int(n_shards)
        self.policy = policy
        self.seed = int(seed)
        self.shards = [
            StreamingEstimator(params, label=label) for _ in range(n_shards)
        ]
        self._active_dims = params.project_out_inactive().lattice.dims
        self._row_counter = 0

    # -- routing --------------------------------------------------------

    def _assign(
        self, n: int, lineage: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        # With no active lineage dimension (identity GUS) every row
        # folds to the same key; spread the load round-robin instead of
        # piling one shard high.  Placement never affects exactness.
        if self.policy == "round-robin" or not self._active_dims:
            assignment = (
                np.arange(self._row_counter, self._row_counter + n) % self.n_shards
            )
            return assignment.astype(np.int64)
        with np.errstate(over="ignore"):
            mix = np.zeros(n, dtype=np.uint64)
            for dim in self._active_dims:
                col = np.asarray(lineage[dim], dtype=np.int64)
                mix = mix * _FOLD ^ col.astype(np.uint64)
        u = hash01(self.seed ^ _ROUTING_SALT, mix)
        # hash01's float conversion can round to exactly 1.0 (~2^-54
        # per row); clamp so no row silently falls off the shard range.
        idx = np.floor(u * self.n_shards).astype(np.int64)
        return np.minimum(idx, self.n_shards - 1)

    def ingest(
        self, f: np.ndarray, lineage: Mapping[str, np.ndarray]
    ) -> "ShardCoordinator":
        """Route one batch to the shards; returns ``self``."""
        f = np.asarray(f, dtype=np.float64)
        n = f.shape[0]
        missing = [d for d in self._active_dims if d not in lineage]
        if missing:
            raise EstimationError(f"lineage columns missing for {missing}")
        if n == 0:
            return self
        assignment = self._assign(n, lineage)
        lineage_arrays = {
            d: np.asarray(lineage[d]) for d in self._active_dims
        }
        for s, shard in enumerate(self.shards):
            pick = assignment == s
            if np.any(pick):
                shard.update(
                    f[pick],
                    {d: col[pick] for d, col in lineage_arrays.items()},
                )
        self._row_counter += n
        return self

    # -- inspection / emission ------------------------------------------

    @property
    def n_sample(self) -> int:
        return sum(shard.n_sample for shard in self.shards)

    def shard_sizes(self) -> list[int]:
        """Rows routed to each shard so far (for balance inspection)."""
        return [shard.n_sample for shard in self.shards]

    def shard(self, i: int) -> StreamingEstimator:
        return self.shards[i]

    def merged(self) -> StreamingEstimator:
        """A fresh estimator holding the exact union of all shards."""
        combined = self.shards[0].copy()
        for shard in self.shards[1:]:
            combined.merge(shard)
        return combined

    def estimate(self) -> Estimate:
        """Merge all shards and emit the global unbiased estimate."""
        return self.merged().estimate()

    def __repr__(self) -> str:
        return (
            f"ShardCoordinator(n_shards={self.n_shards}, "
            f"policy={self.policy!r}, sizes={self.shard_sizes()})"
        )

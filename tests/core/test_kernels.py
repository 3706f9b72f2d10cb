"""The blocked lineage hash equals the whole-array expression it replaced.

``reference_hash01`` below is that expression, kept here: SplitMix64
over the whole id array, one temporary per step, then the float
conversion.  ``kernels.hash01`` must reproduce its bits and
``kernels.hash_keep`` its ``< p`` decisions — which are taken on the
integer hash against a threshold — for every id dtype and layout,
every length around the block size, every seed and every rate,
including the rates next to a threshold.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.kernels import _HASH_BLOCK, _keep_threshold, hash01, hash_keep
from repro.sampling import LineageHashBernoulli

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_64 = 1.0 / float(2**64)


def _reference_finalize(z):
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def reference_hash01(seed: int, ids: np.ndarray) -> np.ndarray:
    ids_u64 = np.asarray(ids, dtype=np.uint64)
    with np.errstate(over="ignore"):
        seed_mix = _reference_finalize(
            np.uint64(seed % (2**64)) * _GAMMA + _GAMMA
        )
        z = _reference_finalize(seed_mix ^ (ids_u64 * _GAMMA))
    return z.astype(np.float64) * _INV_2_64


def _uniform_of(z: int) -> float:
    """The uniform numpy's conversion gives the 64-bit hash ``z``."""
    return float(np.array([z], dtype=np.uint64).astype(np.float64)[0]) * _INV_2_64


LENGTHS = (0, 1, _HASH_BLOCK - 1, _HASH_BLOCK, _HASH_BLOCK + 1, 3 * _HASH_BLOCK + 17)

seeds = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def id_arrays(draw):
    """Ids of every dtype and layout the engine hashes."""
    n = draw(st.sampled_from(LENGTHS))
    dtype = draw(st.sampled_from([np.int64, np.uint64, np.int32]))
    layout = draw(st.sampled_from(["plain", "strided", "sliced"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stored = 2 * n + 3 if layout != "plain" else n
    info = np.iinfo(dtype)
    ids = rng.integers(info.min, info.max, stored, dtype=dtype, endpoint=True)
    if layout == "strided":
        return ids[1 : 1 + 2 * n : 2]
    if layout == "sliced":
        return ids[3 : 3 + n]
    return ids


@st.composite
def rates(draw, ids, seed):
    """Uniform rates, and the floats adjacent to a hash of ``ids``."""
    if ids.shape[0] and draw(st.booleans()):
        u = float(reference_hash01(seed, ids)[draw(st.integers(0, ids.shape[0] - 1))])
        return draw(
            st.sampled_from([np.nextafter(u, 0.0), u, np.nextafter(u, 2.0)])
        )
    return draw(st.floats(min_value=0.0, max_value=1.0))


class TestBlockedHash:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_hash01_reproduces_the_whole_array_bits(self, data):
        ids, seed = data.draw(id_arrays()), data.draw(seeds)
        got = hash01(seed, ids)
        assert got.dtype == np.float64 and got.shape == ids.shape
        assert got.tobytes() == reference_hash01(seed, ids).tobytes()

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_hash_keep_is_hash01_below_the_rate(self, data):
        ids, seed = data.draw(id_arrays()), data.draw(seeds)
        p = float(data.draw(rates(ids, seed)))
        got = hash_keep(seed, ids, p)
        assert got.dtype == bool
        if p >= 1.0:  # everything, even a uniform that rounds to 1.0
            assert got.all()
        else:
            assert np.array_equal(got, reference_hash01(seed, ids) < p)

    def test_a_sampler_keeps_what_the_reference_keeps(self):
        ids = np.arange(-5, 40_000, dtype=np.int64)
        for rate in (0.001, 0.2, 0.5, 0.999):
            sampler = LineageHashBernoulli(rate, seed=-77)
            assert np.array_equal(
                sampler.keep(ids), reference_hash01(-77, ids) < rate
            )

    def test_concurrent_threads_hash_what_one_does(self):
        """Scratch is per call: concurrent hashes do not share it."""
        ids = np.arange(8 * _HASH_BLOCK + 5, dtype=np.int64)
        jobs = [(seed, 0.1 + 0.2 * seed) for seed in range(4)]
        serial = [hash_keep(seed, ids, p) for seed, p in jobs]
        results: dict[tuple[int, int], bool] = {}

        def work(thread: int) -> None:
            for round_ in range(10):
                seed, p = jobs[(thread + round_) % len(jobs)]
                results[(thread, round_)] = np.array_equal(
                    hash_keep(seed, ids, p), serial[(thread + round_) % len(jobs)]
                ) and (
                    hash01(seed, ids).tobytes()
                    == reference_hash01(seed, ids).tobytes()
                )

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 40 and all(results.values())


class TestKeepThreshold:
    """``z < threshold(p)`` exactly when ``uniform(z) < p``."""

    @pytest.mark.parametrize(
        "p",
        [
            5e-324,  # the smallest subnormal
            2.0**-64,
            0.1,
            0.5,
            float(np.nextafter(0.5, 1.0)),
            1.0 - 2.0**-53,
        ],
    )
    def test_threshold_is_the_first_hash_not_below_the_rate(self, p):
        z = _keep_threshold(p)
        assert 0 < z < 2**64
        assert _uniform_of(z) >= p
        assert _uniform_of(z - 1) < p

    def test_the_top_hashes_round_to_one(self):
        """Why rate 1 cannot be decided by ``hash01 < 1``."""
        assert _uniform_of(2**64 - 1025) < 1.0
        assert _uniform_of(2**64 - 1024) == 1.0
        assert _uniform_of(2**64 - 1) == 1.0
        below_one = 1.0 - 2.0**-53
        assert _keep_threshold(below_one) <= 2**64 - 1025
        assert _uniform_of(2**64 - 1025) >= below_one

    def test_rate_one_keeps_everything_and_rate_zero_nothing_unhashed(
        self, monkeypatch
    ):
        rounds: list[int] = []
        real = kernels._finalize_inplace

        def counting(z, t):
            rounds.append(z.shape[0])
            real(z, t)

        monkeypatch.setattr(kernels, "_finalize_inplace", counting)
        ids = np.arange(3 * _HASH_BLOCK, dtype=np.int64)
        assert hash_keep(3, ids, 1.0).all()
        assert LineageHashBernoulli(1.0, seed=3).keep(ids).all()
        assert not hash_keep(3, ids, 0.0).any()
        assert not LineageHashBernoulli(0.0, seed=3).keep(ids).any()
        assert rounds == []
        assert 0 < hash_keep(3, ids, 0.5).sum() < ids.shape[0]
        assert rounds == [_HASH_BLOCK] * 3


def test_a_keep_mask_costs_no_temporary_of_input_length():
    """What a catalog thin hit runs over the stored sample's lineage:
    beyond the mask (1 B/row) the peak stays under 2 B/row — the
    whole-array expression held 8 B/row several times over."""
    ids = np.arange(1_000_000, dtype=np.int64)
    sampler = LineageHashBernoulli(0.5, seed=11)
    tracemalloc.start()
    try:
        mask = sampler.keep(ids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - mask.nbytes < 2 * ids.shape[0]

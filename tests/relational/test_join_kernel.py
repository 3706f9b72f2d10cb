"""The pipeline's join build emits the reference join's index pairs.

``executor.join_indices`` (stable sort + ``searchsorted``) is the
reference the pipeline no longer shares a kernel with on integer keys:
``pipeline._join_build`` addresses a compact integer span directly and
keeps the sorted build for everything else.  Either way the ``(li, ri)``
arrays must be the reference's, element for element (``li`` may come
back as a ``slice`` of build rows).  Which build is taken may depend on
the key dtypes and the build span only; which path an addressed build's
probe takes may also depend on whether the probe chunk's keys strictly
ascend (a scanned primary key) over a bounded span.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.executor import join_codes, join_indices
from repro.relational.pipeline import (
    _AddressedJoinBuild,
    _SortedJoinBuild,
    _join_build,
)


def pairs(build, probe_keys):
    """``build.probe``'s pairs, a ``slice`` of build rows spelled out."""
    li, ri = build.probe(probe_keys)
    if isinstance(li, slice):
        assert li.step is None and 0 <= li.start <= li.stop
        assert li.stop - li.start == ri.shape[0]
        li = np.arange(li.start, li.stop, dtype=np.int64)
    assert li.dtype == ri.dtype == np.int64
    return li, ri


def assert_reference_pairs(build_keys, probe_keys, expect=None):
    build = _join_build(build_keys, probe_keys.dtype)
    if expect is not None:
        assert type(build) is expect
    want_li, want_ri = join_indices(build_keys, probe_keys)
    li, ri = pairs(build, probe_keys)
    assert np.array_equal(li, want_li) and np.array_equal(ri, want_ri)
    # Chunked probing concatenates to the whole probe.
    cut = probe_keys.shape[0] // 2
    head = pairs(build, probe_keys[:cut])
    tail = pairs(build, probe_keys[cut:])
    assert np.array_equal(np.concatenate([head[0], tail[0]]), want_li)
    assert np.array_equal(np.concatenate([head[1], tail[1] + cut]), want_ri)
    return build


@st.composite
def integer_sides(draw):
    """Build and probe keys over a chosen span, anywhere in int64."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_build = draw(st.sampled_from([0, 1, 7, 300]))
    n_probe = draw(st.sampled_from([0, 1, 9, 400]))
    span = draw(st.sampled_from([1, 4, 250, 65_536, 65_537, 300_000]))
    lo = draw(
        st.sampled_from([-(2**63), -1_000, 0, 17, 2**40, 2**63 - 300_000])
    )
    build = lo + rng.integers(0, span, n_build)
    # Probes reach past both ends of the span where int64 has room.
    probe = np.clip(
        lo + rng.integers(-3, span + 3, n_probe).astype(object),
        -(2**63),
        2**63 - 1,
    ).astype(np.int64)
    if draw(st.booleans()):
        build = np.sort(build)
    return build.astype(np.int64), probe


class TestAddressedBuild:
    @settings(max_examples=150, deadline=None)
    @given(integer_sides())
    def test_random_integer_keys_join_like_the_reference(self, sides):
        build_keys, probe_keys = sides
        build = assert_reference_pairs(build_keys, probe_keys)
        if build_keys.shape[0] and np.ptp(build_keys.astype(object)) < 65_536:
            assert type(build) is _AddressedJoinBuild

    def test_key_ordered_build_keeps_no_row_order(self):
        keys = np.repeat(np.arange(50, dtype=np.int64), 3)
        build = assert_reference_pairs(
            keys, np.arange(-2, 60, dtype=np.int64), _AddressedJoinBuild
        )
        assert build._positions is None
        shuffled = np.random.default_rng(0).permutation(keys)
        build = assert_reference_pairs(
            shuffled, np.arange(-2, 60, dtype=np.int64), _AddressedJoinBuild
        )
        assert build._positions is not None

    def test_distinct_build_keys_need_no_expansion(self):
        keys = np.random.default_rng(1).permutation(200).astype(np.int64)
        build = assert_reference_pairs(
            keys,
            np.random.default_rng(2).integers(-10, 220, 500),
            _AddressedJoinBuild,
        )
        assert build.path == "distinct"

    @pytest.mark.parametrize("span", [65_536, 65_537, 1 << 20])
    def test_wide_spans_sort_in_16_bit_digits(self, span):
        rng = np.random.default_rng(span)
        keys = rng.integers(0, span, span // 3) - 12_345
        keys[:2] = (-12_345, span - 1 - 12_345)  # the whole span is used
        assert_reference_pairs(
            keys, rng.integers(-20_000, span, 5_000), _AddressedJoinBuild
        )

    def test_bool_and_mixed_width_integers(self):
        flags = np.array([True, False, True, True])
        assert_reference_pairs(
            flags, np.array([1, 0, 2, -1, 1], dtype=np.int8), _AddressedJoinBuild
        )
        assert_reference_pairs(
            np.array([3, 1, 2, 3], dtype=np.int32),
            np.array([1, 3, 70_000], dtype=np.uint32),
            _AddressedJoinBuild,
        )
        assert_reference_pairs(
            np.array([0, 1, 1], dtype=np.uint8), flags, _AddressedJoinBuild
        )

    def test_joint_codes_of_string_and_two_column_keys_are_addressed(self):
        left = [
            np.array(["b", "a", "c", "a"], dtype=object),
            np.array([1, 2, 1, 2], dtype=np.int64),
        ]
        right = [
            np.array(["a", "a", "z", "b"], dtype=object),
            np.array([2, 1, 1, 1], dtype=np.int64),
        ]
        assert_reference_pairs(*join_codes(left, right), _AddressedJoinBuild)
        assert_reference_pairs(
            *join_codes(left[:1], right[:1]), _AddressedJoinBuild
        )


class TestSortedFallback:
    """Same pairs; reached through dtype and span alone."""

    def test_float_and_nan_keys(self):
        assert_reference_pairs(
            np.array([3.0, np.nan, 2.0, 3.0]),
            np.array([np.nan, 2.0, 7.0, 3.0]),
            _SortedJoinBuild,
        )

    def test_integer_against_float(self):
        assert_reference_pairs(
            np.array([3, 1, 2]), np.array([1.0, 2.5, 3.0]), _SortedJoinBuild
        )
        assert_reference_pairs(
            np.array([3.0, 1.0, 2.0]), np.array([1, 2, 5]), _SortedJoinBuild
        )

    def test_uint64_beyond_int64(self):
        big = np.array([2**63 + 5, 1, 2**63 + 5, 7], dtype=np.uint64)
        probe = np.array([7, 2**63 + 5, 2**64 - 1], dtype=np.uint64)
        assert_reference_pairs(big, probe, _SortedJoinBuild)

    def test_sparse_span(self):
        keys = np.array([5, 10**12, 5, -(10**12)], dtype=np.int64)
        assert_reference_pairs(
            keys, np.array([5, 10**12, 6], dtype=np.int64), _SortedJoinBuild
        )

    def test_the_span_rule_is_the_only_switch(self):
        n = 1_000
        dense = np.arange(n, dtype=np.int64) * 4
        assert type(_join_build(dense, dense.dtype)) is _AddressedJoinBuild
        sparse = dense.copy()
        sparse[-1] = 4 * n + (1 << 16)  # one key past the allowed span
        assert type(_join_build(sparse, dense.dtype)) is _SortedJoinBuild
        sparse[-1] -= 1
        assert type(_join_build(sparse, dense.dtype)) is _AddressedJoinBuild


def _within_int64(values) -> np.ndarray:
    """Python-int values clipped into int64."""
    return np.clip(
        np.asarray(values, dtype=object), -(2**63), 2**63 - 1
    ).astype(np.int64)


@st.composite
def ascending_sides(draw):
    """An addressed build and a strictly ascending probe (a scanned key).

    The probe may stray below ``lo`` and past ``lo + span``, sit at the
    ends of int64, have 0 or 1 rows, or spread its keys far past the
    bound the ascending path allows itself.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.sampled_from([1, 5, 250, 65_536, 66_000]))
    lo = draw(st.sampled_from([-(2**63), -77, 0, 2**40, 2**63 - 70_000]))
    n_build = draw(st.sampled_from([1, 2, 60, 300]))
    order = draw(st.sampled_from(["ordered", "unordered", "distinct"]))
    if order == "distinct":
        offsets = rng.permutation(span)[:n_build]
    else:
        offsets = rng.integers(0, span, n_build)
        if order == "ordered":
            offsets = np.sort(offsets)
    build = _within_int64([lo + int(o) for o in offsets])
    n_probe = draw(st.sampled_from([0, 1, 2, 9, 400]))
    spread = draw(st.sampled_from([1, 3, 1_000, 2**40]))
    probe = np.unique(
        _within_int64(
            [lo + int(o) * spread for o in rng.integers(-3, span + 3, n_probe)]
        )
    )
    return build, probe


def assert_chunked_pairs(build_keys, probe_keys, cuts):
    """Every chunk between ``cuts`` matches like the reference."""
    build = _join_build(build_keys, probe_keys.dtype)
    want_li, want_ri = join_indices(build_keys, probe_keys)
    bounds = [0, *sorted(cuts), probe_keys.shape[0]]
    got_li, got_ri = [], []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        chunk = probe_keys[start:stop]
        li, ri = pairs(build, chunk)
        want = join_indices(build_keys, chunk)
        assert np.array_equal(li, want[0]) and np.array_equal(ri, want[1])
        m = chunk.shape[0]
        if m and type(build) is _AddressedJoinBuild:
            first, last = int(chunk[0]), int(chunk[-1])
            assert (build.path == "ascending") == (
                last - first < 4 * m + (1 << 16)
            )
        got_li.append(li)
        got_ri.append(ri + start)
    assert np.array_equal(np.concatenate(got_li), want_li)
    assert np.array_equal(np.concatenate(got_ri), want_ri)
    return build


class TestAscendingProbe:
    """Strictly ascending probe chunks walk the build in key order."""

    @settings(max_examples=200, deadline=None)
    @given(ascending_sides(), st.lists(st.integers(0, 400), max_size=3))
    def test_pairs_are_the_reference_and_chunks_concatenate(
        self, sides, cuts
    ):
        build_keys, probe_keys = sides
        cuts = [min(c, probe_keys.shape[0]) for c in cuts]
        build = assert_chunked_pairs(build_keys, probe_keys, cuts)
        n = build_keys.shape[0]
        if np.ptp(build_keys.astype(object)) < 4 * n + (1 << 16):
            assert type(build) is _AddressedJoinBuild

    @pytest.mark.parametrize("order", ["ordered", "unordered", "distinct"])
    def test_strays_on_both_sides_and_one_row_chunks(self, order):
        rng = np.random.default_rng(5)
        keys = {
            "ordered": np.repeat(np.arange(10, 40, dtype=np.int64), 3),
            "unordered": rng.integers(10, 40, 90),
            "distinct": rng.permutation(np.arange(10, 40, dtype=np.int64)),
        }[order]
        probe = np.array([-5, 0, 9, 10, 11, 25, 39, 40, 41, 500])
        assert_chunked_pairs(keys, probe, list(range(1, 10)))
        assert_chunked_pairs(keys, probe, [])
        assert_chunked_pairs(keys, probe[:0], [])

    def test_int64_extremes(self):
        top, bottom = 2**63 - 1, -(2**63)
        keys = np.array([bottom, bottom, bottom + 2, top - 1, top, top])
        probe = np.array([bottom, bottom + 1, bottom + 2], dtype=np.int64)
        assert type(_join_build(keys, probe.dtype)) is _SortedJoinBuild
        for lo in (bottom, top - 9):
            keys = lo + np.array([0, 0, 3, 9, 9, 9], dtype=np.int64)
            probe = lo + np.arange(10, dtype=np.int64)
            build = assert_chunked_pairs(keys, probe, [1, 4])
            assert build.path == "ascending"

    def test_sparse_probe_span_falls_back_to_the_count_table(self):
        keys = np.repeat(np.arange(100, dtype=np.int64), 2)
        probe = np.array([0, 7, 99, 10**9], dtype=np.int64)
        build = assert_chunked_pairs(keys, probe, [])
        assert build.path == "expanded"
        build = assert_chunked_pairs(keys, probe, [3])
        assert build.path == "ascending"  # the last chunk: one key

    def test_a_whole_matched_run_of_an_ordered_build_is_a_slice(self):
        keys = np.repeat(np.arange(100, dtype=np.int64), 2)
        build = _join_build(keys, keys.dtype)
        li, ri = build.probe(np.arange(20, 30, dtype=np.int64))
        assert li == slice(40, 60)
        assert np.array_equal(ri, np.repeat(np.arange(10), 2))
        li, _ = build.probe(np.arange(20, 30, 2, dtype=np.int64))
        assert isinstance(li, np.ndarray)  # keys 21, 23, … are dropped

    def test_bool_and_narrow_integer_dtypes(self):
        flags = np.array([False, True, True, False, True])
        assert_chunked_pairs(flags, np.array([False, True]), [1])
        assert_chunked_pairs(flags, np.array([-1, 0, 1, 2], np.int8), [2])
        for dtype in (np.int8, np.uint8, np.int16, np.uint16, np.uint32):
            keys = np.array([3, 1, 2, 3, 7, 7], dtype=dtype)
            probe = np.arange(0, 9, dtype=dtype)
            build = assert_chunked_pairs(keys, probe, [4])
            assert build.path == "ascending"
            assert_chunked_pairs(np.sort(keys), probe[::2], [])


def test_a_sparse_ascending_probe_allocates_nothing_by_its_key_span():
    """Keys ``0`` and ``2**40``: a lookup over that span would be 8 TiB.

    The ascending path sizes its lookup by the chunk's key span only
    within ``4·m + 65 536``; past that the chunk goes through the count
    table, which the build's span bounds.
    """
    keys = np.repeat(np.arange(1_000, dtype=np.int64), 3)
    build = _join_build(keys, keys.dtype)
    probe = np.array([0, 2**40], dtype=np.int64)
    build.probe(probe)  # the count table is built once, on first use
    tracemalloc.start()
    try:
        li, ri = build.probe(probe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build.path == "expanded"
    assert np.array_equal(li, [0, 1, 2]) and np.array_equal(ri, [0, 0, 0])
    assert peak < 64 * 1024, peak

"""The pipeline's join build emits the reference join's index pairs.

``executor.join_indices`` (stable sort + ``searchsorted``) is the
reference the pipeline no longer shares a kernel with on integer keys:
``pipeline._join_build`` addresses a compact integer span directly and
keeps the sorted build for everything else.  Either way the ``(li, ri)``
arrays must be the reference's, element for element, and which build is
taken may depend on the key dtypes and the build span only.
"""

from __future__ import annotations

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


def assert_reference_pairs(build_keys, probe_keys, expect=None):
    build = _join_build(build_keys, probe_keys.dtype)
    if expect is not None:
        assert type(build) is expect
    want_li, want_ri = join_indices(build_keys, probe_keys)
    li, ri = build.probe(probe_keys)
    assert li.dtype == ri.dtype == np.int64
    assert np.array_equal(li, want_li) and np.array_equal(ri, want_ri)
    # Chunked probing concatenates to the whole probe.
    cut = probe_keys.shape[0] // 2
    head, tail = build.probe(probe_keys[:cut]), build.probe(probe_keys[cut:])
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
        assert build._distinct

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

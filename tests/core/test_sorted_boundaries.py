"""``kernels.sorted_boundaries`` equals a ``np.lexsort`` reference.

A stable order is unique for given keys, so however the packed int64
key is sorted — not at all, by merging its ascending runs or by 16-bit
radix passes — ``order`` and ``boundary`` must be exactly what the
multi-column lexsort gives.  The property covers sorted, few-run,
random and all-equal keys; one to three columns of 0 to 63 bits each
(wider combinations take the lexsort path itself); negative ``int64``
keys and ``uint64`` keys on both sides of 2⁶³; and row counts around
the 16-bit digit.  The counting tests pin which sort runs, and the
zero-row tests the three public kernels' empty results.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels

WIDTHS = (0, 16, 17, 32, 33, 48, 63)
ROWS = (0, 1, 2, 65_535, 65_537)


def reference(columns, n_rows):
    order = np.lexsort(tuple(columns))
    boundary = np.zeros(n_rows, dtype=bool)
    boundary[:1] = True
    for col in columns:
        ordered = col[order]
        boundary[1:] |= ordered[1:] != ordered[:-1]
    return order, boundary


def _column(rng, n, width, dtype):
    """``n`` values spanning exactly ``width`` bits (once ``n >= 2``)."""
    offsets = rng.integers(0, 1 << width, n, dtype=np.uint64, endpoint=False)
    offsets[:2] = [0, (1 << width) - 1][:n]
    if dtype == np.int64:
        lo = -(1 << 62)  # negative keys; lo + 2**63 - 1 still fits
    else:
        lo = (1 << 63) - (1 << max(width - 1, 0))  # straddles 2**63
    with np.errstate(over="ignore"):
        values = offsets + np.uint64(lo % (1 << 64))
    return values.view(np.int64) if dtype == np.int64 else values


@st.composite
def keys(draw):
    n = draw(st.sampled_from(ROWS) | st.integers(0, 40))
    widths = draw(st.lists(st.sampled_from(WIDTHS), min_size=1, max_size=3))
    dtype = draw(st.sampled_from([np.int64, np.uint64]))
    shape = draw(st.sampled_from(["sorted", "few-runs", "random", "equal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = [_column(rng, n, w, dtype) for w in widths]
    if shape == "equal":
        columns = [np.full(n, col[0] if n else 0, dtype=col.dtype) for col in columns]
    elif shape != "random":
        runs = 1 if shape == "sorted" else draw(st.integers(2, 5))
        parts = np.array_split(np.arange(n), runs)
        rows = np.concatenate(
            [part[np.lexsort([col[part] for col in columns])] for part in parts]
        ).astype(np.int64)
        columns = [col[rows] for col in columns]
    return columns, n


@settings(max_examples=80, deadline=None)
@given(keys())
def test_equals_the_lexsort_reference(case):
    columns, n = case
    order, boundary = kernels.sorted_boundaries(columns, n)
    want_order, want_boundary = reference(columns, n)
    assert order.dtype == np.int64 and boundary.dtype == bool
    assert np.array_equal(order, want_order)
    assert np.array_equal(boundary, want_boundary)


@pytest.fixture
def argsorts(monkeypatch) -> list[np.dtype]:
    """The dtype of every key ``np.argsort`` is handed."""
    seen: list[np.dtype] = []
    real = np.argsort

    def counting(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    return seen


def test_ascending_keys_sort_nothing(argsorts):
    key = np.repeat(np.arange(0, 40_000, 3), 2)
    order, boundary = kernels.sorted_boundaries([key], key.shape[0])
    assert argsorts == []
    assert np.array_equal(order, np.arange(key.shape[0]))
    assert boundary.sum() == key.shape[0] // 2


def test_two_runs_take_one_merging_argsort(argsorts):
    hi = np.arange(0, 60_000, 2)
    lo = np.arange(1, 60_000, 2)
    key = np.concatenate([hi, lo])
    order, _ = kernels.sorted_boundaries([key], key.shape[0])
    assert argsorts == [np.dtype(np.int64)]
    assert np.array_equal(key[order], np.arange(60_000))


def test_a_scrambled_key_takes_uint16_radix_passes(argsorts):
    key = np.random.default_rng(3).permutation(52_000) * 37
    kernels.sorted_boundaries([key], key.shape[0])
    assert argsorts == [np.dtype(np.uint16)] * 2  # 21 bits: two digits


def test_zero_rows_give_empty_results():
    empty = np.empty(0, dtype=np.int64)
    assert kernels.pack_columns([empty], 0).shape == (0,)
    ids, present = kernels.count_ranks([empty, empty.astype(np.uint64)], 0)
    assert ids.shape == (0,)
    assert [c.dtype for c in present] == [np.int64, np.uint64]
    assert all(c.shape == (0,) for c in present)
    for columns in ([empty], [np.empty(0)]):
        order, boundary = kernels.sorted_boundaries(columns, 0)
        assert order.shape == boundary.shape == (0,)

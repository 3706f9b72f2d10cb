"""Hot-path kernels: lineage hashing, key packing, group reduction.

Profiling the chunked pipeline keeps naming three kernels: the
lineage-hash Bernoulli draw, multi-key join factorization, and the
per-group weight reduction behind every moment computation.  Each is
one vectorized numpy routine — branch-free SplitMix64 over uint64
arrays, radix-packed multi-key sort, ``np.bincount`` group sums — so
the float addition order, and with it every estimate, variance and CI
downstream, has a single definition.  The lineage hash runs block by
block with its rounds applied in place, so it stays in cache and
allocates nothing that grows with the input: :func:`hash01` converts
each block to uniforms, and :func:`hash_keep` — what every lineage
filter calls — compares the 64-bit hash itself against the integer
threshold that stands for the rate, the same decisions as
``hash01 < p`` without the floats.  String keys enter that integer
world through one door, :func:`factorize`; keys that pack into a small
domain are ranked by counting (:func:`count_ranks`) and a key column
that is already sorted and distinct skips the sort altogether
(:func:`strictly_increasing`), with the same bits out.

The per-row ``hashlib.blake2b`` reference implementation is kept for
the committed micro-benchmark (``benchmarks/bench_colstore.py``): it is
what a naive cryptographic-hash draw costs, and what SplitMix64 is
measured against.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator, Sequence

import numpy as np

__all__ = [
    "jit_active",
    "hash01",
    "hash_keep",
    "hash01_blake2b",
    "factorize",
    "pack_columns",
    "count_ranks",
    "sorted_boundaries",
    "strictly_increasing",
    "group_sums",
]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)
_INV_2_64 = 1.0 / float(2**64)

#: Ids hashed per block: three block-sized uint64 arrays (ids, hash,
#: temporary) stay inside the L2 cache; 8 192…65 536 read within 10 %.
_HASH_BLOCK = 1 << 14


def jit_active() -> bool:
    """Always ``False`` (no compiled variants); the e2e benchmark reads it."""
    return False


# -- lineage hash ----------------------------------------------------------


def _finalize(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: two xor-shift-multiply rounds."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _finalize_inplace(z: np.ndarray, t: np.ndarray) -> None:
    """:func:`_finalize` over ``z`` in place, ``t`` the one temporary."""
    for shift, mix in ((_SHIFT1, _MIX1), (_SHIFT2, _MIX2)):
        np.right_shift(z, shift, out=t)
        np.bitwise_xor(z, t, out=z)
        np.multiply(z, mix, out=z)
    np.right_shift(z, _SHIFT3, out=t)
    np.bitwise_xor(z, t, out=z)


def _hashed_blocks(
    seed: int, ids: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(start, stop, z)`` per block of the flattened ``ids``: the hashes.

    ``z`` is scratch that the next block overwrites.  Both scratch
    arrays are block-sized and allocated per call — never module state:
    served worker threads hash concurrently — so the
    whole hash runs in cache and no temporary grows with the input.
    Ids that are not already 64-bit integers are cast block by block.
    """
    with np.errstate(over="ignore"):
        seed_mix = _finalize(np.uint64(seed % (2**64)) * _GAMMA + _GAMMA)
    ids = ids.reshape(-1)
    n = ids.shape[0]
    z = np.empty(min(n, _HASH_BLOCK), dtype=np.uint64)
    t = np.empty_like(z)
    for start in range(0, n, _HASH_BLOCK):
        stop = min(start + _HASH_BLOCK, n)
        block = ids[start:stop]
        zb, tb = z[: stop - start], t[: stop - start]
        if block.dtype == np.int64 or block.dtype == np.uint64:
            np.multiply(block.view(np.uint64), _GAMMA, out=zb)
        else:
            np.copyto(zb, block, casting="unsafe")
            np.multiply(zb, _GAMMA, out=zb)
        np.bitwise_xor(zb, seed_mix, out=zb)
        _finalize_inplace(zb, tb)
        yield start, stop, zb


def hash01(seed: int, ids: np.ndarray) -> np.ndarray:
    """Map ``(seed, id)`` pairs to deterministic uniforms in ``[0, 1]``.

    The seed is finalized *before* being combined with the id stream:
    a plain additive combination would make ``hash01(s, i)`` a function
    of ``s + i`` only, perfectly correlating filters with nearby seeds
    at shifted ids — a real bias source for multi-stream sampling.

    The uniform is the 64-bit hash ``z`` converted to float64 and scaled
    by 2⁻⁶⁴; the conversion rounds to nearest, so ``z ≥ 2⁶⁴ − 1024``
    (probability 2⁻⁵⁴) yields exactly 1.0.  A keep decision never needs
    the float: see :func:`hash_keep`.
    """
    ids = np.asarray(ids)
    out = np.empty(ids.size, dtype=np.float64)
    for start, stop, z in _hashed_blocks(seed, ids):
        np.multiply(z, _INV_2_64, out=out[start:stop])
    return out.reshape(ids.shape)


def _keep_threshold(p: float) -> int:
    """Smallest integer ``z`` whose uniform ``float(z) · 2⁻⁶⁴`` is ``≥ p``.

    Round-to-nearest conversion is monotone in ``z``, so for every hash
    ``z < threshold`` exactly when ``hash01 < p``; requires ``0 < p < 1``.
    """
    lo, hi = 0, 2**64  # uniform(lo) < p <= uniform(hi) = 1.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if float(mid) * _INV_2_64 >= p:
            hi = mid
        else:
            lo = mid
    return hi


def hash_keep(seed: int, ids: np.ndarray, p: float) -> np.ndarray:
    """The Bernoulli(``p``) keep-mask of lineage ids: ``hash01 < p``.

    Decided on the integer hash against :func:`_keep_threshold`, block
    by block, so no float and no input-sized temporary is ever made.
    ``p ≥ 1`` keeps every id and ``p ≤ 0`` none without hashing — rate
    1 means *everything*, including the ids whose uniform rounds to 1.0.
    """
    ids = np.asarray(ids)
    if p >= 1.0:
        return np.ones(ids.shape, dtype=bool)
    if not p > 0.0:
        return np.zeros(ids.shape, dtype=bool)
    threshold = np.uint64(_keep_threshold(p))
    mask = np.empty(ids.size, dtype=bool)
    for start, stop, z in _hashed_blocks(seed, ids):
        np.less(z, threshold, out=mask[start:stop])
    return mask.reshape(ids.shape)


def hash01_blake2b(seed: int, ids: np.ndarray) -> np.ndarray:
    """Per-row blake2b reference draw (micro-benchmark baseline only).

    One 8-byte digest per row through :mod:`hashlib` — cryptographic
    strength the sampler does not need, at per-row Python cost the hot
    path cannot afford.  Kept so the committed benchmark measures the
    SplitMix64 kernel against a real alternative.
    """
    ids_u64 = np.asarray(ids, dtype=np.uint64)
    out = np.empty(ids_u64.shape[0], dtype=np.float64)
    prefix = int(seed % (2**64)).to_bytes(8, "little")
    for i, value in enumerate(ids_u64.tolist()):
        digest = hashlib.blake2b(
            prefix + value.to_bytes(8, "little"), digest_size=8
        ).digest()
        out[i] = int.from_bytes(digest, "little") * _INV_2_64
    return out


# -- multi-key factorization ----------------------------------------------


def factorize(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dictionary-encode an object/string column: ``(codes, values)``.

    ``values`` holds the column's distinct values in sorted order
    (``None``, SQL's NULL, first) and ``codes[i]`` is the int32 rank of
    ``column[i]`` among them, so ``values[codes]`` is the column and the
    codes group and order rows exactly as a comparison sort of the
    values would — but only the *distinct* values are ever compared: one
    hashing pass finds them, they alone are sorted, and a second pass
    looks every row's rank up.  This is the one place string keys become
    integers; everything downstream (:func:`pack_columns`, the radix
    sort, :func:`count_ranks`) sees integers.

    Unhashable values, and distinct non-``None`` values that do not
    order against each other (``str`` vs ``int``), raise ``TypeError``.
    """
    rows = np.asarray(column).tolist()
    distinct = set(rows)
    nulls = [None] if None in distinct else []
    distinct.discard(None)
    ordered = nulls + sorted(distinct)
    rank = dict(zip(ordered, range(len(ordered))))
    codes = np.fromiter(
        map(rank.__getitem__, rows), dtype=np.int32, count=len(rows)
    )
    values = np.empty(len(ordered), dtype=object)
    values[:] = ordered
    return codes, values


def _key_parts(
    columns: Sequence[np.ndarray],
) -> tuple[list[tuple[np.ndarray, int, int]], int] | None:
    """``(column, minimum, bits)`` per integer key column and the total
    bits, or ``None`` when a column is non-integer or 63 bits overflow."""
    parts: list[tuple[np.ndarray, int, int]] = []
    total_bits = 0
    for col in columns:
        col = np.asarray(col)
        if not np.issubdtype(col.dtype, np.integer):
            return None
        lo = int(col.min())
        bits = (int(col.max()) - lo).bit_length()
        parts.append((col, lo, bits))
        total_bits += bits
        if total_bits > 63:
            return None
    return parts, total_bits


def _pack(parts: list[tuple[np.ndarray, int, int]], n_rows: int) -> np.ndarray:
    packed = np.zeros(n_rows, dtype=np.int64)
    shift = 0
    for col, lo, bits in parts:
        if bits:
            # Offsets are computed modulo 2^64: casting any int64/uint64
            # value to uint64 and subtracting the (wrapped) minimum
            # yields the true offset for spans up to 63 bits, without
            # the int64 overflow a direct `col - lo` would hit on
            # uint64 ids >= 2^63 or ranges crossing 2^62.
            wrapped_lo = np.uint64(lo % (1 << 64))
            with np.errstate(over="ignore"):
                offset = (col.astype(np.uint64) - wrapped_lo).astype(
                    np.int64
                )
            packed |= offset << shift
            shift += bits
    return packed


def pack_columns(
    columns: Sequence[np.ndarray], n_rows: int
) -> np.ndarray | None:
    """Pack integer key columns into one int64 key, order-preserving.

    The fused multi-key factorization kernel: the packed key reproduces
    ``np.lexsort``'s ordering exactly (last column primary, so it
    occupies the most significant bits); sorting one int64 array uses
    numpy's radix path and is several times faster than a multi-column
    lexsort.  Returns ``None`` when a column is non-integer or the
    combined value ranges exceed 63 bits — callers fall back to
    lexsort.
    """
    keyed = _key_parts(columns)
    return None if keyed is None else _pack(keyed[0], n_rows)


#: Packed key domains up to this size are ranked by counting whatever
#: the row count (a histogram this small costs less than any sort).
_SMALL_DOMAIN = 1 << 10


def count_ranks(
    columns: Sequence[np.ndarray], n_rows: int
) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """Dense group ids in key order by counting instead of sorting.

    For integer key columns whose packed domain is no larger than the
    row count (dictionary codes of a GROUP BY are a handful of values):
    one histogram over the packed key marks the key tuples present,
    their running count is each tuple's rank, and one gather ranks
    every row — the ids a stable sort of the rows would assign
    (:func:`sorted_boundaries`), in O(rows + domain).  Returns ``(ids,
    key columns)``, the key columns holding each present tuple once in
    rank order, or ``None`` when the columns do not pack that small.
    """
    keyed = _key_parts(columns)
    if keyed is None:
        return None
    parts, total_bits = keyed
    domain = 1 << total_bits
    if domain > max(n_rows, _SMALL_DOMAIN):
        return None
    packed = _pack(parts, n_rows)
    present = np.flatnonzero(np.bincount(packed, minlength=domain))
    rank = np.zeros(domain, dtype=np.int64)
    rank[present] = np.arange(present.shape[0])
    keys = []
    shift = 0
    for col, lo, bits in parts:
        offset = (present >> shift) & ((1 << bits) - 1)
        shift += bits
        with np.errstate(over="ignore"):
            keys.append(
                (offset.astype(np.uint64) + np.uint64(lo % (1 << 64))).astype(
                    col.dtype
                )
            )
    return rank[packed], keys


def sorted_boundaries(
    columns: Sequence[np.ndarray], n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sort rows by key and mark where a new key starts.

    Returns ``(order, boundary)``: ``order`` sorts the rows by key and
    ``boundary[i]`` is True when sorted row ``i`` opens a new group.
    The single sort here is the workhorse behind both ``group_ids``
    and ``group_reduce``; integer keys take the packed single-array
    radix path, everything else the general lexsort (``group_ids``
    hands string columns over as dictionary codes, so they take the
    first).
    """
    packed = pack_columns(columns, n_rows)
    if packed is not None:
        order = np.argsort(packed, kind="stable")
        sorted_packed = packed[order]
        boundary = np.empty(n_rows, dtype=bool)
        boundary[0] = True
        boundary[1:] = sorted_packed[1:] != sorted_packed[:-1]
        return order, boundary
    order = np.lexsort(tuple(columns))
    boundary = np.zeros(n_rows, dtype=bool)
    boundary[0] = True
    for col in columns:
        sorted_col = col[order]
        boundary[1:] |= sorted_col[1:] != sorted_col[:-1]
    return order, boundary


def strictly_increasing(column: np.ndarray) -> bool:
    """Whether an integer key column is already sorted with no repeats.

    One comparison pass, a fraction of the sort it rules out: when it
    holds, :func:`sorted_boundaries` would return the identity order
    with every row opening a group of its own.  Lineage ids of a
    tuple-level single-relation sample in scan order qualify, and so do
    the concatenated keys of consecutive chunks of one.
    """
    col = np.asarray(column)
    return col.dtype.kind in "iu" and bool(np.all(col[1:] > col[:-1]))


# -- group reduction -------------------------------------------------------


def group_sums(
    gids_sorted: np.ndarray, weights_sorted: np.ndarray, n_groups: int
) -> np.ndarray:
    """Single-pass per-group weight sums over pre-sorted dense ids.

    ``np.bincount`` accumulates in row order over the sorted input,
    which fixes the float addition order — and with it the bit pattern
    of every downstream moment.
    """
    return np.bincount(
        gids_sorted, weights=weights_sorted, minlength=n_groups
    )


"""Subset-lattice machinery used throughout the GUS algebra.

A GUS method over a lineage schema ``L`` carries one coefficient ``b_T``
per subset ``T ⊆ L``.  This module provides a compact bitmask
representation of that lattice together with the transform the theory
needs, the **Möbius transform**
``(µv)[S] = Σ_{T ⊆ S} (−1)^{|S|−|T|} v[T]`` — the inverse of the zeta
transform ``(ζv)[S] = Σ_{T ⊆ S} v[T]`` on the subset lattice.
Theorem 1's variance coefficients are exactly ``c = µ(b)``, and the
unbiasing coefficients ``κ_{S,T}`` are Möbius transforms of ``b``
restricted to the sub-lattice above ``S`` (see :func:`kappa`).

Vectors over the lattice are numpy arrays of length ``2**n`` indexed by
bitmask; bit ``i`` corresponds to ``lattice.dims[i]``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

import numpy as np

from repro.errors import LatticeError

#: Largest supported lineage schema.  2**16 lattice cells is already far
#: beyond any realistic query (the paper's largest example has 4).
MAX_DIMS = 16

#: Largest arity for which the transforms use a memoized dense matrix.
#: At ``n = 8`` each matrix is 256×256 (0.5 MB); beyond that the
#: per-axis sweep wins on memory and the matmul stops being faster.
MATRIX_MAX_DIMS = 8


class SubsetLattice:
    """An ordered set of dimension names with bitmask subset encoding.

    The dimension order is canonical (sorted) so that two lattices over
    the same names are interchangeable, which makes GUS parameter
    objects comparable across independently-derived plans.
    """

    __slots__ = ("dims", "_index")

    def __init__(self, dims: Iterable[str]) -> None:
        ordered = tuple(sorted(set(dims)))
        if len(ordered) > MAX_DIMS:
            raise LatticeError(
                f"lineage schema has {len(ordered)} relations; "
                f"at most {MAX_DIMS} are supported"
            )
        self.dims: tuple[str, ...] = ordered
        self._index: dict[str, int] = {d: i for i, d in enumerate(ordered)}

    # -- basic geometry -------------------------------------------------

    @property
    def n(self) -> int:
        """Number of dimensions (base relations in the lineage schema)."""
        return len(self.dims)

    @property
    def size(self) -> int:
        """Number of lattice cells, ``2**n``."""
        return 1 << self.n

    @property
    def full_mask(self) -> int:
        """Bitmask of the complete dimension set."""
        return self.size - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SubsetLattice) and self.dims == other.dims

    def __hash__(self) -> int:
        return hash(self.dims)

    def __repr__(self) -> str:
        return f"SubsetLattice({list(self.dims)!r})"

    # -- mask <-> name-set conversion ------------------------------------

    def mask_of(self, subset: Iterable[str]) -> int:
        """Return the bitmask for a collection of dimension names."""
        mask = 0
        for name in subset:
            try:
                mask |= 1 << self._index[name]
            except KeyError:
                raise LatticeError(
                    f"dimension {name!r} not in lattice {self.dims}"
                ) from None
        return mask

    def set_of(self, mask: int) -> frozenset[str]:
        """Return the dimension names encoded by ``mask``."""
        if not 0 <= mask < self.size:
            raise LatticeError(f"mask {mask} out of range for {self!r}")
        return frozenset(d for i, d in enumerate(self.dims) if mask >> i & 1)

    def masks(self) -> range:
        """All cell masks, in increasing numeric order."""
        return range(self.size)

    def masks_by_descending_size(self) -> list[int]:
        """All cell masks ordered from the full set down to ``∅``.

        This is the evaluation order of the ``Ŷ_S`` unbiasing recursion,
        which is solved top-down from ``S = L``.
        """
        return sorted(self.masks(), key=lambda m: -_popcount(m))

    def contains(self, other: "SubsetLattice") -> bool:
        """True when every dimension of ``other`` appears in ``self``."""
        return set(other.dims) <= set(self.dims)

    def embed_mask(self, other: "SubsetLattice", mask: int) -> int:
        """Re-encode ``other``'s ``mask`` in this (super-)lattice."""
        return self.mask_of(other.set_of(mask))

    def restrict_mask(self, mask: int, dims: Iterable[str]) -> int:
        """Intersect ``mask`` with the named dimensions (``T ∩ L₁``)."""
        return mask & self.mask_of(dims)


def _popcount(mask: int) -> int:
    return mask.bit_count()


def popcount(mask: int) -> int:
    """Number of dimensions in a subset mask."""
    return mask.bit_count()


def iter_submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask``, including ``0`` and ``mask``.

    Uses the classic descending-submask enumeration, which visits each
    of the ``2**popcount(mask)`` submasks exactly once.
    """
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def validate_vector(lattice: SubsetLattice, vec: Sequence[float]) -> np.ndarray:
    """Coerce ``vec`` to a float array and check it covers the lattice."""
    arr = np.asarray(vec, dtype=np.float64)
    if arr.shape != (lattice.size,):
        raise LatticeError(
            f"vector of shape {arr.shape} does not cover lattice "
            f"of size {lattice.size}"
        )
    return arr


def _mask_popcounts(masks: np.ndarray) -> np.ndarray:
    """Vectorized popcount over an int64 mask array."""
    out = np.zeros(masks.shape, dtype=np.int64)
    work = masks.copy()
    while work.any():
        out += work & 1
        work >>= 1
    return out


@lru_cache(maxsize=MATRIX_MAX_DIMS + 1)
def subset_transform_matrix(n: int) -> np.ndarray:
    """Memoized dense ``2ⁿ×2ⁿ`` Möbius subset-transform matrix.

    ``M[S, T]`` is ``(−1)^{|S|−|T|}`` if ``T ⊆ S`` and zero otherwise.
    Advisor/optimizer scoring evaluates Theorem 1 for hundreds of
    candidate GUS vectors over the *same* lattice arity, so the matrix
    is built once per arity and every transform becomes a single
    matmul.  Returned arrays are read-only — never mutate them.
    """
    size = 1 << n
    s = np.arange(size, dtype=np.int64)[:, None]
    t = np.arange(size, dtype=np.int64)[None, :]
    is_subset = (t & ~s) == 0
    odd = (_mask_popcounts(s ^ t) & 1).astype(bool)
    matrix = np.where(is_subset, np.where(odd, -1.0, 1.0), 0.0)
    matrix.setflags(write=False)
    return matrix


def _sweep(vec: np.ndarray, n: int) -> np.ndarray:
    """Per-axis O(n·2ⁿ) Möbius sweep (fallback for large arities)."""
    out = np.array(vec, dtype=np.float64, copy=True).reshape((2,) * n)
    for axis in range(n):
        hi = [slice(None)] * n
        lo = [slice(None)] * n
        hi[axis], lo[axis] = 1, 0
        out[tuple(hi)] -= out[tuple(lo)]
    return out.reshape(-1)


def mobius_subsets(vec: np.ndarray, n: int) -> np.ndarray:
    """Möbius transform: ``out[S] = Σ_{T⊆S} (−1)^{|S|−|T|} vec[T]``.

    Inverse of the zeta transform ``out[S] = Σ_{T⊆S} vec[T]``.
    Theorem 1's ``c_S`` coefficients are ``mobius_subsets(b)``.  One
    matmul against the memoized per-arity matrix for small ``n``, the
    standard per-axis hypercube sweep beyond :data:`MATRIX_MAX_DIMS`.
    """
    if n <= MATRIX_MAX_DIMS:
        return subset_transform_matrix(n) @ np.asarray(vec, dtype=np.float64)
    return _sweep(vec, n)


def kappa(b: np.ndarray, s_mask: int, t_mask: int) -> float:
    """Unbiasing coefficient ``κ_{S,T} = Σ_{U⊆T} (−1)^{|T|−|U|} b_{S∪U}``.

    Defined for disjoint ``S`` and ``T ⊆ Sᶜ``.  The plug-in moment
    computed on a GUS sample satisfies
    ``E[Y_S] = Σ_{T⊆Sᶜ} κ_{S,T} · y_{S∪T}``, with ``κ_{S,∅} = b_S``;
    inverting that triangular system yields the unbiased ``Ŷ_S``.

    Note: the arXiv text prints the sign as ``(−1)^{|U|+|S|}``; the
    exponent must be ``|T|+|U|`` for Möbius inversion to hold (verified
    by exhaustive enumeration in the test suite).
    """
    if s_mask & t_mask:
        raise LatticeError("kappa requires disjoint S and T masks")
    total = 0.0
    t_size = popcount(t_mask)
    for u in iter_submasks(t_mask):
        sign = -1.0 if (t_size - popcount(u)) % 2 else 1.0
        total += sign * float(b[s_mask | u])
    return total

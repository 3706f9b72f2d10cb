"""GUS (Generalized Uniform Sampling) parameter objects.

A GUS method ``G(a, b̄)`` over a lineage schema ``L`` (Definition 1 of
the paper) is fully described by

* ``a = P[t ∈ sample]`` — the first-order inclusion probability, the
  same for every tuple, and
* ``b_T = P[t, t' ∈ sample | T(t,t') = T]`` for every ``T ⊆ L`` — the
  second-order inclusion probability of a pair of tuples whose lineage
  agrees exactly on the base relations in ``T``.

Consistency requires ``b_L = a``: a "pair" with identical lineage on
every relation *is* a single tuple, so its joint inclusion probability
is ``a`` itself.  :class:`GUSParams` enforces this (and the obvious
range constraints) unless constructed with ``validate=False``, which the
algebra-law tests use to explore the parameter space freely.

The constructors at the bottom of the module implement the paper's
Figure 1 (Bernoulli and without-replacement sampling) plus the identity
and null elements of the GUS semiring.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from functools import lru_cache

import numpy as np

from repro.core.lattice import SubsetLattice, mobius_subsets, validate_vector
from repro.errors import LatticeError, ReproError

#: Numerical slack for probability range / consistency checks.
_TOL = 1e-9


class GUSParams:
    """Immutable parameters ``(a, b̄)`` of a GUS quasi-operator.

    ``b`` is stored as a dense vector over the subset lattice of the
    lineage schema; ``b[mask]`` is ``b_T`` for the subset encoded by
    ``mask`` (see :class:`~repro.core.lattice.SubsetLattice`).  No
    attribute can be set after construction and ``b`` is read-only, so
    one instance may be shared by every caller (:func:`bernoulli_gus`
    hands out memoized ones).
    """

    __slots__ = ("lattice", "a", "b")

    def __init__(
        self,
        lattice: SubsetLattice,
        a: float,
        b: np.ndarray | Iterable[float],
        *,
        validate: bool = True,
    ) -> None:
        arr = validate_vector(lattice, np.asarray(b, dtype=np.float64))
        arr.setflags(write=False)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "b", arr)
        if validate:
            self._check()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"GUSParams is immutable (cannot set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"GUSParams is immutable (cannot delete {name!r})")

    def __reduce__(self):
        # Slot state would be restored by setattr; rebuild instead.
        return (_restore, (self.lattice, self.a, self.b))

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_mapping(
        cls,
        schema: Iterable[str],
        a: float,
        b: Mapping[frozenset[str], float],
        *,
        validate: bool = True,
    ) -> "GUSParams":
        """Build from a ``{subset-of-names: b_T}`` mapping.

        Every subset of the schema must be present; this mirrors how the
        paper writes out ``b̄`` in its examples and keeps tests readable.
        """
        lattice = SubsetLattice(schema)
        vec = np.empty(lattice.size, dtype=np.float64)
        seen = 0
        for subset, value in b.items():
            mask = lattice.mask_of(subset)
            vec[mask] = value
            seen += 1
        if seen != lattice.size:
            raise LatticeError(
                f"b̄ mapping has {seen} entries; lattice needs {lattice.size}"
            )
        return cls(lattice, a, vec, validate=validate)

    def _check(self) -> None:
        if not -_TOL <= self.a <= 1.0 + _TOL:
            raise ReproError(f"a={self.a} is not a probability")
        if np.any(self.b < -_TOL) or np.any(self.b > 1.0 + _TOL):
            raise ReproError("some b_T is not a probability")
        full = float(self.b[self.lattice.full_mask])
        if not math.isclose(full, self.a, rel_tol=1e-6, abs_tol=1e-9):
            raise ReproError(
                f"b_L={full} must equal a={self.a}: a pair of tuples with "
                "identical lineage is a single tuple"
            )

    # -- accessors --------------------------------------------------------

    @property
    def schema(self) -> frozenset[str]:
        """The lineage schema ``L`` as a set of base-relation names."""
        return frozenset(self.lattice.dims)

    def b_of(self, subset: Iterable[str]) -> float:
        """``b_T`` for a subset given by relation names."""
        return float(self.b[self.lattice.mask_of(subset)])

    def b_items(self) -> dict[frozenset[str], float]:
        """The full ``b̄`` as a ``{names: value}`` dict (for display)."""
        return {
            self.lattice.set_of(mask): float(self.b[mask])
            for mask in self.lattice.masks()
        }

    def c_vector(self) -> np.ndarray:
        """Theorem 1 coefficients ``c_S = Σ_{T⊆S} (−1)^{|S|+|T|} b_T``.

        Computed as the Möbius transform of ``b`` over the subset
        lattice (O(n·2ⁿ)).
        """
        return mobius_subsets(self.b, self.lattice.n)

    def approx_equal(self, other: "GUSParams", tol: float = 1e-9) -> bool:
        """Numerical equality of schema, ``a`` and every ``b_T``."""
        return (
            self.lattice == other.lattice
            and math.isclose(self.a, other.a, rel_tol=tol, abs_tol=tol)
            and bool(np.allclose(self.b, other.b, rtol=tol, atol=tol))
        )

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"b_{{{','.join(sorted(k)) or '∅'}}}={v:.6g}"
            for k, v in sorted(self.b_items().items(), key=lambda kv: sorted(kv[0]))
        )
        return f"GUSParams(schema={sorted(self.schema)}, a={self.a:.6g}, {pairs})"

    # -- identity-dimension analysis --------------------------------------

    def inactive_dims(self, tol: float = 1e-12) -> frozenset[str]:
        """Dimensions along which ``b̄`` is constant.

        A dimension ``d`` is *inactive* when ``b_{T∪{d}} = b_T`` for all
        ``T`` — exactly the situation of an unsampled base relation that
        entered the schema through a join with the identity GUS.  For
        every ``S`` containing an inactive dimension the Möbius
        alternating sum cancels, so ``c_S = 0`` and the dimension can be
        dropped from the analysis; see :meth:`project_out_inactive`.
        """
        # Plain floats: ``np.allclose(x, y, rtol=0, atol=tol)`` is
        # ``x == y or |x − y| <= tol`` per pair, NaN close to nothing.
        b = self.b.tolist()
        inactive = []
        for i, dim in enumerate(self.lattice.dims):
            bit = 1 << i
            if all(
                b[m] == b[m | bit] or abs(b[m] - b[m | bit]) <= tol
                for m in self.lattice.masks()
                if not m & bit
            ):
                inactive.append(dim)
        return frozenset(inactive)

    def project_out_inactive(self, tol: float = 1e-12) -> "GUSParams":
        """Re-express the same process over the active lineage schema.

        The result is a valid GUS over the active dimensions only: the
        sampling process is unchanged, we merely observe lineage at a
        coarser granularity.  Reduces Theorem 1's ``2ⁿ`` terms to
        ``2^(#sampled relations)``.
        """
        inactive = self.inactive_dims(tol)
        if not inactive:
            return self
        active = [d for d in self.lattice.dims if d not in inactive]
        sub = SubsetLattice(active)
        vec = np.empty(sub.size, dtype=np.float64)
        for mask in sub.masks():
            vec[mask] = self.b[self.lattice.mask_of(sub.set_of(mask))]
        return GUSParams(sub, self.a, vec, validate=False)


def _restore(lattice: SubsetLattice, a: float, b: np.ndarray) -> GUSParams:
    return GUSParams(lattice, a, b, validate=False)


# ---------------------------------------------------------------------------
# Constructors for known sampling methods (paper Figure 1) and the
# semiring's distinguished elements.
# ---------------------------------------------------------------------------


def identity_gus(schema: Iterable[str]) -> GUSParams:
    """``G(1, 1̄)`` — passes everything through (Proposition 4).

    The multiplicative identity of compaction and the absorbing element
    of union.
    """
    lattice = SubsetLattice(schema)
    return GUSParams(lattice, 1.0, np.ones(lattice.size))


def null_gus(schema: Iterable[str]) -> GUSParams:
    """``G(0, 0̄)`` — blocks everything.

    The additive identity of union and the annihilator of compaction.
    """
    lattice = SubsetLattice(schema)
    return GUSParams(lattice, 0.0, np.zeros(lattice.size))


@lru_cache(maxsize=1024)
def bernoulli_gus(relation: str, p: float) -> GUSParams:
    """Bernoulli(p) sampling of a single relation.

    ``a = p``; distinct tuples are included independently so
    ``b_∅ = p²``; a pair with identical lineage is one tuple, so
    ``b_R = p`` (paper Figure 1, first row).  Memoized: the same
    ``(relation, p)`` returns the same (immutable) instance, because
    the rewrite, the catalog's fingerprints and thinning, and the
    optimizer's scoring all ask for the same few designs on every
    request.
    """
    if not 0.0 <= p <= 1.0:
        raise ReproError(f"Bernoulli rate p={p} is not a probability")
    return GUSParams.from_mapping(
        [relation],
        p,
        {frozenset(): p * p, frozenset([relation]): p},
    )


@lru_cache(maxsize=1024)
def without_replacement_gus(relation: str, n: int, population: int) -> GUSParams:
    """Fixed-size WOR (simple random) sampling of ``n`` of ``N`` tuples.

    ``a = n/N``; a pair of *distinct* tuples is jointly included with
    the hypergeometric probability ``n(n−1)/(N(N−1))`` (paper Figure 1,
    second row).  Memoized like :func:`bernoulli_gus`.
    """
    if population <= 0:
        raise ReproError(f"population {population} must be positive")
    if not 0 <= n <= population:
        raise ReproError(f"sample size {n} not in [0, {population}]")
    a = n / population
    if population == 1:
        b_empty = 0.0  # no distinct pair exists; value is immaterial
    else:
        b_empty = n * (n - 1) / (population * (population - 1))
    return GUSParams.from_mapping(
        [relation],
        a,
        {frozenset(): b_empty, frozenset([relation]): a},
    )

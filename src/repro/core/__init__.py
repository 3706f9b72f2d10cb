"""Core of the reproduction: the GUS sampling algebra and estimator.

Layout:

* :mod:`repro.core.lattice`    — subset-lattice bitmask machinery;
* :mod:`repro.core.gus`        — ``G(a, b̄)`` parameter objects;
* :mod:`repro.core.algebra`    — join/union/compaction/composition maps;
* :mod:`repro.core.estimator`  — Theorem 1 estimation and unbiasing;
* :mod:`repro.core.confidence` — normal/Chebyshev intervals, quantiles;
* :mod:`repro.core.rewrite`    — plan → single-top-GUS transformation;
* :mod:`repro.core.soa`        — SOA-equivalence checking oracles;
* :mod:`repro.core.sbox`       — the end-to-end SBox estimator;
* :mod:`repro.core.subsample`  — Section 7 sub-sampled variance.
"""

from repro.core.algebra import (
    compact_gus,
    compose_gus,
    join_gus,
    lift_gus,
    union_gus,
)
from repro.core.confidence import ConfidenceInterval
from repro.core.estimator import Estimate, estimate_sum, exact_moments
from repro.core.gus import (
    GUSParams,
    bernoulli_gus,
    identity_gus,
    null_gus,
    without_replacement_gus,
)
from repro.core.lattice import SubsetLattice

__all__ = [
    "GUSParams",
    "SubsetLattice",
    "Estimate",
    "ConfidenceInterval",
    "bernoulli_gus",
    "without_replacement_gus",
    "identity_gus",
    "null_gus",
    "join_gus",
    "compose_gus",
    "union_gus",
    "compact_gus",
    "lift_gus",
    "estimate_sum",
    "exact_moments",
]

"""Skewed distributions for realistic synthetic data.

Real fact tables are skewed (a few popular parts, heavy customers),
and skew is exactly what makes sampling variance interesting: the
``y_S`` terms grow with the concentration of the aggregate on few
lineage groups.  These helpers provide deterministic Zipf-like draws
without scipy's sampling (which has no generator-seeded Zipf with
bounded support).  Each call is whole-array numpy work around one
``rng.random(n_draws)`` (plus one ``rng.permutation`` in
:func:`skewed_ints`), so its ranks are a function of the generator's
state alone.
"""

from __future__ import annotations

import numpy as np


def zipf_ranks(
    n_draws: int, n_values: int, alpha: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n_draws`` ranks in ``[0, n_values)`` with P(r) ∝ 1/(r+1)^α.

    ``alpha = 0`` degenerates to uniform; larger α concentrates mass on
    low ranks.  Inverse-CDF sampling over the finite support: the rank
    of ``u`` is the first index whose cdf reaches it, exactly what
    ``np.searchsorted(cdf, u, side="left")`` returns, found through a
    guide table instead of a binary search per draw.  ``guide[j]`` is
    the first index whose cdf reaches ``j / K``; a draw starts one
    bucket below its own, at ``guide[⌊uK⌋ − 1]`` (never past the answer,
    however ``uK`` rounds), and steps forward while the cdf is below
    ``u``.  ``K = 4 · n_values`` buckets keep that to a few steps (three
    for 600 k draws over 20 k values at α = 0.8, against nine with
    ``K = n_values``).
    """
    if n_values <= 0:
        raise ValueError("n_values must be positive")
    weights = 1.0 / np.power(np.arange(1, n_values + 1, dtype=np.float64), alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    u = rng.random(n_draws)
    buckets = 4 * n_values
    guide = np.searchsorted(
        cdf, np.arange(buckets) / buckets, side="left"
    ).astype(np.int64)
    # In place: never more than three draw-sized arrays at once.
    ranks = (u * buckets).astype(np.int64)
    ranks -= 1
    np.maximum(ranks, 0, out=ranks)
    ranks = guide[ranks]
    # cdf[-1] == 1.0 > u, so no rank steps past the support.
    behind = np.flatnonzero(cdf[ranks] < u)
    while behind.size:
        ranks[behind] += 1
        behind = behind[cdf[ranks[behind]] < u[behind]]
    return ranks


def skewed_ints(
    n_draws: int,
    n_values: int,
    rng: np.random.Generator,
    alpha: float = 0.8,
    shuffle: bool = True,
) -> np.ndarray:
    """Zipf-ranked ids with the popularity order randomly permuted.

    Without the permutation, low ids would always be the popular ones,
    which correlates popularity with insertion order — an artefact the
    shuffle removes.
    """
    ranks = zipf_ranks(n_draws, n_values, alpha, rng)
    if not shuffle:
        return ranks
    perm = rng.permutation(n_values)
    return perm[ranks]

"""Statistical guarantees of grouped estimation under real sampling.

Two layers of evidence, mirroring the ungrouped suites:

* **exact** — on enumeration-sized inputs the *entire* sampling
  distribution is enumerated (``tests.enumeration``), so per-group
  estimator unbiasedness and per-group variance-estimator unbiasedness
  are checked as identities, not statistically;
* **seeded Monte-Carlo** — on a joined relation too large to
  enumerate, the mean of per-group estimates across seeds must sit
  within sampling tolerance of the truth, and 95% normal intervals
  must cover the true group values at a near-nominal rate — for both
  RNG-driven Bernoulli samples and deterministic lineage-hash samples.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.algebra import join_gus
from repro.core.gus import bernoulli_gus, without_replacement_gus
from repro.sampling.pseudorandom import LineageHashBernoulli
from tests.enumeration import (
    JoinedWorld,
    bernoulli_outcomes,
    cross_join_world,
    wor_outcomes,
)
from tests.reference import estimate_sums_grouped

N_GROUPS = 2


def _group_of(lin_r1: np.ndarray, lin_r2: np.ndarray) -> np.ndarray:
    """Deterministic data-defined grouping for the enumeration worlds."""
    return (np.asarray(lin_r1) + np.asarray(lin_r2)) % N_GROUPS


def _grouped_statistic(gus):
    def statistic(f, lineage):
        gids = _group_of(lineage["r1"], lineage["r2"])
        est = estimate_sums_grouped(gus, f, lineage, gids, N_GROUPS)
        return np.concatenate([est.values, est.variance_raw])

    return statistic


class TestExactUnbiasednessByEnumeration:
    """E[estimate_g] = A_g and E[var̂_g] = σ²_g as exact identities."""

    CASES = {
        "bernoulli-bernoulli": (
            {"r1": 0.5, "r2": 0.4},
            None,
        ),
        "bernoulli-wor": (
            {"r1": 0.6},
            ("r2", 2),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_per_group_estimates_and_variances_unbiased(self, name):
        rates, wor = self.CASES[name]
        tables = {
            "r1": [(0, 2.0), (1, -1.0), (2, 3.0)],
            "r2": [(0, 1.0), (1, 4.0), (2, -2.0)],
        }
        spaces = {}
        gus_parts = []
        for rel, p in rates.items():
            ids = [tid for tid, _ in tables[rel]]
            spaces[rel] = list(bernoulli_outcomes(ids, p))
            gus_parts.append(bernoulli_gus(rel, p))
        if wor is not None:
            rel, k = wor
            ids = [tid for tid, _ in tables[rel]]
            spaces[rel] = list(wor_outcomes(ids, k))
            gus_parts.append(
                without_replacement_gus(rel, k, len(ids))
            )
        gus = join_gus(gus_parts[0], gus_parts[1])
        world = cross_join_world(tables, spaces)

        expected = world.expected_statistic(_grouped_statistic(gus))
        exp_values, exp_variances = (
            expected[:N_GROUPS],
            expected[N_GROUPS:],
        )

        for g in range(N_GROUPS):
            group_rows = [
                (lin, f)
                for lin, f in world.rows
                if _group_of(lin["r1"], lin["r2"]) == g
            ]
            sub_world = JoinedWorld(group_rows, spaces)
            true_total = sub_world.total
            _, true_var = sub_world.estimator_moments(gus.a)
            assert exp_values[g] == pytest.approx(true_total, abs=1e-10)
            assert exp_variances[g] == pytest.approx(
                true_var, rel=1e-9, abs=1e-10
            )


def _joined_data(n_rows=1_500, n_r1=50, n_r2=30, n_groups=5, seed=13):
    """A fixed joined result: lineage pairs, integer f, group column."""
    rng = np.random.default_rng(seed)
    lin1 = rng.integers(0, n_r1, n_rows).astype(np.int64)
    lin2 = rng.integers(0, n_r2, n_rows).astype(np.int64)
    f = rng.integers(1, 20, n_rows).astype(np.float64)
    gids = rng.integers(0, n_groups, n_rows).astype(np.int64)
    truth = np.bincount(gids, weights=f, minlength=n_groups)
    return f, lin1, lin2, gids, truth


class TestSeededMonteCarlo:
    P1, P2 = 0.5, 0.4
    TRIALS = 250
    LEVEL = 0.95

    def _run_trials(self, keep_fn):
        """keep_fn(seed, lin1, lin2) -> row mask for that trial."""
        f, lin1, lin2, gids, truth = _joined_data()
        n_groups = truth.shape[0]
        gus = join_gus(
            bernoulli_gus("r1", self.P1), bernoulli_gus("r2", self.P2)
        )
        values = np.zeros((self.TRIALS, n_groups))
        covered = np.zeros((self.TRIALS, n_groups), dtype=bool)
        for trial in range(self.TRIALS):
            mask = keep_fn(trial, lin1, lin2)
            est = estimate_sums_grouped(
                gus,
                f[mask],
                {"r1": lin1[mask], "r2": lin2[mask]},
                gids[mask],
                n_groups,
            )
            values[trial] = est.values
            lo, hi = est.ci_bounds(self.LEVEL)
            covered[trial] = (lo <= truth) & (truth <= hi)
        return values, covered, truth

    def _check(self, values, covered, truth):
        # Mean across seeds within sampling tolerance of the truth:
        # a 5-sigma band on the Monte-Carlo mean, per group.
        mean = values.mean(axis=0)
        se = values.std(axis=0, ddof=1) / np.sqrt(values.shape[0])
        np.testing.assert_array_less(np.abs(mean - truth), 5.0 * se)
        # 95% intervals cover at a near-nominal rate over all
        # (group, trial) pairs; the bound leaves slack for the normal
        # approximation at these per-group sample sizes.
        coverage = covered.mean()
        assert coverage >= 0.90, f"coverage {coverage:.3f} below 0.90"
        assert coverage <= 1.00

    def test_bernoulli_rng_samples(self):
        def keep(seed, lin1, lin2):
            rng = np.random.default_rng(1_000 + seed)
            keep1 = rng.random(int(lin1.max()) + 1) < self.P1
            keep2 = rng.random(int(lin2.max()) + 1) < self.P2
            return keep1[lin1] & keep2[lin2]

        self._check(*self._run_trials(keep))

    def test_lineage_hash_samples(self):
        def keep(seed, lin1, lin2):
            h1 = LineageHashBernoulli(self.P1, seed=2 * seed + 1)
            h2 = LineageHashBernoulli(self.P2, seed=2 * seed + 2)
            return h1.keep(lin1) & h2.keep(lin2)

        self._check(*self._run_trials(keep))

"""Baseline estimators: correctness and agreement with GUS.

The load-bearing checks: on a single sampled relation the GUS machinery
must coincide with classical survey estimators, and on a star schema it
must coincide with AQUA — those are the special cases the paper's
generalization collapses to.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import estimate_sum
from repro.core.gus import bernoulli_gus, without_replacement_gus
from repro.errors import EstimationError
from repro.relational.expressions import col
from repro.relational.table import Table
from tests.baselines.aqua import aqua_estimate, per_fact_totals
from tests.baselines.clt_single_table import (
    clt_bernoulli_estimate,
    clt_wor_estimate,
)
from tests.baselines.split_sample import split_sample_join_estimate


class TestCLTBernoulli:
    def test_matches_gus_exactly(self):
        """GUS on one Bernoulli-sampled relation ≡ the HT estimator."""
        rng = np.random.default_rng(0)
        f = rng.uniform(0, 10, 200)
        p = 0.35
        baseline = clt_bernoulli_estimate(f, p)
        gus = estimate_sum(
            bernoulli_gus("r", p), f, {"r": np.arange(200, dtype=np.int64)}
        )
        assert baseline.value == pytest.approx(gus.value)
        assert baseline.variance_raw == pytest.approx(gus.variance_raw)

    def test_invalid_rate(self):
        with pytest.raises(EstimationError):
            clt_bernoulli_estimate(np.ones(3), 0.0)


class TestCLTWor:
    def test_matches_gus_exactly(self):
        """GUS on one WOR-sampled relation ≡ the expansion estimator.

        The classical variance estimate ``N²(1−n/N)s²/n`` is itself the
        unbiased estimator of the SRSWOR total variance, so Theorem 1's
        Ŷ machinery must land on identical numbers.
        """
        rng = np.random.default_rng(1)
        n, pop = 40, 500
        f = rng.uniform(0, 10, n)
        baseline = clt_wor_estimate(f, pop)
        gus = estimate_sum(
            without_replacement_gus("r", n, pop),
            f,
            {"r": np.arange(n, dtype=np.int64)},
        )
        assert baseline.value == pytest.approx(gus.value)
        assert baseline.variance_raw == pytest.approx(
            gus.variance_raw, rel=1e-9
        )

    def test_empty_and_singleton(self):
        assert clt_wor_estimate(np.empty(0), 100).value == 0.0
        single = clt_wor_estimate(np.array([5.0]), 100)
        assert single.value == pytest.approx(500.0)
        assert np.isnan(single.variance_raw)

    def test_population_smaller_than_sample_rejected(self):
        with pytest.raises(EstimationError):
            clt_wor_estimate(np.ones(10), 5)


class TestAqua:
    def _star_sample(self, rng, n_fact=400, rate=0.3):
        """A fact table sample joined to a complete dimension."""
        fact_keys = np.arange(n_fact, dtype=np.int64)
        dim_value = rng.uniform(1, 3, 50)
        fact_dim = rng.integers(0, 50, n_fact)
        fact_value = rng.uniform(0, 10, n_fact)
        keep = rng.random(n_fact) < rate
        # Joined result: one row per kept fact tuple.
        f = fact_value[keep] * dim_value[fact_dim[keep]]
        lineage = fact_keys[keep]
        truth = float(np.sum(fact_value * dim_value[fact_dim]))
        return f, lineage, truth

    def test_bernoulli_fact_sampling_matches_gus(self):
        rng = np.random.default_rng(3)
        f, lineage, _ = self._star_sample(rng)
        aqua = aqua_estimate(
            f, lineage, method="bernoulli", fact_table_size=400, rate=0.3
        )
        gus = estimate_sum(bernoulli_gus("fact", 0.3), f, {"fact": lineage})
        assert aqua.value == pytest.approx(gus.value)
        assert aqua.variance_raw == pytest.approx(gus.variance_raw)

    def test_unbiased_over_trials(self):
        rng = np.random.default_rng(4)
        totals, truth = [], None
        for _ in range(150):
            f, lineage, truth = self._star_sample(rng)
            est = aqua_estimate(
                f, lineage, method="bernoulli", fact_table_size=400, rate=0.3
            )
            totals.append(est.value)
        totals = np.array(totals)
        stderr = totals.std(ddof=1) / np.sqrt(len(totals))
        assert abs(totals.mean() - truth) < 4 * stderr

    def test_per_fact_totals_groups(self):
        f = np.array([1.0, 2.0, 3.0, 4.0])
        lineage = np.array([7, 7, 9, 7])
        totals = sorted(per_fact_totals(f, lineage).tolist())
        assert totals == [3.0, 7.0]

    def test_wor_requires_sample_size(self):
        with pytest.raises(EstimationError, match="sample_size"):
            aqua_estimate(
                np.ones(3),
                np.arange(3),
                method="wor",
                fact_table_size=10,
            )

    def test_wor_pads_empty_join_facts(self):
        """Fact tuples that joined to nothing still widen the variance."""
        f = np.array([10.0, 20.0])
        lineage = np.array([0, 1])
        with_pad = aqua_estimate(
            f,
            lineage,
            method="wor",
            fact_table_size=100,
            sample_size=4,
            fact_sample_count=4,
        )
        without_pad = aqua_estimate(
            f, lineage, method="wor", fact_table_size=100, sample_size=4
        )
        assert with_pad.value == pytest.approx(100 * 30.0 / 4)
        assert without_pad.value == pytest.approx(100 * 15.0)

    def test_unknown_method(self):
        with pytest.raises(EstimationError, match="unknown"):
            aqua_estimate(
                np.ones(1), np.arange(1), method="xyz", fact_table_size=5
            )


class TestSplitSample:
    def _tables(self, rng, n_left=300, n_right=60):
        left = Table(
            "l",
            {
                "lk": rng.integers(0, n_right, n_left).astype(np.int64),
                "lv": rng.uniform(0, 5, n_left),
            },
        )
        right = Table(
            "r",
            {
                "rk": np.arange(n_right, dtype=np.int64),
                "rv": rng.uniform(0, 2, n_right),
            },
        )
        truth = 0.0
        rv = right.column("rv")
        for key, value in zip(left.column("lk"), left.column("lv")):
            truth += float(value) * float(rv[key])
        return left, right, truth

    def test_unbiased(self):
        rng = np.random.default_rng(5)
        left, right, truth = self._tables(rng)
        f = col("lv") * col("rv")
        means = []
        for _ in range(30):
            est, _ = split_sample_join_estimate(
                left,
                right,
                "lk",
                "rk",
                f,
                n_left=150,
                n_right=40,
                epochs=8,
                rng=rng,
            )
            means.append(est.value)
        means = np.array(means)
        stderr = means.std(ddof=1) / np.sqrt(len(means))
        assert abs(means.mean() - truth) < 4 * stderr

    def test_interval_is_t_based(self):
        rng = np.random.default_rng(6)
        left, right, _ = self._tables(rng)
        est, ci = split_sample_join_estimate(
            left,
            right,
            "lk",
            "rk",
            col("lv") * col("rv"),
            n_left=100,
            n_right=30,
            epochs=6,
            rng=rng,
        )
        assert ci.method == "t"
        assert ci.lo < est.value < ci.hi

    def test_needs_two_epochs(self):
        rng = np.random.default_rng(7)
        left, right, _ = self._tables(rng)
        with pytest.raises(EstimationError, match="epochs"):
            split_sample_join_estimate(
                left,
                right,
                "lk",
                "rk",
                col("lv") * col("rv"),
                n_left=10,
                n_right=10,
                epochs=1,
                rng=rng,
            )

    def test_gus_interval_tighter_at_equal_budget(self):
        """A join sampled once, estimated by Theorem 1, against ten
        with-replacement epochs of the same expected rows: the GUS
        interval is narrower (median of 25 seeds, about 3.6x here)."""
        from repro.data.tpch import tpch_database
        from repro.data.workloads import REVENUE_EXPR
        from repro.relational.plan import (
            Aggregate,
            AggSpec,
            Join,
            Scan,
            TableSample,
        )
        from repro.sampling import Bernoulli, WithoutReplacement

        db = tpch_database(scale=0.1, seed=42)
        lineitem, orders = db.table("lineitem"), db.table("orders")
        n_orders = orders.n_rows // 5
        plan = Aggregate(
            Join(
                TableSample(Scan("lineitem"), Bernoulli(0.2)),
                TableSample(Scan("orders"), WithoutReplacement(n_orders)),
                ["l_orderkey"],
                ["o_orderkey"],
            ),
            [AggSpec("sum", REVENUE_EXPR, "s")],
        )
        rng = np.random.default_rng(8)
        gus_widths, split_widths = [], []
        for seed in range(25):
            gus_widths.append(
                db.estimate(plan, seed=seed).estimates["s"].ci(0.95).width
            )
            _, ci = split_sample_join_estimate(
                lineitem,
                orders,
                "l_orderkey",
                "o_orderkey",
                REVENUE_EXPR,
                n_left=lineitem.n_rows // 5 // 10,
                n_right=n_orders // 10,
                epochs=10,
                rng=rng,
            )
            split_widths.append(ci.width)
        assert np.median(gus_widths) < np.median(split_widths)

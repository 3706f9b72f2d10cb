"""End-to-end SBox tests: estimation quality on executable plans."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.estimator import exact_moments
from repro.core.subsample import SubsampleSpec, subsampled_estimate
from repro.data.workloads import REVENUE_EXPR, query1_plan
from repro.errors import PlanError
from repro.relational.expressions import col, lit
from repro.relational.plan import (
    Aggregate,
    AggSpec,
    Scan,
    TableSample,
)
from repro.sampling import Bernoulli, BlockBernoulli, WithoutReplacement
from repro.service import render_result


def _mk_db(n_orders=300, n_lines=2000, seed=5):
    from repro.relational.database import Database

    db = Database(seed=seed)
    rng = np.random.default_rng(seed)
    db.create_table(
        "orders",
        {
            "o_orderkey": np.arange(n_orders, dtype=np.int64),
            "o_totalprice": rng.uniform(10, 500, n_orders),
        },
    )
    db.create_table(
        "lineitem",
        {
            "l_orderkey": rng.integers(0, n_orders, n_lines).astype(np.int64),
            "l_extendedprice": rng.uniform(50, 200, n_lines),
            "l_discount": rng.uniform(0, 0.1, n_lines),
            "l_tax": rng.uniform(0, 0.08, n_lines),
        },
    )
    return db


@pytest.fixture(scope="module")
def db():
    return _mk_db()


@pytest.fixture(scope="module")
def plan():
    return query1_plan(lineitem_rate=0.3, orders_rows=150)


@pytest.fixture(scope="module")
def truth(db, plan):
    return db.execute_exact(plan).to_rows()[0][0]


class TestPointEstimates:
    def test_unbiasedness_across_trials(self, db, plan, truth):
        values = [
            db.estimate(plan, seed=seed).estimates["revenue"].value
            for seed in range(120)
        ]
        values = np.array(values)
        stderr = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(values.mean() - truth) < 4 * stderr

    def test_coverage_close_to_nominal(self, db, plan, truth):
        hits = 0
        trials = 150
        for seed in range(trials):
            est = db.estimate(plan, seed=seed).estimates["revenue"]
            if est.ci(0.95).contains(truth):
                hits += 1
        # Binomial(150, .95): 3σ band is roughly ±0.054.
        assert hits / trials > 0.88

    def test_chebyshev_wider_than_normal(self, db, plan):
        est = db.estimate(plan, seed=0).estimates["revenue"]
        assert est.ci(0.95, "chebyshev").width > est.ci(0.95, "normal").width

    def test_variance_estimate_tracks_true_variance(self, db, plan):
        rewrite = db.analyze(plan)
        full = db.execute_exact(plan.child)
        f = (col("l_discount") * (lit(1.0) - col("l_tax"))).eval(full)
        _, true_var = exact_moments(rewrite.params, f, full.lineage)
        var_estimates = np.array(
            [
                db.estimate(plan, seed=seed).estimates["revenue"].variance_raw
                for seed in range(120)
            ]
        )
        assert var_estimates.mean() == pytest.approx(true_var, rel=0.25)


class TestCoverageAcrossSchemes:
    """95 % intervals cover at the nominal rate whatever the scheme."""

    @pytest.mark.parametrize(
        "method",
        [
            Bernoulli(0.2),
            WithoutReplacement(400),
            # 125 blocks of 16 rows: enough blocks for the CLT.
            BlockBernoulli(0.2, 16),
        ],
        ids=["bernoulli", "wor", "block"],
    )
    def test_single_table_coverage(self, db, method):
        plan = Aggregate(
            TableSample(Scan("lineitem"), method),
            [AggSpec("sum", REVENUE_EXPR, "revenue")],
        )
        truth = db.execute_exact(plan).to_rows()[0][0]
        trials = 120
        hits = sum(
            db.estimate(plan, seed=seed).estimates["revenue"]
            .ci(0.95)
            .contains(truth)
            for seed in range(trials)
        )
        # 0.87 is 4σ below 0.95 at 120 trials.
        assert hits / trials > 0.87


class TestAggregateKinds:
    def test_count_estimation(self, db):
        plan = Aggregate(
            TableSample(Scan("lineitem"), Bernoulli(0.25)),
            [AggSpec("count", None, "n")],
        )
        values = np.array(
            [db.estimate(plan, seed=s).estimates["n"].value for s in range(80)]
        )
        assert values.mean() == pytest.approx(2000, rel=0.05)

    def test_avg_estimation_delta_method(self, db):
        plan = Aggregate(
            TableSample(Scan("lineitem"), Bernoulli(0.3)),
            [AggSpec("avg", col("l_extendedprice"), "avg_price")],
        )
        truth = db.execute_exact(plan).to_rows()[0][0]
        hits, trials = 0, 100
        values = []
        for seed in range(trials):
            est = db.estimate(plan, seed=seed).estimates["avg_price"]
            values.append(est.value)
            if est.ci(0.95).contains(truth):
                hits += 1
        assert np.mean(values) == pytest.approx(truth, rel=0.02)
        assert hits / trials > 0.85

    def test_multiple_aggregates_one_pass(self, db, plan):
        multi = Aggregate(
            plan.child,
            [
                AggSpec("sum", col("l_discount"), "s"),
                AggSpec("count", None, "c"),
                AggSpec("avg", col("l_discount"), "a"),
            ],
        )
        res = db.estimate(multi, seed=3)
        assert set(res.estimates) == {"s", "c", "a"}
        # AVG should be consistent with SUM/COUNT.
        assert res.estimates["a"].value == pytest.approx(
            res.estimates["s"].value / res.estimates["c"].value
        )

    def test_quantile_columns(self, db):
        plan = Aggregate(
            TableSample(Scan("lineitem"), Bernoulli(0.3)),
            [
                AggSpec("sum", col("l_discount"), "lo", quantile=0.05),
                AggSpec("sum", col("l_discount"), "hi", quantile=0.95),
            ],
        )
        res = db.estimate(plan, seed=1)
        assert res.values["lo"] < res.values["hi"]
        est = res.estimates["lo"]
        assert res.values["lo"] == pytest.approx(est.quantile(0.05))


class TestNoSampling:
    def test_exact_plan_zero_variance(self, db):
        plan = Aggregate(
            Scan("lineitem"), [AggSpec("sum", col("l_discount"), "s")]
        )
        res = db.estimate(plan, seed=0)
        exact = db.execute_exact(plan).to_rows()[0][0]
        est = res.estimates["s"]
        assert est.value == pytest.approx(exact)
        assert est.variance == pytest.approx(0.0, abs=1e-9)

    def test_run_requires_aggregate(self, db):
        with pytest.raises(PlanError, match="Aggregate"):
            db.sbox().run(Scan("lineitem"))


class TestSubsampledVariance:
    def test_subsample_estimate_close_to_full(self, db, plan, truth):
        """Section 7: sub-sampled Ŷ gives comparable intervals."""
        with_avg = Aggregate(
            plan.child,
            [*plan.specs, AggSpec("avg", col("l_extendedprice"), "m")],
        )
        full_vars = {"revenue": [], "m": []}
        sub_vars = {"revenue": [], "m": []}
        for seed in range(60):
            res_full = db.estimate(with_avg, seed=seed)
            res_sub = db.estimate(
                with_avg,
                seed=seed,
                subsample=SubsampleSpec(rate=0.5, seed=seed),
            )
            # Identical sample → identical point estimate.
            assert res_sub.estimates["revenue"].value == pytest.approx(
                res_full.estimates["revenue"].value
            )
            for alias in full_vars:
                full_vars[alias].append(res_full.estimates[alias].variance_raw)
                sub_vars[alias].append(res_sub.estimates[alias].variance_raw)
        # Both are unbiased for the same true variance (the AVG's to
        # first order); their means should agree within the (noisier)
        # sub-sampled spread.
        for alias in full_vars:
            assert np.mean(sub_vars[alias]) == pytest.approx(
                np.mean(full_vars[alias]), rel=0.5
            )

    def test_subsample_records_metadata(self, db, plan):
        res = db.estimate(
            plan, seed=0, subsample=SubsampleSpec(rate=0.4, seed=1)
        )
        extras = res.estimates["revenue"].extras
        assert extras["n_subsample"] <= res.estimates["revenue"].n_sample
        assert set(extras["subsample_rates"]) == {"lineitem", "orders"}

    def test_target_rows_auto_rate(self, db, plan):
        res = db.estimate(
            plan, seed=0, subsample=SubsampleSpec(target_rows=50, seed=2)
        )
        extras = res.estimates["revenue"].extras
        assert all(r < 1.0 for r in extras["subsample_rates"].values())

    def test_rate_one_equals_full_computation(self, db, plan):
        res_full = db.estimate(plan, seed=4)
        res_sub = db.estimate(
            plan, seed=4, subsample=SubsampleSpec(rate=1.0, seed=0)
        )
        assert res_sub.estimates["revenue"].variance_raw == pytest.approx(
            res_full.estimates["revenue"].variance_raw
        )


    @pytest.mark.parametrize("chunk_size", [None, 97])
    def test_subsample_moves_only_variances(self, db, plan, chunk_size):
        # The rule SBox.run documents: every aggregate, AVG included,
        # takes its variance from the sub-sample; every point estimate
        # is the full sample's, bit for bit.
        mixed = Aggregate(
            plan.child,
            [
                AggSpec("sum", col("l_extendedprice"), "s"),
                AggSpec("count", None, "n"),
                AggSpec("avg", col("l_extendedprice"), "m"),
                AggSpec("avg", col("l_discount"), "q", quantile=0.9),
            ],
        )
        full = db.estimate(mixed, seed=3, chunk_size=chunk_size)
        sub = db.estimate(
            mixed,
            seed=3,
            chunk_size=chunk_size,
            subsample=SubsampleSpec(rate=0.5, seed=1),
        )
        assert list(sub.estimates) == ["s", "n", "m", "q"]
        for alias in ("s", "n", "m"):
            assert sub.values[alias] == full.values[alias]
        # ``q`` reports a quantile, which moves with its variance.
        for alias in ("s", "n", "m", "q"):
            assert sub.estimates[alias].value == full.estimates[alias].value
            assert "n_subsample" in sub.estimates[alias].extras
            assert (
                sub.estimates[alias].variance_raw
                != full.estimates[alias].variance_raw
            )


class TestSubsampleWidthFactor:
    """Section 7: a small sub-sample still gives a usable interval.

    An error in Ŷ only scales the interval's width, so the width factor
    ``sqrt(var_estimate / true_var)`` of one 3 379-row join sample stays
    near 1 as the per-dimension sub-sampling rate falls to 1/8.
    """

    @pytest.fixture(scope="class")
    def inputs(self):
        db = _mk_db(n_orders=2000, n_lines=20_000)
        plan = query1_plan(lineitem_rate=0.5, orders_rows=1000)
        params = db.analyze(plan).params
        sample = db.execute(plan.child, seed=13)
        f = np.asarray(REVENUE_EXPR.eval(sample), dtype=np.float64)
        full = db.execute_exact(plan.child)
        f_full = np.asarray(REVENUE_EXPR.eval(full), dtype=np.float64)
        _, true_var = exact_moments(params, f_full, full.lineage)
        return params, f, sample.lineage, true_var

    @pytest.mark.parametrize("rate", [1.0, 0.5, 0.25, 0.125])
    def test_width_factor_stays_near_one(self, inputs, rate):
        params, f, lineage, true_var = inputs
        estimates = np.array(
            [
                subsampled_estimate(
                    params, f, lineage, SubsampleSpec(rate=rate, seed=seed)
                ).variance_raw
                for seed in range(12)
            ]
        )
        width_factor = np.sqrt(np.maximum(estimates, 0.0) / true_var)
        assert 0.4 < width_factor.mean() < 2.5


class TestQueryResultAPI:
    def test_getitem_and_rendered_answer(self, db, plan):
        res = db.estimate(plan, seed=0)
        assert res["revenue"] == res.estimates["revenue"].value
        text = render_result(res, 0.95)
        assert "revenue" in text

    def test_rendered_answer_without_a_kept_sample(self, db, plan):
        kept = render_result(db.estimate(plan, seed=0), 0.95)
        res = db.estimate(plan, seed=0, keep_sample=False)
        assert res.sample is None
        # The same lines, less the footer's sample-row count.
        assert render_result(res, 0.95) == re.sub(
            r"-- \d+ sample rows, ", "-- ", kept
        )

    def test_gus_exposed(self, db, plan):
        res = db.estimate(plan, seed=0)
        assert res.gus.schema == {"lineitem", "orders"}

"""End-to-end SBox tests: estimation quality on executable plans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.subsample import SubsampleSpec
from repro.data.workloads import query1_plan
from repro.errors import PlanError
from repro.relational.expressions import col, lit
from repro.relational.plan import (
    Aggregate,
    AggSpec,
    Join,
    Scan,
    Select,
    TableSample,
)
from repro.sampling import Bernoulli


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
        from repro.core.estimator import exact_moments

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
        full_vars, sub_vars = [], []
        for seed in range(60):
            res_full = db.estimate(plan, seed=seed)
            res_sub = db.estimate(
                plan,
                seed=seed,
                subsample=SubsampleSpec(rate=0.5, seed=seed),
            )
            # Identical sample → identical point estimate.
            assert res_sub.estimates["revenue"].value == pytest.approx(
                res_full.estimates["revenue"].value
            )
            full_vars.append(res_full.estimates["revenue"].variance_raw)
            sub_vars.append(res_sub.estimates["revenue"].variance_raw)
        # Both are unbiased for the same true variance; their means
        # should agree within the (noisier) sub-sampled spread.
        assert np.mean(sub_vars) == pytest.approx(
            np.mean(full_vars), rel=0.5
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


    @pytest.mark.parametrize("workers", [None, 2])
    def test_avg_keeps_its_full_sample_variance(self, db, plan, workers):
        # The rule SBox.run documents: SUM and COUNT take their variance
        # from the sub-sample, an AVG in the same statement does not.
        mixed = Aggregate(
            plan.child,
            [
                AggSpec("sum", col("l_extendedprice"), "s"),
                AggSpec("count", None, "n"),
                AggSpec("avg", col("l_extendedprice"), "m"),
                AggSpec("avg", col("l_discount"), "q", quantile=0.9),
            ],
        )
        full = db.estimate(mixed, seed=3, workers=workers, chunk_size=97)
        sub = db.estimate(
            mixed,
            seed=3,
            workers=workers,
            chunk_size=97,
            subsample=SubsampleSpec(rate=0.5, seed=1),
        )
        assert list(sub.estimates) == ["s", "n", "m", "q"]
        for alias in ("m", "q"):
            assert sub.values[alias] == full.values[alias]
            assert (
                sub.estimates[alias].variance_raw
                == full.estimates[alias].variance_raw
            )
            assert "n_subsample" not in sub.estimates[alias].extras
        for alias in ("s", "n"):
            assert sub.values[alias] == pytest.approx(full.values[alias])
            assert "n_subsample" in sub.estimates[alias].extras
            assert (
                sub.estimates[alias].variance_raw
                != full.estimates[alias].variance_raw
            )

    def test_subsample_without_avg_folds_nothing(self, db, plan, monkeypatch):
        # Section 7 exists to skip the full-sample moment pass.
        from repro.stream.sketch import MomentSketchBundle

        def boom(self, *args, **kwargs):
            raise AssertionError("full-sample fold under subsample")

        monkeypatch.setattr(MomentSketchBundle, "update", boom)
        res = db.estimate(
            plan, seed=0, subsample=SubsampleSpec(rate=0.4, seed=1)
        )
        assert "n_subsample" in res.estimates["revenue"].extras


class TestQueryResultAPI:
    def test_getitem_and_summary(self, db, plan):
        res = db.estimate(plan, seed=0)
        assert res["revenue"] == res.estimates["revenue"].value
        text = res.summary()
        assert "revenue" in text

    def test_gus_exposed(self, db, plan):
        res = db.estimate(plan, seed=0)
        assert res.gus.schema == {"lineitem", "orders"}

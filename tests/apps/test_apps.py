"""Tests for the Section 8 applications."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    LoadShedder,
    StreamJoinShedder,
    advise,
    robustness_report,
)
from repro.errors import EstimationError, PlanError
from repro.relational.expressions import col
from repro.relational.plan import (
    Aggregate,
    AggSpec,
    Join,
    Scan,
    TableSample,
)
from repro.sampling import Bernoulli, WithoutReplacement


@pytest.fixture(scope="module")
def db():
    from repro.relational.database import Database

    db = Database(seed=9)
    rng = np.random.default_rng(9)
    n_o, n_l = 200, 1500
    db.create_table(
        "orders",
        {
            "o_orderkey": np.arange(n_o, dtype=np.int64),
            "o_totalprice": rng.uniform(10, 500, n_o),
        },
    )
    db.create_table(
        "lineitem",
        {
            "l_orderkey": rng.integers(0, n_o, n_l).astype(np.int64),
            "l_extendedprice": rng.uniform(50, 200, n_l),
            "l_discount": rng.uniform(0, 0.1, n_l),
        },
    )
    return db


class TestRobustness:
    def test_count_sensitivity_closed_form(self, db):
        """For COUNT over one relation under loss rate q, the scaled
        estimator variance is n·q/(1−q) — check against closed form."""
        plan = Aggregate(Scan("orders"), [AggSpec("count", None, "n")])
        (report,) = robustness_report(db, plan, loss_rate=0.01)
        n = 200
        expected_var = n * 0.01 / 0.99
        assert report.value == pytest.approx(n)
        assert report.std == pytest.approx(np.sqrt(expected_var), rel=1e-9)

    def test_more_loss_less_robust(self, db):
        plan = Aggregate(
            Scan("lineitem"), [AggSpec("sum", col("l_extendedprice"), "s")]
        )
        (low,) = robustness_report(db, plan, loss_rate=0.001)
        (high,) = robustness_report(db, plan, loss_rate=0.05)
        assert low.std < high.std
        assert low.coefficient_of_variation < high.coefficient_of_variation

    def test_join_query_supported(self, db):
        plan = Aggregate(
            Join(
                Scan("lineitem"), Scan("orders"),
                ["l_orderkey"], ["o_orderkey"],
            ),
            [AggSpec("sum", col("l_extendedprice"), "s")],
        )
        (report,) = robustness_report(db, plan, loss_rate=0.01)
        assert report.std > 0
        assert 0 < report.coefficient_of_variation < 1

    def test_sampled_plan_rejected(self, db):
        plan = Aggregate(
            TableSample(Scan("orders"), Bernoulli(0.5)),
            [AggSpec("count", None, "n")],
        )
        with pytest.raises(PlanError, match="unsampled"):
            robustness_report(db, plan)

    def test_invalid_loss_rate(self, db):
        plan = Aggregate(Scan("orders"), [AggSpec("count", None, "n")])
        with pytest.raises(PlanError, match="loss rate"):
            robustness_report(db, plan, loss_rate=1.5)

    def test_avg_rejected(self, db):
        plan = Aggregate(
            Scan("orders"), [AggSpec("avg", col("o_totalprice"), "a")]
        )
        with pytest.raises(PlanError, match="SUM-like"):
            robustness_report(db, plan)


class TestAdvisor:
    def _observed(self, db):
        plan = Aggregate(
            Join(
                TableSample(Scan("lineitem"), Bernoulli(0.4)),
                TableSample(Scan("orders"), WithoutReplacement(100)),
                ["l_orderkey"],
                ["o_orderkey"],
            ),
            [AggSpec("sum", col("l_extendedprice"), "s")],
        )
        return db.estimate(plan, seed=21)

    def test_ranking_prefers_larger_samples(self, db):
        result = self._observed(db)
        report = advise(
            result,
            {
                "tiny": {"lineitem": Bernoulli(0.05)},
                "small": {"lineitem": Bernoulli(0.2)},
                "large": {"lineitem": Bernoulli(0.8)},
            },
            db.sizes(),
        )
        names = [o.name for o in report.outcomes]
        assert names == ["large", "small", "tiny"]
        assert report.best.name == "large"

    def test_predictions_track_true_variance(self, db):
        """The advisor's predicted variance for a candidate strategy
        should approximate the true Theorem 1 variance of that
        strategy computed on the full data."""
        from repro.apps.advisor import candidate_params
        from repro.core.estimator import exact_moments

        result = self._observed(db)
        candidate = {
            "lineitem": Bernoulli(0.3),
            "orders": WithoutReplacement(50),
        }
        report = advise(result, {"c": candidate}, db.sizes())
        predicted = report.outcomes[0].predicted_variance

        join_plan = Join(
            Scan("lineitem"), Scan("orders"), ["l_orderkey"], ["o_orderkey"]
        )
        full = db.execute_exact(join_plan)
        f = col("l_extendedprice").eval(full)
        params = candidate_params(
            candidate, db.sizes(), ["lineitem", "orders"]
        )
        _, true_var = exact_moments(params, f, full.lineage)
        assert predicted == pytest.approx(true_var, rel=0.5)

    def test_table_rendering(self, db):
        report = advise(
            self._observed(db),
            {"a": {"lineitem": Bernoulli(0.5)}},
            db.sizes(),
        )
        assert "strategy" in report.table()
        assert "a" in report.table()

    def test_unknown_alias_rejected(self, db):
        with pytest.raises(EstimationError, match="no aggregate"):
            advise(
                self._observed(db),
                {"a": {"lineitem": Bernoulli(0.5)}},
                db.sizes(),
                alias="missing",
            )


class TestCardinality:
    """Section 8's intermediate-result size: a sampled ``COUNT(*)``."""

    @staticmethod
    def _cardinality(db, subplan, seed):
        plan = Aggregate(subplan, [AggSpec("count", None, "n")])
        return db.estimate(plan, seed=seed).estimates["n"]

    def test_join_size_estimate(self, db):
        subplan = Join(
            TableSample(Scan("lineitem"), Bernoulli(0.4)),
            TableSample(Scan("orders"), WithoutReplacement(100)),
            ["l_orderkey"],
            ["o_orderkey"],
        )
        true_size = db.execute_exact(subplan).n_rows
        card = self._cardinality(db, subplan, seed=3)
        interval = card.ci(0.95)
        assert card.value == pytest.approx(true_size, rel=0.4)
        assert interval.lo < interval.hi

    def test_estimates_center_on_truth(self, db):
        subplan = Join(
            TableSample(Scan("lineitem"), Bernoulli(0.4)),
            Scan("orders"),
            ["l_orderkey"],
            ["o_orderkey"],
        )
        true_size = db.execute_exact(subplan).n_rows
        values = [
            self._cardinality(db, subplan, seed=s).value for s in range(60)
        ]
        assert np.mean(values) == pytest.approx(true_size, rel=0.05)

    def test_compare_join_orders(self, db):
        a = Join(
            TableSample(Scan("lineitem"), Bernoulli(0.3)),
            Scan("orders"),
            ["l_orderkey"],
            ["o_orderkey"],
        )
        b = Join(
            TableSample(Scan("lineitem"), Bernoulli(0.6)),
            Scan("orders"),
            ["l_orderkey"],
            ["o_orderkey"],
        )
        results = {
            name: self._cardinality(db, plan, seed=5)
            for name, plan in {"a": a, "b": b}.items()
        }
        # Same underlying join: both should estimate similar sizes,
        # and the bigger sample should not be less reliable.
        assert results["b"].std <= results["a"].std * 2


class TestLoadShedder:
    def test_no_shedding_below_capacity(self):
        shedder = LoadShedder(capacity_per_window=1000)
        values = np.ones(500)
        est = shedder.process_window(values)
        assert est.value == pytest.approx(500.0)
        assert est.variance == pytest.approx(0.0, abs=1e-12)

    def test_shedding_rate_matches_capacity(self):
        shedder = LoadShedder(capacity_per_window=1000, seed=3)
        rate = shedder.rate_for(4000)
        assert rate == pytest.approx(0.25)

    def test_estimate_unbiased_across_windows(self):
        shedder = LoadShedder(capacity_per_window=500, seed=1)
        rng = np.random.default_rng(2)
        errors = []
        for _ in range(50):
            values = rng.uniform(0, 10, 2000)
            est = shedder.process_window(values)
            errors.append(est.value - values.sum())
        # Mean relative error should be small.
        assert abs(np.mean(errors)) / (2000 * 5) < 0.02

    def test_ids_advance_across_windows(self):
        shedder = LoadShedder(capacity_per_window=10, seed=0)
        _, ids1, _ = shedder.shed_window(np.ones(20))
        _, ids2, _ = shedder.shed_window(np.ones(20))
        if ids1.size and ids2.size:
            assert ids2.min() >= 20

    def test_invalid_capacity(self):
        with pytest.raises(EstimationError):
            LoadShedder(capacity_per_window=0)

    def test_session_estimate_sums_windows(self):
        shedder = LoadShedder(capacity_per_window=500, seed=4)
        rng = np.random.default_rng(6)
        window_ests = [
            shedder.process_window(rng.uniform(0, 10, n))
            for n in (300, 2000, 900)
        ]
        session = shedder.session_estimate()
        assert session.value == pytest.approx(
            sum(e.value for e in window_ests)
        )
        assert session.variance_raw == pytest.approx(
            sum(e.variance_raw for e in window_ests)
        )
        assert session.n_sample == sum(e.n_sample for e in window_ests)
        assert session.extras["windows"] == 3

    def test_session_estimate_requires_windows(self):
        from repro.apps import combine_independent

        with pytest.raises(EstimationError, match="no estimates"):
            combine_independent([])
        with pytest.raises(EstimationError, match="no estimates"):
            LoadShedder(capacity_per_window=10).session_estimate()

    def test_session_estimate_covers_truth(self):
        rng = np.random.default_rng(8)
        hits = 0
        for trial in range(30):
            shedder = LoadShedder(capacity_per_window=400, seed=trial)
            truth = 0.0
            for _ in range(5):
                values = rng.uniform(0, 10, 1500)
                truth += values.sum()
                shedder.process_window(values)
            if shedder.session_estimate().ci(0.95).contains(truth):
                hits += 1
        assert hits >= 24  # ~95% nominal; generous slack for 30 trials


class TestStreamJoinShedder:
    def test_join_estimate_unbiased(self):
        rng = np.random.default_rng(4)
        n_keys = 50
        errors = []
        for trial in range(40):
            lk = rng.integers(0, n_keys, 800)
            rk = rng.integers(0, n_keys, 400)
            lv = rng.uniform(0, 2, 800)
            rv = rng.uniform(0, 2, 400)
            # Truth by brute force via bincount of matching key pairs.
            truth = 0.0
            for key in range(n_keys):
                truth += lv[lk == key].sum() * rv[rk == key].sum()
            shedder_t = StreamJoinShedder(0.5, 0.6, seed=trial)
            est = shedder_t.process_window(lk, lv, rk, rv)
            errors.append((est.value - truth) / truth)
        assert abs(np.mean(errors)) < 0.05

    def test_estimate_carries_error_bounds(self):
        rng = np.random.default_rng(5)
        shedder = StreamJoinShedder(0.5, 0.5, seed=2)
        lk = rng.integers(0, 20, 500)
        rk = rng.integers(0, 20, 300)
        est = shedder.process_window(
            lk, rng.uniform(0, 1, 500), rk, rng.uniform(0, 1, 300)
        )
        assert est.std > 0
        ci = est.ci(0.95)
        assert ci.lo < est.value < ci.hi

    def test_invalid_rates(self):
        with pytest.raises(EstimationError):
            StreamJoinShedder(0.0, 0.5)
        with pytest.raises(EstimationError):
            StreamJoinShedder(0.5, 1.5)

    def _windows(self, rng, n_windows, n_keys=30):
        out = []
        for _ in range(n_windows):
            out.append(
                (
                    rng.integers(0, n_keys, 400),
                    rng.uniform(0, 2, 400),
                    rng.integers(0, n_keys, 250),
                    rng.uniform(0, 2, 250),
                )
            )
        return out

    def test_cumulative_estimate_tracks_running_truth(self):
        rng = np.random.default_rng(12)
        shedder = StreamJoinShedder(0.6, 0.7, seed=3)
        truth = 0.0
        for lk, lv, rk, rv in self._windows(rng, 6):
            truth += float(
                np.bincount(lk, weights=lv, minlength=30)
                @ np.bincount(rk, weights=rv, minlength=30)
            )
            shedder.process_window(lk, lv, rk, rv)
        cumulative = shedder.cumulative_estimate()
        assert cumulative.ci(0.99).contains(truth)
        # Cross-window lineage ids must not collide: the cumulative
        # sample is the union of the windows' samples.
        assert cumulative.n_sample > 0
        assert cumulative.label == "JOIN-SUM"

    def test_cumulative_is_exact_merge_of_windows(self):
        """Cumulative value = sum of window values (merge is exact and
        the point estimate is linear in the sketch total)."""
        rng = np.random.default_rng(13)
        shedder = StreamJoinShedder(0.5, 0.5, seed=1)
        window_values = [
            shedder.process_window(lk, lv, rk, rv).value
            for lk, lv, rk, rv in self._windows(rng, 4)
        ]
        assert shedder.cumulative_estimate().value == pytest.approx(
            sum(window_values), rel=1e-9
        )

    def test_sliding_estimate_requires_opt_in(self):
        shedder = StreamJoinShedder(0.5, 0.5)
        with pytest.raises(EstimationError, match="sliding_length"):
            shedder.sliding_estimate()

    def test_sliding_estimate_covers_recent_windows(self):
        rng = np.random.default_rng(14)
        shedder = StreamJoinShedder(0.6, 0.6, seed=2, sliding_length=2)
        windows = self._windows(rng, 5)
        window_values = [
            shedder.process_window(*w).value for w in windows
        ]
        sliding = shedder.sliding_estimate()
        assert sliding.value == pytest.approx(
            sum(window_values[-2:]), rel=1e-9
        )
        assert sliding.n_sample < shedder.cumulative_estimate().n_sample

"""End-to-end integration: SQL text → engine → SBox → intervals.

These tests run realistic query scenarios on the TPC-H instance and
verify the statistical contract of the whole stack, not individual
modules.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.subsample import SubsampleSpec
from repro.errors import NotGUSError
from repro.relational.plan import Intersect, Scan, TableSample, Union
from repro.sampling import LineageHashBernoulli


class TestPaperQueries:
    def test_query1_full_stack(self, tpch_db_mid):
        text = """
        SELECT SUM(l_discount * (1.0 - l_tax)) AS revenue
        FROM lineitem TABLESAMPLE (20 PERCENT),
             orders TABLESAMPLE (500 ROWS)
        WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0
        """
        truth = tpch_db_mid.sql_exact(text).to_rows()[0][0]
        hits = 0
        trials = 60
        for seed in range(trials):
            res = tpch_db_mid.sql(text, seed=seed)
            hits += res.estimates["revenue"].ci(0.95).contains(truth)
        assert hits / trials > 0.85

    def test_figure4_query_full_stack(self, tpch_db_mid):
        text = """
        SELECT SUM(l_extendedprice * (1.0 - l_discount)) AS revenue
        FROM lineitem TABLESAMPLE (30 PERCENT),
             orders TABLESAMPLE (800 ROWS),
             customer,
             part TABLESAMPLE (50 PERCENT)
        WHERE l_orderkey = o_orderkey
          AND o_custkey = c_custkey
          AND l_partkey = p_partkey
        """
        truth = tpch_db_mid.sql_exact(text).to_rows()[0][0]
        values = np.array(
            [tpch_db_mid.sql(text, seed=s)["revenue"] for s in range(40)]
        )
        stderr = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(values.mean() - truth) < 4 * stderr

    def test_quantile_view_orders_quantiles(self, tpch_db_mid):
        text = """
        CREATE VIEW approx (lo, mid, hi) AS
        SELECT QUANTILE(SUM(l_extendedprice), 0.05) AS lo,
               QUANTILE(SUM(l_extendedprice), 0.5) AS mid,
               QUANTILE(SUM(l_extendedprice), 0.95) AS hi
        FROM lineitem TABLESAMPLE (25 PERCENT)
        """
        res = tpch_db_mid.sql(text, seed=2)
        assert res["lo"] < res["mid"] < res["hi"]
        # The median quantile equals the point estimate.
        assert res["mid"] == pytest.approx(
            res.estimates["mid"].value
        )

    def test_quantile_bounds_bracket_truth_at_rate(self, tpch_db_mid):
        """[q05, q95] should contain the truth ~90% of runs."""
        text = """
        SELECT QUANTILE(SUM(l_extendedprice), 0.05) AS lo,
               QUANTILE(SUM(l_extendedprice), 0.95) AS hi
        FROM lineitem TABLESAMPLE (25 PERCENT)
        """
        truth = tpch_db_mid.sql_exact(
            "SELECT SUM(l_extendedprice) AS s FROM lineitem"
        ).to_rows()[0][0]
        hits = 0
        trials = 80
        for seed in range(trials):
            res = tpch_db_mid.sql(text, seed=seed)
            hits += res["lo"] <= truth <= res["hi"]
        assert hits / trials > 0.82


class TestGroupedEndToEnd:
    Q1 = """
    SELECT l_returnflag, l_linestatus,
           SUM(l_quantity) AS sum_qty,
           SUM(l_extendedprice) AS sum_base_price,
           AVG(l_quantity) AS avg_qty,
           COUNT(*) AS count_order
    FROM lineitem TABLESAMPLE (15 PERCENT) REPEATABLE ({seed})
    GROUP BY l_returnflag, l_linestatus
    """

    def _truth(self, db):
        exact = db.sql_exact(self.Q1.format(seed=0))
        return {
            (flag, status): dict(
                zip(("sum_qty", "sum_base_price", "avg_qty", "count_order"), rest)
            )
            for flag, status, *rest in exact.to_rows()
        }

    def test_tpch_q1_per_group_unbiased_and_covered(self, tpch_db_mid):
        truth = self._truth(tpch_db_mid)
        trials = 40
        values = {key: [] for key in truth}
        hits = total = 0
        for seed in range(trials):
            res = tpch_db_mid.sql(self.Q1.format(seed=seed))
            lo, hi = res.estimates["sum_qty"].ci_bounds(0.95)
            for g, key in enumerate(res.group_rows()):
                values[key].append(res.values["sum_qty"][g])
                total += 1
                hits += lo[g] <= truth[key]["sum_qty"] <= hi[g]
        # Every trial realized every group at 15% of a mid-size table.
        assert all(len(v) == trials for v in values.values())
        for key, seen in values.items():
            arr = np.array(seen)
            stderr = arr.std(ddof=1) / np.sqrt(trials)
            assert abs(arr.mean() - truth[key]["sum_qty"]) < 4 * stderr
        assert hits / total > 0.85

    def test_grouped_avg_consistent_with_sum_and_count(self, tpch_db_mid):
        res = tpch_db_mid.sql(self.Q1.format(seed=5))
        np.testing.assert_allclose(
            res.values["avg_qty"],
            res.values["sum_qty"] / res.values["count_order"],
            rtol=1e-9,
        )

    def test_grouped_query_groups_match_exact(self, tpch_db_mid):
        res = tpch_db_mid.sql(self.Q1.format(seed=9))
        assert set(res.group_rows()) == set(self._truth(tpch_db_mid))


class TestSamplingSchemeMatrix:
    """Same query, every TABLESAMPLE variant, consistent answers."""

    QUERY = """
    SELECT SUM(l_extendedprice) AS s
    FROM lineitem TABLESAMPLE ({clause})
    WHERE l_quantity > 10
    """

    @pytest.mark.parametrize(
        "clause",
        [
            "30 PERCENT",
            "2000 ROWS",
            "SYSTEM (30 PERCENT, 32)",
            "SYSTEM (20 BLOCKS, 64)",
            "30 PERCENT) REPEATABLE (11",  # hash filter spelling
        ],
    )
    def test_unbiased_for_scheme(self, tpch_db_mid, clause):
        if "REPEATABLE" in clause:
            text = (
                "SELECT SUM(l_extendedprice) AS s FROM lineitem "
                "TABLESAMPLE (30 PERCENT) REPEATABLE (11) "
                "WHERE l_quantity > 10"
            )
        else:
            text = self.QUERY.format(clause=clause)
        truth = tpch_db_mid.sql_exact(text).to_rows()[0][0]
        res = tpch_db_mid.sql(text, seed=0)
        est = res.estimates["s"]
        # One draw: generous 5σ sanity envelope.
        assert abs(est.value - truth) < max(5 * est.std, 0.3 * truth)


class TestSetOperationsEndToEnd:
    def test_union_of_hash_samples_estimates(self, tpch_db_mid):
        """Union two deterministic samples; estimate with Prop 7."""
        from repro.relational.plan import Aggregate, AggSpec
        from repro.relational.expressions import col

        left = TableSample(
            Scan("lineitem"), LineageHashBernoulli(0.3, seed=1)
        )
        right = TableSample(
            Scan("lineitem"), LineageHashBernoulli(0.3, seed=2)
        )
        plan = Aggregate(
            Union(left, right),
            [AggSpec("sum", col("l_extendedprice"), "s")],
        )
        truth = tpch_db_mid.execute_exact(plan).to_rows()[0][0]
        res = tpch_db_mid.estimate(plan, seed=0)
        est = res.estimates["s"]
        assert res.gus.a == pytest.approx(0.3 + 0.3 - 0.09)
        assert abs(est.value - truth) < 6 * est.std

    def test_intersect_of_hash_samples_estimates(self, tpch_db_mid):
        from repro.relational.plan import Aggregate, AggSpec
        from repro.relational.expressions import col

        left = TableSample(
            Scan("lineitem"), LineageHashBernoulli(0.6, seed=3)
        )
        right = TableSample(
            Scan("lineitem"), LineageHashBernoulli(0.6, seed=4)
        )
        plan = Aggregate(
            Intersect(left, right),
            [AggSpec("sum", col("l_extendedprice"), "s")],
        )
        truth = tpch_db_mid.execute_exact(plan).to_rows()[0][0]
        res = tpch_db_mid.estimate(plan, seed=0)
        est = res.estimates["s"]
        assert res.gus.a == pytest.approx(0.36)
        assert abs(est.value - truth) < 6 * est.std


class TestSubsampledPipeline:
    def test_sql_with_subsample_spec(self, tpch_db_mid):
        text = """
        SELECT SUM(l_discount * (1.0 - l_tax)) AS revenue
        FROM lineitem TABLESAMPLE (40 PERCENT),
             orders TABLESAMPLE (2000 ROWS)
        WHERE l_orderkey = o_orderkey
        """
        full = tpch_db_mid.sql(text, seed=5)
        sub = tpch_db_mid.sql(
            text, seed=5, subsample=SubsampleSpec(target_rows=2000, seed=1)
        )
        assert sub["revenue"] == pytest.approx(full["revenue"])
        assert (
            sub.estimates["revenue"].extras["n_subsample"]
            < full.estimates["revenue"].n_sample
        )
        # Interval widths comparable (sub-sampled Ŷ is noisier but
        # unbiased).
        ratio = (
            sub.estimates["revenue"].ci(0.95).width
            / full.estimates["revenue"].ci(0.95).width
        )
        assert 0.5 < ratio < 2.0


class TestWithReplacementRefusal:
    def test_wr_cannot_enter_the_pipeline(self, tpch_db_mid):
        """The paper's Section 9 boundary, enforced end to end."""
        from repro.relational.plan import Aggregate, AggSpec, TableSample
        from repro.relational.expressions import col
        from tests.baselines.with_replacement import WithReplacement

        plan = Aggregate(
            TableSample(Scan("lineitem"), WithReplacement(100)),
            [AggSpec("sum", col("l_extendedprice"), "s")],
        )
        with pytest.raises(NotGUSError):
            tpch_db_mid.estimate(plan, seed=0)


class TestCountAndAvgEndToEnd:
    def test_three_aggregates_consistent(self, tpch_db_mid):
        text = """
        SELECT SUM(l_extendedprice) AS s, COUNT(*) AS n,
               AVG(l_extendedprice) AS a
        FROM lineitem TABLESAMPLE (30 PERCENT)
        """
        res = tpch_db_mid.sql(text, seed=9)
        assert res["a"] == pytest.approx(res["s"] / res["n"])
        truth = tpch_db_mid.sql_exact(text).to_rows()[0]
        # AVG is a ratio: tight even at 30% sampling.
        assert res["a"] == pytest.approx(truth[2], rel=0.05)

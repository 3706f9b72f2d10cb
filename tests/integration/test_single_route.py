"""One route from plan to estimate.

``Database.sql`` / ``estimate`` / ``execute`` run one engine (the
chunked pipeline; no workers means one chunk) and one estimator (fold
chunks into moment bundles, merge, finish).  ``estimate_from_sample*``
is that estimator on one chunk, and the serial ``Executor`` is only the
oracle's reference interpreter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import (
    estimate_sum,
    estimate_sums_grouped_multi,
    group_ids,
)
from repro.data.tpch import tpch_database
from repro.errors import ReproError
from repro.relational.executor import Executor
from repro.relational.plan import GroupAggregate
from repro.stats.delta import covariance_estimate, ratio_estimate

SAMPLED = "lineitem TABLESAMPLE (30 PERCENT) REPEATABLE (11)"
STATEMENTS = {
    "scalar": f"SELECT SUM(l_extendedprice) AS s, COUNT(*) AS n FROM {SAMPLED}",
    "avg": f"SELECT AVG(l_quantity) AS m, SUM(l_tax) AS t FROM {SAMPLED}",
    "quantile": (
        f"SELECT QUANTILE(SUM(l_extendedprice), 0.95) AS hi FROM {SAMPLED}"
    ),
    "join": (
        f"SELECT SUM(l_extendedprice * o_totalprice) AS s FROM {SAMPLED}, "
        "orders TABLESAMPLE (60 PERCENT) REPEATABLE (3), customer "
        "WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey"
    ),
    "grouped": (
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS q, "
        f"AVG(l_extendedprice) AS m, COUNT(*) AS n FROM {SAMPLED} "
        "GROUP BY l_returnflag, l_linestatus HAVING n > 20"
    ),
}


def _answer(result) -> tuple:
    """Every number and key an answer is made of, order included."""
    estimates = result.estimates
    if hasattr(result, "n_groups"):
        return (
            [(k, v.tolist()) for k, v in result.keys.items()],
            [(a, v.tolist()) for a, v in result.values.items()],
            [(a, e.variance_raw.tolist()) for a, e in estimates.items()],
            [(a, e.n_samples.tolist()) for a, e in estimates.items()],
        )
    return (
        list(result.values.items()),
        [(a, e.variance_raw) for a, e in estimates.items()],
        [(a, e.n_sample) for a, e in estimates.items()],
    )


def _staged(db, text: str, seed: int):
    """``Database.sql`` taken apart the way a host database would."""
    plan = db.plan_sql(text)
    rewrite = db.analyze(plan)
    sample = db.execute(plan.child, seed)
    sbox = db.sbox()
    if isinstance(plan, GroupAggregate):
        return sbox.estimate_from_sample_grouped(plan, sample, rewrite)
    return sbox.estimate_from_sample(plan, sample, rewrite)


class TestOneCallEqualsStaged:
    @pytest.mark.parametrize("name", sorted(STATEMENTS))
    def test_sql_equals_execute_then_estimate_from_sample(self, tpch_db, name):
        text = STATEMENTS[name]
        one_call = tpch_db.sql(text, seed=5, workers=None)
        staged = _staged(tpch_db, text, 5)
        assert _answer(one_call) == _answer(staged)
        # The one-call sample is pruned; the staged one is full width.
        assert one_call.sample.n_rows > 0
        assert set(one_call.sample.columns) < set(staged.sample.columns)

    @pytest.mark.parametrize("name", ["scalar", "join", "grouped"])
    def test_catalog_miss_then_hit_equal_the_staged_answer(self, name):
        db = tpch_database(scale=0.02, seed=7)
        expected = _answer(_staged(db, STATEMENTS[name], 5))
        db.attach_catalog()
        miss = db.sql(STATEMENTS[name], seed=5)
        hit = db.sql(STATEMENTS[name], seed=5)
        assert miss.reuse is None and hit.reuse is not None
        assert _answer(miss) == expected
        assert _answer(hit) == expected


class TestReferenceIsOffTheQueryPath:
    @pytest.fixture
    def db(self, monkeypatch):
        db = tpch_database(scale=0.02, seed=7)
        lineitem = db.table("lineitem")
        db.update_table(
            "lineitem",
            lineitem.with_columns(
                {"l_quantity": lineitem.column("l_quantity") + 1.0}
            ),
        )

        def refuse(self, node):
            raise AssertionError("reference interpreter on the query path")

        monkeypatch.setattr(Executor, "execute", refuse)
        return db

    @pytest.mark.parametrize("workers", [None, 0, 1, 3])
    def test_every_statement_class_answers_without_it(self, db, workers):
        run = {"seed": 5, "workers": workers, "chunk_size": 500}
        assert db.sql(STATEMENTS["join"], **run).values["s"] > 0
        assert db.sql(STATEMENTS["grouped"], **run).n_groups > 0
        rows = db.sql(
            "SELECT l_extendedprice FROM lineitem WHERE l_quantity > 30", **run
        )
        assert rows.n_rows > 0
        diff = db.sql(
            "SELECT SUM(l_quantity) AS d FROM lineitem MINUS AT VERSION 1 "
            "TABLESAMPLE (50 PERCENT) REPEATABLE (2)",
            **run,
        )
        assert diff.values["d"] > 0
        budget = db.sql(
            f"SELECT SUM(l_extendedprice) AS s FROM {SAMPLED} "
            "WITHIN 20 % CONFIDENCE 0.9",
            **run,
        )
        assert budget.result.values["s"] > 0
        plan = db.plan_sql(STATEMENTS["scalar"])
        assert db.estimate(plan, **run).values["n"] > 0
        assert db.execute(plan.child, **run).n_rows > 0

    def test_exact_answers_still_run_on_it(self, db):
        with pytest.raises(AssertionError, match="reference interpreter"):
            db.sql_exact(STATEMENTS["scalar"])
        with pytest.raises(AssertionError, match="reference interpreter"):
            db.execute_exact(db.plan_sql(STATEMENTS["grouped"]))


class TestFoldEqualsRowEstimators:
    """The row-at-a-time estimators stay the fold's tested reference."""

    RTOL = 1e-12

    def _close(self, got, want):
        np.testing.assert_allclose(got, want, rtol=self.RTOL, atol=0.0)

    def test_three_table_join_scalar_and_avg(self, tpch_db):
        text = (
            "SELECT SUM(l_extendedprice * o_totalprice) AS s, COUNT(*) AS n, "
            f"AVG(l_quantity) AS m FROM {SAMPLED}, "
            "orders TABLESAMPLE (60 PERCENT) REPEATABLE (3), customer "
            "WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey"
        )
        result = _staged(tpch_db, text, 9)
        sample, params = result.sample, result.gus
        specs = {s.alias: s for s in result.plan.specs}
        f = np.asarray(specs["s"].expr.eval(sample), dtype=np.float64)
        g = np.asarray(specs["m"].expr.eval(sample), dtype=np.float64)
        ones = np.ones(sample.n_rows)
        ref_s = estimate_sum(params, f, sample.lineage)
        ref_n = estimate_sum(params, ones, sample.lineage)
        ref_g = estimate_sum(params, g, sample.lineage)
        ref_m = ratio_estimate(
            ref_g, ref_n, covariance_estimate(params, g, ones, sample.lineage)
        )
        for alias, ref in (("s", ref_s), ("n", ref_n), ("m", ref_m)):
            est = result.estimates[alias]
            self._close(est.value, ref.value)
            self._close(est.variance_raw, ref.variance_raw)
            assert est.n_sample == ref.n_sample

    def test_three_table_join_grouped(self, tpch_db):
        text = (
            "SELECT o_orderstatus, SUM(l_extendedprice) AS s, COUNT(*) AS n "
            f"FROM {SAMPLED}, orders TABLESAMPLE (60 PERCENT) REPEATABLE (3), "
            "customer WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey "
            "GROUP BY o_orderstatus"
        )
        result = _staged(tpch_db, text, 9)
        sample, params = result.sample, result.gus
        keys = sample.column("o_orderstatus")
        gids, n_groups = group_ids([keys], sample.n_rows)
        f = np.asarray(
            result.plan.specs[0].expr.eval(sample), dtype=np.float64
        )
        ref_s, ref_n = estimate_sums_grouped_multi(
            params, [f, np.ones(sample.n_rows)], sample.lineage, gids, n_groups
        )
        # Align the reference's group ids with the answer's key order.
        order = [
            gids[np.flatnonzero(keys == k)[0]]
            for k in result.keys["o_orderstatus"]
        ]
        assert sorted(order) == list(range(n_groups))
        for alias, ref in (("s", ref_s), ("n", ref_n)):
            est = result.estimates[alias]
            self._close(est.values, ref.values[order])
            self._close(est.variance_raw, ref.variance_raw[order])
            assert est.n_samples.tolist() == ref.n_samples[order].tolist()


def test_refusals_survive_the_merge(tpch_db):
    from repro.core.subsample import SubsampleSpec
    from repro.errors import EstimationError

    with pytest.raises(EstimationError, match="not supported for GROUP BY"):
        tpch_db.sql(STATEMENTS["grouped"], subsample=SubsampleSpec(rate=0.5))
    plan = tpch_db.plan_sql(STATEMENTS["grouped"])
    with pytest.raises(EstimationError, match="not supported for GROUP BY"):
        tpch_db.sbox().estimate_from_sample_grouped(
            plan, tpch_db.execute(plan.child, 1), subsample=SubsampleSpec(rate=0.5)
        )
    with pytest.raises(ReproError):
        tpch_db.sql("SELECT SUM(x) AS s FROM nowhere")

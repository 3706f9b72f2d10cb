"""GroupAggregate plan node and its exact/estimating execution paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sbox import GroupedQueryResult, SBox
from repro.errors import EstimationError, PlanError
from repro.relational import col, lit
from repro.relational import plan as p
from repro.relational.database import Database
from repro.sampling.pseudorandom import LineageHashBernoulli


def _spec(kind, expr, alias, quantile=None):
    return p.AggSpec(kind, expr, alias, quantile)


@pytest.fixture
def db():
    db = Database(seed=3)
    rng = np.random.default_rng(8)
    n = 600
    db.create_table(
        "events",
        {
            "kind": rng.integers(0, 4, n).astype(np.int64),
            "value": rng.integers(1, 30, n).astype(np.float64),
        },
    )
    return db


class TestNodeValidation:
    def _scan(self):
        return p.Scan("events")

    def test_requires_keys_and_specs(self):
        with pytest.raises(PlanError, match="grouping key"):
            p.GroupAggregate(self._scan(), [], [_spec("count", None, "n")])
        with pytest.raises(PlanError, match="at least one AggSpec"):
            p.GroupAggregate(self._scan(), ["kind"], [])

    def test_duplicate_keys_and_aliases(self):
        with pytest.raises(PlanError, match="duplicate GROUP BY"):
            p.GroupAggregate(
                self._scan(), ["kind", "kind"], [_spec("count", None, "n")]
            )
        with pytest.raises(PlanError, match="duplicate aggregate"):
            p.GroupAggregate(
                self._scan(),
                ["kind"],
                [_spec("count", None, "n"), _spec("sum", col("value"), "n")],
            )

    def test_alias_key_collision(self):
        with pytest.raises(PlanError, match="collide"):
            p.GroupAggregate(
                self._scan(), ["kind"], [_spec("count", None, "kind")]
            )

    def test_having_over_unknown_column_is_plan_error(self):
        with pytest.raises(PlanError, match="value"):
            p.GroupAggregate(
                self._scan(),
                ["kind"],
                [_spec("count", None, "n")],
                having=col("value") > 3,
            )

    def test_having_over_key_and_alias_accepted(self):
        node = p.GroupAggregate(
            self._scan(),
            ["kind"],
            [_spec("count", None, "n")],
            having=(col("kind") > lit(0)) & (col("n") > lit(1)),
        )
        assert node.having is not None

    def test_fingerprint_distinguishes_grouping(self):
        base = p.GroupAggregate(
            self._scan(), ["kind"], [_spec("count", None, "n")]
        )
        other = p.GroupAggregate(
            self._scan(),
            ["kind"],
            [_spec("count", None, "n")],
            having=col("n") > 1,
        )
        assert base.fingerprint() != other.fingerprint()
        assert "GroupAggregate" in base.pretty()
        assert "HAVING" in other.pretty()

    def test_strip_sampling_preserves_grouping(self):
        sampled = p.TableSample(
            self._scan(), LineageHashBernoulli(0.5, seed=1)
        )
        node = p.GroupAggregate(
            sampled,
            ["kind"],
            [_spec("sum", col("value"), "s")],
            having=col("s") > 0,
        )
        stripped = p.strip_sampling(node)
        assert isinstance(stripped, p.GroupAggregate)
        assert stripped.keys == ("kind",)
        assert stripped.having is node.having
        assert not p.contains_sampling(stripped)


class TestExactExecution:
    def test_groups_and_aggregates(self, db):
        node = p.GroupAggregate(
            p.Scan("events"),
            ["kind"],
            [
                _spec("sum", col("value"), "s"),
                _spec("count", None, "n"),
                _spec("avg", col("value"), "a"),
            ],
        )
        out = db.execute(node)
        raw = db.table("events")
        kinds = raw.column("kind")
        values = raw.column("value")
        assert out.n_rows == len(set(kinds.tolist()))
        for kind, s, n, a in out.to_rows():
            mask = kinds == kind
            assert s == pytest.approx(values[mask].sum())
            assert n == pytest.approx(mask.sum())
            assert a == pytest.approx(values[mask].mean())

    def test_empty_input_produces_no_groups(self, db):
        node = p.GroupAggregate(
            p.Select(p.Scan("events"), col("value") > lit(1e9)),
            ["kind"],
            [_spec("count", None, "n")],
        )
        out = db.execute(node)
        assert out.n_rows == 0


class TestEstimatingPath:
    def _plan(self, having=None):
        return p.GroupAggregate(
            p.TableSample(p.Scan("events"), LineageHashBernoulli(0.5, seed=9)),
            ["kind"],
            [
                _spec("sum", col("value"), "s"),
                _spec("count", None, "n"),
                _spec("avg", col("value"), "a"),
            ],
            having=having,
        )

    def test_returns_grouped_result_with_intervals(self, db):
        result = db.estimate(self._plan(), seed=1)
        assert isinstance(result, GroupedQueryResult)
        assert result.n_groups == 4
        assert set(result.values) == {"s", "n", "a"}
        lo, hi = result.estimates["s"].ci_bounds(0.95)
        assert np.all(lo <= result.values["s"])
        assert np.all(result.values["s"] <= hi)
        table = result.table(level=0.95)
        assert "s_lo" in table.schema.names and "s_hi" in table.schema.names
        assert result.summary().count("\n") == result.n_groups - 1
        assert result["n"] is result.values["n"]
        assert len(result.group_rows()) == result.n_groups

    def test_having_filters_estimated_groups(self, db):
        unfiltered = db.estimate(self._plan(), seed=2)
        threshold = float(np.sort(unfiltered.values["s"])[-2])
        filtered = db.estimate(
            self._plan(having=col("s") >= lit(threshold)), seed=2
        )
        assert filtered.n_groups == 2
        assert np.all(filtered.values["s"] >= threshold)
        # Estimates were filtered in lockstep with keys/values.
        assert filtered.estimates["s"].n_groups == 2

    def test_subsample_spec_rejected_for_grouped(self, db):
        from repro.core.subsample import SubsampleSpec

        with pytest.raises(EstimationError, match="not supported"):
            db.estimate(self._plan(), seed=3, subsample=SubsampleSpec(0.5))

    def test_sbox_run_rejects_non_aggregate_plans(self, db):
        sbox = SBox(db.tables)
        with pytest.raises(PlanError, match="Aggregate or GroupAggregate"):
            sbox.run(p.Scan("events"))

    def test_quantile_spec_outputs_group_quantiles(self, db):
        node = p.GroupAggregate(
            p.TableSample(p.Scan("events"), LineageHashBernoulli(0.5, seed=4)),
            ["kind"],
            [
                _spec("sum", col("value"), "s"),
                _spec("sum", col("value"), "s_hi", quantile=0.95),
            ],
        )
        result = db.estimate(node, seed=4)
        spread = result.estimates["s"].std > 0
        assert np.all(
            result.values["s_hi"][spread] > result.values["s"][spread]
        )


class TestNullAndNanKeys:
    """NULL strings are one group ordered first, NaN floats one group
    ordered last — in the estimate and in the exact answer alike."""

    @pytest.mark.parametrize(
        "key, want",
        [("x", [0.0, 1.0, 2.0, 3.0, np.nan]), ("s", [None, "a", "b"])],
        ids=["float-nan", "string-none"],
    )
    def test_group_by_none_and_nan_keys(self, key, want):
        rng = np.random.default_rng(5)
        n = 1_000
        floats = rng.integers(0, 4, n).astype(np.float64)
        floats[rng.random(n) < 0.1] = np.nan
        words = np.array(["b", None, "a"], dtype=object)[rng.integers(0, 3, n)]
        db = Database(seed=1)
        db.create_table("t", {"x": floats, "s": words, "v": rng.random(n)})
        text = f"SELECT {key}, SUM(v) AS sv FROM t GROUP BY {key}"
        exact = db.sql_exact(text)
        sampled = db.sql(
            text.replace("FROM t", "FROM t TABLESAMPLE (50 PERCENT)"), seed=2
        )
        for got in (exact.column(key), sampled.keys[key]):
            assert len(got) == len(want)
            assert all(g == w or (g != g and w != w) for g, w in zip(got, want))
        isnull = np.isnan(floats) if key == "x" else np.equal(words, None)
        assert exact.column("sv")[-1 if key == "x" else 0] == pytest.approx(
            db.table("t").column("v")[isnull].sum()
        )

"""Executor edge cases: empty inputs, degenerate keys, big fan-out."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational.database import Database
from repro.relational.expressions import col
from repro.relational.plan import (
    Aggregate,
    AggSpec,
    CrossProduct,
    Intersect,
    Join,
    Project,
    Scan,
    Select,
    TableSample,
    Union,
)
from repro.sampling import Bernoulli, LineageHashBernoulli


@pytest.fixture
def db():
    db = Database(seed=0)
    db.create_table("empty", {"e_key": np.empty(0, dtype=np.int64)})
    db.create_table(
        "left",
        {
            "l_key": np.array([1, 1, 2, 5], dtype=np.int64),
            "l_val": np.array([1.0, 2.0, 3.0, 4.0]),
        },
    )
    db.create_table(
        "right",
        {
            "r_key": np.array([1, 2, 2, 9], dtype=np.int64),
            "r_val": np.array([10.0, 20.0, 30.0, 40.0]),
        },
    )
    return db


class TestEmptyInputs:
    def test_join_with_empty_side(self, db):
        for plan in (
            Join(Scan("left"), Scan("empty"), ["l_key"], ["e_key"]),
            Join(Scan("empty"), Scan("left"), ["e_key"], ["l_key"]),
        ):
            out = db.execute(plan)
            assert out.n_rows == 0
            assert out.lineage_schema == {"left", "empty"}

    def test_cross_with_empty_side(self, db):
        out = db.execute(CrossProduct(Scan("left"), Scan("empty")))
        assert out.n_rows == 0

    def test_select_on_empty(self, db):
        out = db.execute(Select(Scan("empty"), col("e_key") > 0))
        assert out.n_rows == 0

    def test_project_on_empty(self, db):
        out = db.execute(Project(Scan("empty"), {"k2": col("e_key")}))
        assert out.n_rows == 0
        assert out.schema.names == ("k2",)

    def test_aggregate_on_empty(self, db):
        out = db.execute(
            Aggregate(
                Scan("empty"),
                [
                    AggSpec("count", None, "n"),
                    AggSpec("sum", col("e_key"), "s"),
                ],
            )
        )
        row = out.to_rows()[0]
        assert row == (0.0, 0.0)

    def test_sample_on_empty(self, db):
        out = db.execute(TableSample(Scan("empty"), Bernoulli(0.5)))
        assert out.n_rows == 0

    def test_union_intersect_with_empty_result(self, db):
        none = TableSample(Scan("left"), LineageHashBernoulli(0.0, 1))
        all_ = TableSample(Scan("left"), LineageHashBernoulli(1.0, 1))
        union = db.execute(Union(none, all_))
        assert union.n_rows == 4
        inter = db.execute(Intersect(none, all_))
        assert inter.n_rows == 0


class TestJoinShapes:
    def test_many_to_many_multiplicity(self, db):
        out = db.execute(
            Join(Scan("left"), Scan("right"), ["l_key"], ["r_key"])
        )
        # key 1: 2 left x 1 right; key 2: 1 x 2 → 4 rows.
        assert out.n_rows == 4
        pairs = sorted(
            zip(out.column("l_val").tolist(), out.column("r_val").tolist())
        )
        assert pairs == [(1.0, 10.0), (2.0, 10.0), (3.0, 20.0), (3.0, 30.0)]

    def test_no_matching_keys(self, db):
        db.create_table(
            "disjoint", {"d_key": np.array([100, 200], dtype=np.int64)}
        )
        out = db.execute(
            Join(Scan("left"), Scan("disjoint"), ["l_key"], ["d_key"])
        )
        assert out.n_rows == 0

    def test_all_equal_keys_quadratic(self, db):
        db.create_table(
            "ones_a", {"a_key": np.ones(30, dtype=np.int64),
                       "a_val": np.arange(30.0)}
        )
        db.create_table(
            "ones_b", {"b_key": np.ones(40, dtype=np.int64)}
        )
        out = db.execute(
            Join(Scan("ones_a"), Scan("ones_b"), ["a_key"], ["b_key"])
        )
        assert out.n_rows == 1200

    def test_float_keys_join(self, db):
        db.create_table(
            "fa", {"fa_key": np.array([0.5, 1.5]), "fa_val": np.array([1.0, 2.0])}
        )
        db.create_table("fb", {"fb_key": np.array([1.5, 2.5])})
        out = db.execute(Join(Scan("fa"), Scan("fb"), ["fa_key"], ["fb_key"]))
        assert out.n_rows == 1
        assert out.column("fa_val")[0] == 2.0

    def test_string_keys_join(self, db):
        db.create_table(
            "sa", {"sa_key": np.array(["x", "y"], dtype=object)}
        )
        db.create_table(
            "sb", {"sb_key": np.array(["y", "y", "z"], dtype=object)}
        )
        out = db.execute(Join(Scan("sa"), Scan("sb"), ["sa_key"], ["sb_key"]))
        assert out.n_rows == 2

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT SUM(l_val) AS v FROM left, names WHERE l_key = n_key",
            "SELECT SUM(l_val) AS v FROM names, left WHERE n_key = l_key",
            "SELECT SUM(l_val) AS v FROM left TABLESAMPLE (50 PERCENT), "
            "names WHERE l_key = n_key",
            "SELECT SUM(l_val) AS v FROM left, names "
            "WHERE l_key = n_key AND l_val = n_val",
        ],
    )
    def test_integer_to_string_key_join_is_refused_by_name(self, db, text):
        """Both engines, either side order: a typed refusal naming the
        two columns, where a raw ``TypeError`` came out of numpy."""
        db.create_table(
            "names",
            {
                "n_key": np.array(["1", "2", "x"], dtype=object),
                "n_val": np.array([1.0, 2.0, 3.0]),
            },
        )
        for run in (db.sql, db.sql_exact):
            with pytest.raises(SchemaError, match="l_key.*n_key|n_key.*l_key") as err:
                run(text)
            assert "int64" in str(err.value) and "object" in str(err.value)

    def test_computed_key_of_the_wrong_type_is_refused_too(self, db):
        """A key the static walk cannot type is checked once buffered."""
        db.create_table("names", {"n_key": np.array(["1", "x"], dtype=object)})
        doubled = Project(Scan("left"), {"d_key": col("l_key") * 2})
        plan = Join(Scan("names"), doubled, ["n_key"], ["d_key"])
        with pytest.raises(SchemaError, match="n_key.*d_key"):
            db.execute(plan)
        with pytest.raises(SchemaError, match="n_key.*d_key"):
            db.execute_exact(plan)


class TestEstimationOnDegenerateSamples:
    def test_rate_zero_sampling_rejected(self, db):
        """a = 0 means the estimator does not exist — refuse loudly."""
        from repro.errors import EstimationError

        plan = Aggregate(
            TableSample(Scan("left"), LineageHashBernoulli(0.0, 3)),
            [AggSpec("sum", col("l_val"), "s")],
        )
        with pytest.raises(EstimationError, match="a = 0"):
            db.estimate(plan, seed=0)

    def test_estimate_from_empty_draw(self, db):
        """A positive-rate sample that caught nothing still yields a
        well-formed (zero) estimate."""
        method = LineageHashBernoulli(0.001, 3)
        assert not method.keep(np.arange(4, dtype=np.int64)).any()
        plan = Aggregate(
            TableSample(Scan("left"), method),
            [AggSpec("sum", col("l_val"), "s")],
        )
        res = db.estimate(plan, seed=0)
        est = res.estimates["s"]
        assert est.value == 0.0
        assert est.n_sample == 0

    def test_single_row_sample(self, db):
        db.create_table(
            "single", {"s_val": np.array([42.0])}
        )
        plan = Aggregate(
            TableSample(Scan("single"), Bernoulli(1.0)),
            [AggSpec("sum", col("s_val"), "s")],
        )
        res = db.estimate(plan, seed=0)
        assert res["s"] == pytest.approx(42.0)

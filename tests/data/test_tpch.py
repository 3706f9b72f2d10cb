"""Data-generator tests: determinism, integrity, distributions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels
from repro.data.distributions import skewed_ints, zipf_ranks
from repro.data.tpch import TPCH_TABLES, generate_tpch, tpch_database
from repro.data.workloads import figure4_plan, figure5_plan, query1_plan
from repro.errors import ReproError
from repro.relational.table import Table

#: The introduction's estimation query, in the paper's SQL.
QUERY1_SQL = """
SELECT SUM(l_discount * (1.0 - l_tax)) AS revenue
FROM lineitem TABLESAMPLE (10 PERCENT),
     orders TABLESAMPLE (1000 ROWS)
WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0
"""

#: The Figure 4 four-relation query.
FIGURE4_SQL = """
SELECT SUM(l_extendedprice * (1.0 - l_discount)) AS revenue
FROM lineitem TABLESAMPLE (10 PERCENT),
     orders TABLESAMPLE (1000 ROWS),
     customer,
     part TABLESAMPLE (50 PERCENT)
WHERE l_orderkey = o_orderkey
  AND o_custkey = c_custkey
  AND l_partkey = p_partkey
"""


class TestDistributions:
    def test_zipf_support(self):
        rng = np.random.default_rng(0)
        ranks = zipf_ranks(10_000, 50, 1.0, rng)
        assert ranks.min() >= 0 and ranks.max() < 50

    def test_zipf_skew_increases_with_alpha(self):
        rng = np.random.default_rng(0)
        flat = zipf_ranks(20_000, 100, 0.0, rng)
        skewed = zipf_ranks(20_000, 100, 1.5, rng)
        # Rank 0 share grows with alpha.
        assert (skewed == 0).mean() > (flat == 0).mean() * 3

    def test_zipf_alpha_zero_uniform(self):
        rng = np.random.default_rng(1)
        ranks = zipf_ranks(50_000, 10, 0.0, rng)
        counts = np.bincount(ranks, minlength=10)
        assert np.all(np.abs(counts - 5000) < 400)

    def test_skewed_ints_permutes_popularity(self):
        rng = np.random.default_rng(2)
        ids = skewed_ints(10_000, 100, rng, alpha=1.2)
        top = np.argmax(np.bincount(ids, minlength=100))
        # With the shuffle the most popular id is rarely id 0.
        unshuffled = skewed_ints(
            10_000, 100, np.random.default_rng(2), alpha=1.2, shuffle=False
        )
        assert np.argmax(np.bincount(unshuffled, minlength=100)) == 0
        assert ids.min() >= 0 and ids.max() < 100
        assert top < 100

    def test_invalid_support(self):
        with pytest.raises(ValueError):
            zipf_ranks(10, 0, 1.0, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "n_draws, n_values, alpha",
        [
            (5_000, 2_000, 0.8),
            (5_000, 300, 0.6),
            (2_000, 7, 0.0),  # uniform
            (1_000, 1, 0.8),  # one value
            (3_000, 500, 50.0),  # a flat cdf tail full of ties
            (0, 10, 1.0),  # no draws
        ],
    )
    def test_zipf_guide_table_equals_binary_search(
        self, n_draws, n_values, alpha
    ):
        weights = 1.0 / np.power(
            np.arange(1, n_values + 1, dtype=np.float64), alpha
        )
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        for seed in range(40):
            ranks = zipf_ranks(
                n_draws, n_values, alpha, np.random.default_rng(seed)
            )
            u = np.random.default_rng(seed).random(n_draws)
            expected = np.searchsorted(cdf, u, side="left")
            assert ranks.dtype == np.int64
            np.testing.assert_array_equal(ranks, expected)


class TestGenerator:
    def test_deterministic(self):
        a = generate_tpch(scale=0.01, seed=5)
        b = generate_tpch(scale=0.01, seed=5)
        assert list(a) == list(b)
        for name in a:
            assert a[name].schema.names == b[name].schema.names
            for column in a[name].schema.names:
                np.testing.assert_array_equal(
                    a[name].column(column), b[name].column(column)
                )

    def test_different_seeds_differ(self):
        a = generate_tpch(scale=0.01, seed=5)
        b = generate_tpch(scale=0.01, seed=6)
        assert not np.array_equal(
            a["orders"].column("o_totalprice"),
            b["orders"].column("o_totalprice"),
        )

    def test_cardinalities_scale(self):
        small = generate_tpch(scale=0.01, seed=0)
        large = generate_tpch(scale=0.1, seed=0)
        assert large["orders"].n_rows > 5 * small["orders"].n_rows
        assert large["orders"].n_rows == round(TPCH_TABLES["orders"] * 0.1)

    def test_foreign_keys_valid(self):
        tables = generate_tpch(scale=0.02, seed=1)
        orders = tables["orders"]
        lineitem = tables["lineitem"]
        customer = tables["customer"]
        part = tables["part"]
        assert orders.column("o_custkey").max() < customer.n_rows
        assert lineitem.column("l_orderkey").max() < orders.n_rows
        assert lineitem.column("l_partkey").max() < part.n_rows

    def test_every_order_has_lines(self):
        tables = generate_tpch(scale=0.02, seed=1)
        keys = set(tables["lineitem"].column("l_orderkey").tolist())
        assert keys == set(range(tables["orders"].n_rows))

    def test_lineitem_numbering(self):
        tables = generate_tpch(scale=0.01, seed=3)
        ln = tables["lineitem"].column("l_linenumber")
        assert ln.min() == 1 and ln.max() <= 7

    def test_invalid_scale(self):
        with pytest.raises(ReproError):
            generate_tpch(scale=0)

    @pytest.mark.parametrize(
        "scale, seed", [(0.0001, 0), (0.0001, 3), (0.2, 9)]
    )
    def test_string_pairs_equal_factorize(self, scale, seed):
        tables = generate_tpch(scale, seed)
        absent = 0
        for table in tables.values():
            for name in table.schema.names:
                column = table.column(name)
                if column.dtype != object:
                    continue
                codes, values = table.columns.encoded(name)
                want_codes, want_values = kernels.factorize(column)
                assert codes.dtype == want_codes.dtype == np.int32
                np.testing.assert_array_equal(codes, want_codes)
                assert values.dtype == object
                assert values.tolist() == want_values.tolist()
                absent += len(values) < {
                    "c_mktsegment": 5,
                    "p_brand": 25,
                    "o_orderstatus": 3,
                    "l_returnflag": 3,
                    "l_linestatus": 2,
                }[name]
        if scale < 0.001:
            # Five parts cannot carry 25 brands: the dictionary holds
            # only the values that occur, as factorize's does.
            assert absent > 0

    def test_persisted_generated_table_equals_plain_strings(self, tmp_path):
        for name, table in generate_tpch(0.05, 4).items():
            plain = Table(
                name,
                {
                    c: np.array(table.column(c).tolist(), dtype=object)
                    if table.column(c).dtype == object
                    else table.column(c)
                    for c in table.schema.names
                },
            )
            generated_dir = tmp_path / "generated" / name
            plain_dir = tmp_path / "plain" / name
            table.persist(generated_dir)
            plain.persist(plain_dir)
            files = sorted(p.name for p in generated_dir.iterdir())
            assert files == sorted(p.name for p in plain_dir.iterdir())
            for file_name in files:
                assert (generated_dir / file_name).read_bytes() == (
                    plain_dir / file_name
                ).read_bytes(), (name, file_name)

    def test_database_helper(self):
        db = tpch_database(scale=0.01, seed=0)
        assert set(db.tables) == set(TPCH_TABLES) | {"lineitem"}


class TestWorkloads:
    def test_query1_sql_runs(self, tpch_db):
        res = tpch_db.sql(QUERY1_SQL, seed=1)
        exact = tpch_db.sql_exact(QUERY1_SQL).to_rows()[0][0]
        est = res.estimates["revenue"]
        # Single draw: just confirm the right order of magnitude and a
        # usable interval (full calibration is covered elsewhere).
        assert est.value > 0
        assert est.ci(0.999, "chebyshev").contains(exact) or (
            abs(est.value - exact) / exact < 0.5
        )

    def test_query1_plan_equals_sql_gus(self, tpch_db):
        sql_plan = tpch_db.plan_sql(QUERY1_SQL)
        manual = query1_plan()
        sql_gus = tpch_db.analyze(sql_plan).params
        manual_gus = tpch_db.analyze(manual).params
        assert sql_gus.approx_equal(manual_gus)

    def test_figure4_sql_matches_plan_builder(self, tpch_db):
        sql_gus = tpch_db.analyze(tpch_db.plan_sql(FIGURE4_SQL)).params
        manual_gus = tpch_db.analyze(figure4_plan()).params
        assert sql_gus.approx_equal(manual_gus)

    def test_figure5_plan_runs(self, tpch_db):
        res = tpch_db.estimate(figure5_plan(seed=4), seed=4)
        assert "revenue" in res.estimates

    def test_all_paper_plans_analyzable(self, tpch_db):
        single_table = tpch_db.plan_sql(
            "SELECT SUM(l_extendedprice) AS total "
            "FROM lineitem TABLESAMPLE (10 PERCENT)"
        )
        plans = {
            "query1": query1_plan(),
            "figure4": figure4_plan(),
            "figure5": figure5_plan(),
            "single_table": single_table,
        }
        for name, plan in plans.items():
            rewrite = tpch_db.analyze(plan)
            assert rewrite.params.a > 0, name

"""Rewriter tests: the paper's Figure 2/4/5 plan transformations."""

from __future__ import annotations

import pytest

from repro.core.gus import bernoulli_gus, without_replacement_gus
from repro.core.algebra import compact_gus, compose_gus, join_gus
from repro.core.rewrite import rewrite_to_top_gus
from repro.errors import PlanError
from repro.relational.expressions import col
from repro.relational.plan import (
    Aggregate,
    AggSpec,
    GUSNode,
    Intersect,
    Join,
    LineageSample,
    Project,
    Scan,
    Select,
    TableSample,
    Union,
    contains_sampling,
    walk,
)
from repro.sampling import (
    Bernoulli,
    BiDimensionalBernoulli,
    LineageHashBernoulli,
    WithoutReplacement,
)

SIZES = {
    "lineitem": 60_000,
    "orders": 150_000,
    "customer": 1_500,
    "part": 2_000,
}


def _query1_child():
    join = Join(
        TableSample(Scan("lineitem"), Bernoulli(0.1)),
        TableSample(Scan("orders"), WithoutReplacement(1000)),
        ["l_orderkey"],
        ["o_orderkey"],
    )
    return Select(join, col("l_extendedprice") > 100.0)


class TestFigure2:
    """Query 1: sampling ops collapse to the single G(a_BW, b̄_BW)."""

    def test_clean_plan_has_no_sampling(self):
        result = rewrite_to_top_gus(_query1_child(), SIZES)
        assert not contains_sampling(result.clean_plan)
        assert contains_sampling(result.analysis_plan)  # the GUS node

    def test_top_gus_matches_example_3(self):
        result = rewrite_to_top_gus(_query1_child(), SIZES)
        expected = join_gus(
            bernoulli_gus("lineitem", 0.1),
            without_replacement_gus("orders", 1000, 150_000),
        )
        assert result.params.approx_equal(expected)
        # The paper's printed values.
        assert result.params.a == pytest.approx(6.667e-4, rel=1e-3)
        assert result.params.b_of([]) == pytest.approx(4.44e-7, rel=1e-2)

    def test_relational_structure_preserved(self):
        result = rewrite_to_top_gus(_query1_child(), SIZES)
        kinds = [type(n).__name__ for n in walk(result.clean_plan)]
        assert kinds == ["Select", "Join", "Scan", "Scan"]

    def test_is_sampled_flag(self):
        result = rewrite_to_top_gus(_query1_child(), SIZES)
        assert result.is_sampled
        plain = rewrite_to_top_gus(Scan("lineitem"), SIZES)
        assert not plain.is_sampled


class TestFigure4:
    """The 4-relation plan: ((l ⋈ o) ⋈ c) ⋈ p."""

    def _plan(self):
        lo = Join(
            TableSample(Scan("lineitem"), Bernoulli(0.1)),
            TableSample(Scan("orders"), WithoutReplacement(1000)),
            ["l_orderkey"],
            ["o_orderkey"],
        )
        loc = Join(lo, Scan("customer"), ["o_custkey"], ["c_custkey"])
        return Join(
            loc,
            TableSample(Scan("part"), Bernoulli(0.5)),
            ["l_partkey"],
            ["p_partkey"],
        )

    def test_paper_coefficients(self):
        result = rewrite_to_top_gus(self._plan(), SIZES)
        g = result.params
        assert g.schema == {"customer", "lineitem", "orders", "part"}
        assert g.a == pytest.approx(3.334e-4, rel=1e-3)
        # Spot-check the Figure 4 table, including customer-involving
        # subsets which must equal their customer-free counterparts.
        assert g.b_of([]) == pytest.approx(1.11e-7, rel=1e-2)
        assert g.b_of(["customer"]) == pytest.approx(1.11e-7, rel=1e-2)
        assert g.b_of(["part"]) == pytest.approx(2.22e-7, rel=1e-2)
        assert g.b_of(["orders", "part"]) == pytest.approx(3.335e-5, rel=1e-2)
        assert g.b_of(
            ["lineitem", "orders", "customer", "part"]
        ) == pytest.approx(3.334e-4, rel=1e-3)

    def test_customer_is_inactive(self):
        result = rewrite_to_top_gus(self._plan(), SIZES)
        assert result.params.inactive_dims() == {"customer"}


class TestFigure5:
    """Query 1 + bi-dimensional Bernoulli sub-sampler."""

    def _plan(self, seed=0):
        sub = BiDimensionalBernoulli(
            {"lineitem": 0.2, "orders": 0.3}, seed=seed
        )
        return LineageSample(_query1_child(), sub)

    def test_paper_coefficients(self):
        result = rewrite_to_top_gus(self._plan(), SIZES)
        g = result.params
        assert g.a == pytest.approx(4e-5, rel=1e-3)
        assert g.b_of([]) == pytest.approx(1.598e-9, rel=1e-2)
        assert g.b_of(["orders"]) == pytest.approx(8e-7, rel=1e-2)
        assert g.b_of(["lineitem"]) == pytest.approx(7.992e-8, rel=1e-2)
        assert g.b_of(["lineitem", "orders"]) == pytest.approx(4e-5, rel=1e-3)

    def test_equals_manual_composition(self):
        result = rewrite_to_top_gus(self._plan(), SIZES)
        g12 = join_gus(
            bernoulli_gus("lineitem", 0.1),
            without_replacement_gus("orders", 1000, 150_000),
        )
        g3 = compose_gus(
            bernoulli_gus("lineitem", 0.2), bernoulli_gus("orders", 0.3)
        )
        assert result.params.approx_equal(compact_gus(g3, g12))


class TestOtherNodes:
    def test_project_passes_through(self):
        plan = Project(
            TableSample(Scan("lineitem"), Bernoulli(0.2)),
            {"x": col("l_extendedprice")},
        )
        result = rewrite_to_top_gus(plan, SIZES)
        assert result.params.a == pytest.approx(0.2)
        assert isinstance(result.clean_plan, Project)

    def test_gusnode_compacts(self):
        inner = TableSample(Scan("lineitem"), Bernoulli(0.5))
        plan = GUSNode(inner, bernoulli_gus("lineitem", 0.4))
        result = rewrite_to_top_gus(plan, SIZES)
        assert result.params.a == pytest.approx(0.2)

    def test_union_of_same_expression(self):
        left = TableSample(Scan("lineitem"), LineageHashBernoulli(0.3, 1))
        right = TableSample(Scan("lineitem"), LineageHashBernoulli(0.4, 2))
        result = rewrite_to_top_gus(Union(left, right), SIZES)
        assert result.params.a == pytest.approx(0.3 + 0.4 - 0.12)

    def test_intersect_of_same_expression(self):
        left = TableSample(Scan("lineitem"), LineageHashBernoulli(0.3, 1))
        right = TableSample(Scan("lineitem"), LineageHashBernoulli(0.4, 2))
        result = rewrite_to_top_gus(Intersect(left, right), SIZES)
        assert result.params.a == pytest.approx(0.12)

    def test_union_of_different_expressions_rejected(self):
        left = TableSample(Scan("lineitem"), Bernoulli(0.3))
        right = Select(
            TableSample(Scan("lineitem"), Bernoulli(0.3)),
            col("l_extendedprice") > 0,
        )
        with pytest.raises(PlanError, match="same"):
            rewrite_to_top_gus(Union(left, right), SIZES)

    def test_aggregate_rejected(self):
        plan = Aggregate(
            Scan("lineitem"), [AggSpec("count", None, "n")]
        )
        with pytest.raises(PlanError, match="SBox"):
            rewrite_to_top_gus(plan, SIZES)

    def test_unknown_table_rejected(self):
        plan = TableSample(Scan("mystery"), Bernoulli(0.5))
        with pytest.raises(PlanError, match="unknown base table"):
            rewrite_to_top_gus(plan, SIZES)

    def test_wor_uses_catalog_cardinality(self):
        plan = TableSample(Scan("customer"), WithoutReplacement(150))
        result = rewrite_to_top_gus(plan, SIZES)
        assert result.params.a == pytest.approx(0.1)


class TestLatticeScaling:
    """A chain of eight joins, ``k`` of them sampled.

    The rewrite keeps every relation in the top GUS's schema, and
    pruning the identity ones leaves a lattice of ``2^k`` cells, so
    the analysis of two sampled relations costs like two, not eight.
    """

    @staticmethod
    def _chain(k_sampled: int, n_total: int = 8):
        sizes = {f"r{i}": 10_000 for i in range(n_total)}
        tree = None
        for i in range(n_total):
            leaf = Scan(f"r{i}")
            if i < k_sampled:
                leaf = TableSample(leaf, Bernoulli(0.5))
            tree = (
                leaf
                if tree is None
                else Join(tree, leaf, [f"k{i - 1}"], [f"k{i}"])
            )
        return tree, sizes

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_pruned_lattice_has_two_to_the_k_cells(self, k):
        tree, sizes = self._chain(k)
        params = rewrite_to_top_gus(tree, sizes).params
        assert params.schema == {f"r{i}" for i in range(8)}
        pruned = params.project_out_inactive()
        assert pruned.schema == {f"r{i}" for i in range(k)}
        assert pruned.lattice.size == 2**k
        assert pruned.a == pytest.approx(0.5**k)

"""Candidate enumeration: decompose / rebuild / enumerate / escalate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.workloads import figure4_plan, figure5_plan, query1_plan
from repro.errors import PlanError
from repro.optimizer import (
    decompose,
    enumerate_assignments,
    escalate_methods,
    join_orders,
    reusable_methods,
)
from repro.optimizer.candidates import is_fully_escalated, make_method
from repro.relational.plan import strip_sampling
from repro.sampling import (
    Bernoulli,
    BlockBernoulli,
    LineageHashBernoulli,
    WithoutReplacement,
)


def _column_owner(db):
    return {
        col: name
        for name, table in db.tables.items()
        for col in table.schema.names
    }


class TestDecompose:
    def test_query1_skeleton(self, tpch_db):
        skeleton = decompose(query1_plan(), _column_owner(tpch_db))
        assert skeleton.relations == ("lineitem", "orders")
        assert skeleton.sampled == ("lineitem", "orders")
        assert isinstance(skeleton.methods["lineitem"], Bernoulli)
        assert isinstance(skeleton.methods["orders"], WithoutReplacement)
        assert skeleton.join_conds == (
            ("lineitem", "l_orderkey", "orders", "o_orderkey"),
        )
        assert len(skeleton.filters) == 1
        assert len(skeleton.specs) == 1

    def test_figure4_has_unsampled_relation(self, tpch_db):
        skeleton = decompose(figure4_plan(), _column_owner(tpch_db))
        assert set(skeleton.relations) == {
            "lineitem",
            "orders",
            "customer",
            "part",
        }
        assert "customer" not in skeleton.methods
        assert len(skeleton.join_conds) == 3

    def test_lineage_sample_refused(self, tpch_db):
        with pytest.raises(PlanError, match="LineageSample"):
            decompose(figure5_plan(), _column_owner(tpch_db))

    def test_rebuild_matches_original_estimand(self, tpch_db):
        """Every (order, methods) rebuild computes the same aggregate."""
        skeleton = decompose(query1_plan(), _column_owner(tpch_db))
        original = tpch_db.execute_exact(query1_plan()).to_rows()[0][0]
        for order in join_orders(skeleton):
            rebuilt = skeleton.build(order=order)
            value = tpch_db.execute_exact(rebuilt).to_rows()[0][0]
            assert value == pytest.approx(original, rel=1e-9)

    def test_rebuild_same_order_same_fingerprint(self, tpch_db):
        """The rebuild is the plan the SQL planner makes of the same
        statement: its single-table filter sits on the table's leaf."""
        skeleton = decompose(query1_plan(), _column_owner(tpch_db))
        rebuilt = skeleton.build()
        planned = tpch_db.plan_sql(
            "SELECT SUM(l_discount * (1.0 - l_tax)) AS revenue "
            "FROM lineitem TABLESAMPLE (10 PERCENT), "
            "orders TABLESAMPLE (1000 ROWS) "
            "WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0"
        )
        assert (
            strip_sampling(rebuilt).fingerprint()
            == strip_sampling(planned).fingerprint()
        )
        again = decompose(planned, _column_owner(tpch_db)).build()
        assert again.fingerprint() == planned.fingerprint()

    def test_bad_order_rejected(self, tpch_db):
        skeleton = decompose(query1_plan(), _column_owner(tpch_db))
        with pytest.raises(PlanError, match="permutation"):
            skeleton.build(order=("lineitem", "part"))


class TestEnumeration:
    def test_families_and_ladder_covered(self, tpch_db):
        skeleton = decompose(query1_plan(), _column_owner(tpch_db))
        assignments = enumerate_assignments(skeleton, tpch_db.sizes())
        labels = [a.label for a in assignments]
        assert labels[0] == "as-written"
        kinds = set()
        for a in assignments:
            for m in a.methods.values():
                kinds.add(type(m))
        assert kinds >= {
            Bernoulli,
            LineageHashBernoulli,
            BlockBernoulli,
            WithoutReplacement,
        }
        # Rate asymmetry must appear (the cartesian block).
        assert any(
            "lineitem=B(0.02)" in label and "orders=B(0.8)" in label
            for label in labels
        )

    def test_uniform_bernoulli_grid_tagged(self, tpch_db):
        skeleton = decompose(query1_plan(), _column_owner(tpch_db))
        assignments = enumerate_assignments(skeleton, tpch_db.sizes())
        uniform = [a for a in assignments if a.uniform_bernoulli]
        assert uniform, "the uniform Bernoulli grid must be tagged"
        for a in uniform:
            rates = {m.p for m in a.methods.values()}
            assert len(rates) == 1
            assert all(type(m) is Bernoulli for m in a.methods.values())

    def test_labels_unique(self, tpch_db):
        skeleton = decompose(figure4_plan(), _column_owner(tpch_db))
        assignments = enumerate_assignments(skeleton, tpch_db.sizes())
        labels = [a.label for a in assignments]
        assert len(labels) == len(set(labels))

    def test_unsampled_relations_stay_unsampled(self, tpch_db):
        skeleton = decompose(figure4_plan(), _column_owner(tpch_db))
        for a in enumerate_assignments(skeleton, tpch_db.sizes()):
            assert "customer" not in a.methods

    def test_wor_never_below_two_rows(self, tpch_db):
        method = make_method("wor", 0.0001, "orders", 100, seed=0)
        assert isinstance(method, WithoutReplacement)
        assert method.size >= 2

    def test_unknown_family_is_a_plan_error(self):
        with pytest.raises(PlanError, match="unknown sampling family 'nope'"):
            make_method("nope", 0.1, "orders", 100, seed=0)

    def test_refused_rate_is_a_plan_error(self):
        with pytest.raises(PlanError, match="not a probability"):
            make_method("bernoulli", 1.5, "orders", 100, seed=0)


class TestJoinOrders:
    def test_original_order_first(self, tpch_db):
        skeleton = decompose(figure4_plan(), _column_owner(tpch_db))
        orders = join_orders(skeleton)
        assert orders[0] == skeleton.relations
        assert all(sorted(o) == sorted(skeleton.relations) for o in orders)
        assert len(orders) == len(set(orders))
        assert len(orders) > 1

    def test_orders_stay_connected(self, tpch_db):
        """No enumerated order introduces a cross product."""
        skeleton = decompose(figure4_plan(), _column_owner(tpch_db))
        adjacency = {}
        for a, _, c, _ in skeleton.join_conds:
            adjacency.setdefault(a, set()).add(c)
            adjacency.setdefault(c, set()).add(a)
        for order in join_orders(skeleton):
            joined = {order[0]}
            for rel in order[1:]:
                assert adjacency[rel] & joined, (order, rel)
                joined.add(rel)


class TestEscalation:
    def test_reusable_swaps_bernoulli_for_hash(self):
        methods = reusable_methods(
            {"lineitem": Bernoulli(0.1), "orders": WithoutReplacement(100)},
            seed=5,
        )
        assert isinstance(methods["lineitem"], LineageHashBernoulli)
        assert methods["lineitem"].p == pytest.approx(0.1)
        assert isinstance(methods["orders"], WithoutReplacement)

    def test_hash_escalation_draws_nested_samples(self):
        """Raising the rate at a fixed seed keeps every prior tuple."""
        rng = np.random.default_rng(0)
        low = LineageHashBernoulli(0.1, seed=42)
        high = LineageHashBernoulli(0.2, seed=42)
        kept_low = low.draw(10_000, rng).rows
        kept_high = high.draw(10_000, rng).rows
        assert np.all(np.isin(kept_low, kept_high))
        assert kept_high.size > kept_low.size

    def test_escalate_doubles_rates_and_caps(self):
        sizes = {"a": 1000, "b": 50}
        methods = {
            "a": LineageHashBernoulli(0.4, seed=1),
            "b": WithoutReplacement(30),
        }
        once = escalate_methods(methods, 2.0, sizes)
        assert once["a"].p == pytest.approx(0.8)
        assert once["b"].size == 50  # capped at the table size
        twice = escalate_methods(once, 2.0, sizes)
        assert twice["a"].p == 1.0
        assert is_fully_escalated(twice, sizes)
        assert not is_fully_escalated(methods, sizes)

    def test_block_wor_fully_escalated_at_all_blocks(self):
        from repro.sampling import BlockWithoutReplacement

        sizes = {"a": 1000}
        partial = {"a": BlockWithoutReplacement(3, 64)}
        full = {"a": BlockWithoutReplacement(16, 64)}  # ceil(1000/64)=16
        assert not is_fully_escalated(partial, sizes)
        assert is_fully_escalated(full, sizes)

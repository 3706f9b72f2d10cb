"""Where the planner puts a WHERE conjunct, and that no answer moves.

A conjunct that reads one table of a join becomes a ``Select`` directly
above that table's leaf; one that reads two tables, an OR across two
tables, and every filter of a single-table query stay above the tree.
Filtering a join input keeps the surviving output rows in the same
relative order, so exact answers, sampled estimates and the synopsis
catalog's keys are those of the plan with every filter on top.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.tpch import tpch_database
from repro.relational import expressions as e
from repro.relational import plan as p

THREE_WAY = (
    "SELECT SUM(l_extendedprice) AS v, COUNT(*) AS n FROM lineitem "
    "TABLESAMPLE (20 PERCENT), orders, customer WHERE l_orderkey = "
    "o_orderkey AND o_custkey = c_custkey AND c_acctbal > 0.0"
)
TWO_SAMPLED = (
    "SELECT SUM(l_extendedprice) AS v FROM lineitem TABLESAMPLE "
    "(30 PERCENT), orders TABLESAMPLE (50 PERCENT) WHERE l_orderkey = "
    "o_orderkey AND l_quantity > 20 AND o_orderdate < 1500 AND "
    "l_extendedprice > o_totalprice * 0.05"
)


@pytest.fixture(scope="module")
def db():
    return tpch_database(0.1, seed=3)


def _leaf_filters(plan: p.PlanNode) -> dict[str, set[str]]:
    """``table -> columns read`` for every Select sitting on a leaf."""
    out = {}
    for node in p.walk(plan):
        if isinstance(node, p.Select) and isinstance(
            node.child, (p.Scan, p.TableSample)
        ):
            leaf = node.child
            scan = leaf if isinstance(leaf, p.Scan) else leaf.child
            out[scan.table_name] = node.predicate.columns_used()
    return out


def _top_filter(plan: p.PlanNode):
    """The Select directly under the aggregate, if any."""
    return plan.child if isinstance(plan.child, p.Select) else None


def _hoisted(plan: p.Aggregate) -> p.Aggregate:
    """The same query with every filter above the join tree."""
    preds: list = []

    def strip(node):
        if isinstance(node, p.Select):
            preds.append(node.predicate)
            return strip(node.child)
        if isinstance(node, p.Join):
            return p.Join(
                strip(node.left), strip(node.right), node.left_keys, node.right_keys
            )
        return node

    core = strip(plan.child)
    return p.Aggregate(p.Select(core, e.and_(*preds[::-1])), plan.specs)


def test_single_table_conjunct_sits_on_its_leaf(db):
    plan = db.plan_sql(THREE_WAY)
    assert _leaf_filters(plan) == {"customer": {"c_acctbal"}}
    assert _top_filter(plan) is None
    # Directly above the leaf: the customer side of the top join.
    top_join = plan.child
    assert isinstance(top_join, p.Join)
    assert isinstance(top_join.right, p.Select)
    assert isinstance(top_join.right.child, p.Scan)


def test_two_table_conjunct_stays_above_the_join(db):
    plan = db.plan_sql(TWO_SAMPLED)
    assert _leaf_filters(plan) == {
        "lineitem": {"l_quantity"},
        "orders": {"o_orderdate"},
    }
    top = _top_filter(plan)
    assert top is not None and isinstance(top.child, p.Join)
    assert top.predicate.columns_used() == {"l_extendedprice", "o_totalprice"}


def test_or_across_two_tables_stays_above_the_join(db):
    plan = db.plan_sql(
        "SELECT COUNT(*) AS n FROM lineitem TABLESAMPLE (30 PERCENT), orders "
        "WHERE l_orderkey = o_orderkey AND (l_quantity > 45 OR o_orderdate < 100)"
    )
    assert _leaf_filters(plan) == {}
    top = _top_filter(plan)
    assert isinstance(top.predicate, e.Or) and isinstance(top.child, p.Join)


def test_single_table_query_keeps_its_filter_on_top(db):
    plan = db.plan_sql(
        "SELECT SUM(l_quantity) AS q FROM lineitem TABLESAMPLE (10 PERCENT) "
        "WHERE l_discount > 0.05"
    )
    assert isinstance(plan.child, p.Select)
    assert isinstance(plan.child.child, p.TableSample)


@pytest.mark.parametrize("text", [THREE_WAY, TWO_SAMPLED])
def test_exact_answers_are_unchanged(db, text):
    plan = db.plan_sql(text)
    want = db.execute_exact(_hoisted(plan)).to_rows()
    assert db.sql_exact(text).to_rows() == want


@pytest.mark.parametrize("text", [THREE_WAY, TWO_SAMPLED])
@pytest.mark.parametrize("chunk_size", [None, 64, 997])
def test_estimates_keep_every_bit(db, text, chunk_size):
    plan = db.plan_sql(text)
    pushed = db.estimate(plan, seed=11, chunk_size=chunk_size)
    hoisted = db.estimate(_hoisted(plan), seed=11, chunk_size=chunk_size)
    assert pushed.sample.n_rows == hoisted.sample.n_rows > 0
    for alias, est in pushed.estimates.items():
        other = hoisted.estimates[alias]
        assert est.value == other.value
        assert est.variance_raw == other.variance_raw


def test_a_family_stored_with_the_filter_on_top_is_still_served():
    db = tpch_database(0.1, seed=3)
    db.attach_catalog()
    plan = db.plan_sql(THREE_WAY)
    stored = db.estimate(_hoisted(plan), seed=5)
    assert stored.reuse is None and len(db.synopses) == 1
    served = db.sql(THREE_WAY, seed=5)
    assert served.reuse is not None and served.reuse.kind == "exact"
    assert served.values == stored.values
    fresh = tpch_database(0.1, seed=3).sql(THREE_WAY, seed=5)
    assert np.array_equal(
        [fresh.estimates[a].variance_raw for a in fresh.estimates],
        [served.estimates[a].variance_raw for a in fresh.estimates],
    )

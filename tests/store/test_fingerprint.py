"""Canonical fingerprints: what the reuse algebra can and cannot see."""

from __future__ import annotations

import numpy as np
import pytest

from repro.relational import plan as p
from repro.relational.expressions import and_, col, lit
from repro.sampling import (
    Bernoulli,
    BlockBernoulli,
    LineageHashBernoulli,
    WithoutReplacement,
)
from repro.sampling.composed import BiDimensionalBernoulli
from repro.store import canonicalize, conjuncts

SIZES = {"t": 100, "u": 50}


def sampled_scan(p_rate: float = 0.1, seed: int | None = None) -> p.PlanNode:
    method = (
        Bernoulli(p_rate)
        if seed is None
        else LineageHashBernoulli(p_rate, seed=seed)
    )
    return p.TableSample(p.Scan("t"), method)


class TestCoreKey:
    def test_sampling_and_selection_do_not_change_core(self):
        plain = canonicalize(p.Scan("t"), SIZES)
        sampled = canonicalize(sampled_scan(0.1), SIZES)
        selected = canonicalize(
            p.Select(sampled_scan(0.5), col("x") > lit(3)), SIZES
        )
        assert plain is not None and sampled is not None
        assert selected is not None
        assert plain.core_key == sampled.core_key == selected.core_key

    def test_different_tables_differ(self):
        a = canonicalize(p.Scan("t"), SIZES)
        b = canonicalize(p.Scan("u"), SIZES)
        assert a is not None and b is not None
        assert a.core_key != b.core_key

    def test_join_order_is_part_of_the_core(self):
        left = p.Join(p.Scan("t"), p.Scan("u"), ["k"], ["k"])
        right = p.Join(p.Scan("u"), p.Scan("t"), ["k"], ["k"])
        a = canonicalize(left, SIZES)
        b = canonicalize(right, SIZES)
        assert a is not None and b is not None
        assert a.core_key != b.core_key

    def test_passthrough_project_is_transparent(self):
        a = canonicalize(p.Project(sampled_scan(0.2), None), SIZES)
        b = canonicalize(sampled_scan(0.2), SIZES)
        assert a is not None and b is not None
        assert a.core_key == b.core_key
        assert a.design.exact_key == b.design.exact_key


class TestDesign:
    def test_rates_and_family(self):
        canon = canonicalize(sampled_scan(0.25, seed=3), SIZES)
        assert canon is not None
        assert canon.design.rate_of("t") == pytest.approx(0.25)
        assert canon.design.rate_of("u") == 1.0  # unsampled
        assert canon.design.bernoulli_only()

    def test_stacked_samplers_multiply(self):
        inner = sampled_scan(0.5, seed=1)
        stacked = p.LineageSample(
            inner, BiDimensionalBernoulli({"t": 0.4}, seed=2)
        )
        canon = canonicalize(stacked, SIZES)
        assert canon is not None
        assert canon.design.rate_of("t") == pytest.approx(0.2)
        assert canon.design.bernoulli_only()

    def test_wor_rate_is_fraction_but_not_bernoulli(self):
        plan = p.TableSample(p.Scan("t"), WithoutReplacement(25))
        canon = canonicalize(plan, SIZES)
        assert canon is not None
        assert canon.design.rate_of("t") == pytest.approx(0.25)
        assert not canon.design.bernoulli_only()

    def test_block_sampling_is_not_bernoulli_family(self):
        plan = p.TableSample(p.Scan("t"), BlockBernoulli(0.5, 10))
        canon = canonicalize(plan, SIZES)
        assert canon is not None
        assert not canon.design.bernoulli_only()

    def test_seed_changes_exact_key_not_rates(self):
        a = canonicalize(sampled_scan(0.1, seed=1), SIZES)
        b = canonicalize(sampled_scan(0.1, seed=2), SIZES)
        assert a is not None and b is not None
        assert a.design.exact_key != b.design.exact_key
        assert a.design.rates == b.design.rates

    def test_unknown_table_size_is_not_canonical(self):
        plan = p.TableSample(p.Scan("t"), WithoutReplacement(5))
        assert canonicalize(plan, {}) is None


class TestPredicates:
    def test_conjuncts_split_and_order_free(self):
        pred_a = col("x") > lit(1)
        pred_b = col("y") < lit(2)
        one = canonicalize(
            p.Select(sampled_scan(), and_(pred_a, pred_b)), SIZES
        )
        other = canonicalize(
            p.Select(p.Select(sampled_scan(), pred_b), pred_a), SIZES
        )
        assert one is not None and other is not None
        assert one.pred_keys == other.pred_keys
        assert len(one.predicates) == 2
        assert one.core_key == other.core_key

    def test_conjuncts_helper(self):
        pred = and_(col("x") > lit(1), col("y") < lit(2), col("z") == lit(0))
        assert len(list(conjuncts(pred))) == 3


class TestOutsideTheAlgebra:
    def test_union_is_not_canonical(self):
        u = p.Union(sampled_scan(0.5, seed=1), sampled_scan(0.5, seed=2))
        assert canonicalize(u, SIZES) is None

    def test_renaming_projection_is_not_canonical(self):
        proj = p.Project(sampled_scan(), {"renamed": col("x")})
        assert canonicalize(proj, SIZES) is None

    def test_gus_node_is_not_canonical(self):
        from repro.core.gus import bernoulli_gus

        node = p.GUSNode(p.Scan("t"), bernoulli_gus("t", 0.5))
        assert canonicalize(node, SIZES) is None

    def test_with_replacement_is_not_canonical(self):
        from repro.sampling.with_replacement import WithReplacement

        plan = p.TableSample(p.Scan("t"), WithReplacement(10))
        assert canonicalize(plan, SIZES) is None


class TestExactKey:
    def test_exact_key_covers_core_design_and_predicates(self):
        base = canonicalize(sampled_scan(0.1, seed=1), SIZES)
        other_seed = canonicalize(sampled_scan(0.1, seed=2), SIZES)
        filtered = canonicalize(
            p.Select(sampled_scan(0.1, seed=1), col("x") > lit(0)), SIZES
        )
        assert base is not None
        assert other_seed is not None and filtered is not None
        assert base.exact_key != other_seed.exact_key
        assert base.exact_key != filtered.exact_key
        again = canonicalize(sampled_scan(0.1, seed=1), SIZES)
        assert again is not None and again.exact_key == base.exact_key

    def test_exact_keys_are_built_once(self):
        # The matcher reads them per candidate per lookup: the sort and
        # the tuple are paid once per plan, not once per access.
        canon = canonicalize(
            p.Select(sampled_scan(0.1, seed=1), col("x") > lit(0)), SIZES
        )
        assert canon is not None
        assert canon.exact_key is canon.exact_key
        assert canon.design.exact_key is canon.design.exact_key
        assert canon.exact_key[1] is canon.design.exact_key


def test_lineage_sample_above_join_canonicalizes():
    join = p.Join(p.Scan("t"), p.Scan("u"), ["k"], ["k"])
    plan = p.LineageSample(
        join, BiDimensionalBernoulli({"t": 0.3, "u": 0.7}, seed=9)
    )
    canon = canonicalize(plan, SIZES)
    assert canon is not None
    assert canon.design.rates == pytest.approx({"t": 0.3, "u": 0.7})
    assert canon.relations == frozenset({"t", "u"})


def test_with_replacement_gus_failure_is_caught_not_raised():
    # Regression guard: canonicalize must swallow NotGUSError, not leak it.
    plan = p.CrossProduct(
        p.TableSample(p.Scan("t"), Bernoulli(0.5)), p.Scan("u")
    )
    canon = canonicalize(plan, SIZES)
    assert canon is not None
    assert np.isclose(canon.design.rate_of("t"), 0.5)

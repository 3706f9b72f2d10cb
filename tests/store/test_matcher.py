"""Reuse correctness: bit-identity, pushdown, and thinning unbiasedness.

The three reuse modes carry three different guarantees, each checked
here at the strength the theory allows:

* **exact** — serving a stored sample must reproduce the storing run
  bit for bit (values, variances, sample sizes), property-tested over
  rates, seeds, and aggregate kinds;
* **pushdown** — filtering a stored sample must equal estimating the
  filtered query directly on the same draw (the GUS parameters do not
  change under selection);
* **thin** — residual Bernoulli thinning with *compacted* GUS
  coefficients must stay unbiased, verified by exact enumeration of
  the full two-stage (store, thin) sampling distribution on small
  relations — for the estimate and for Theorem 1's variance estimate.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algebra import join_gus
from repro.core.estimator import estimate_sum
from repro.core.gus import bernoulli_gus, identity_gus
from repro.data.tpch import tpch_database
from repro.store import thinned_params


def fresh_tpch(catalog: bool):
    db = tpch_database(scale=0.02, seed=7)
    if catalog:
        db.attach_catalog()
    return db


QUERY_TEMPLATES = {
    "sum": "SELECT SUM(l_extendedprice) AS v FROM lineitem "
    "TABLESAMPLE ({rate} PERCENT) REPEATABLE ({seed})",
    "count": "SELECT COUNT(*) AS v FROM lineitem "
    "TABLESAMPLE ({rate} PERCENT) REPEATABLE ({seed})",
    "avg": "SELECT AVG(l_quantity) AS v FROM lineitem "
    "TABLESAMPLE ({rate} PERCENT) REPEATABLE ({seed})",
}


def assert_bit_identical(a, b):
    assert a.values == b.values
    for alias, est in a.estimates.items():
        other = b.estimates[alias]
        assert est.value == other.value
        assert est.variance_raw == other.variance_raw
        assert est.n_sample == other.n_sample


class TestExactReuse:
    @settings(max_examples=20, deadline=None)
    @given(
        rate=st.sampled_from([5, 10, 20, 50]),
        seed=st.integers(min_value=0, max_value=50),
        kind=st.sampled_from(sorted(QUERY_TEMPLATES)),
    )
    def test_bit_identical_to_fresh_run(self, rate, seed, kind):
        query = QUERY_TEMPLATES[kind].format(rate=rate, seed=seed)
        cached = fresh_tpch(catalog=True)
        first = cached.sql(query, seed=1)
        second = cached.sql(query, seed=1)
        fresh = fresh_tpch(catalog=False).sql(query, seed=1)
        assert first.reuse is None
        assert second.reuse is not None and second.reuse.kind == "exact"
        assert_bit_identical(second, first)
        assert_bit_identical(second, fresh)

    def test_shared_child_across_aggregates(self):
        db = fresh_tpch(catalog=True)
        db.sql(QUERY_TEMPLATES["sum"].format(rate=10, seed=3), seed=1)
        result = db.sql(
            QUERY_TEMPLATES["count"].format(rate=10, seed=3), seed=2
        )
        assert result.reuse is not None and result.reuse.kind == "exact"

    def test_grouped_exact_reuse_bit_identical(self):
        query = (
            "SELECT l_returnflag, SUM(l_quantity) AS q, COUNT(*) AS n "
            "FROM lineitem TABLESAMPLE (20 PERCENT) REPEATABLE (5) "
            "GROUP BY l_returnflag"
        )
        cached = fresh_tpch(catalog=True)
        first = cached.sql(query, seed=1)
        second = cached.sql(query, seed=1)
        fresh = fresh_tpch(catalog=False).sql(query, seed=1)
        assert second.reuse is not None and second.reuse.kind == "exact"
        for other in (first, fresh):
            for name in first.keys:
                assert np.array_equal(second.keys[name], other.keys[name])
            for alias in first.values:
                assert np.array_equal(
                    second.values[alias], other.values[alias]
                )
                assert np.array_equal(
                    second.estimates[alias].variance_raw,
                    other.estimates[alias].variance_raw,
                )


class TestPushdownReuse:
    def test_filter_applied_to_stored_sample(self):
        base = "SELECT SUM(l_extendedprice) AS v FROM lineitem " \
            "TABLESAMPLE (20 PERCENT) REPEATABLE (4)"
        filtered = base + " WHERE l_quantity > 30"
        cached = fresh_tpch(catalog=True)
        stored = cached.sql(base, seed=1)
        served = cached.sql(filtered, seed=2)
        assert served.reuse is not None
        assert served.reuse.kind == "pushdown"
        assert served.reuse.residual_predicates == 1
        # Same GUS parameters; the sample is the stored draw, filtered.
        assert served.gus.approx_equal(stored.gus)
        direct = fresh_tpch(catalog=False).sql(filtered, seed=1)
        assert served.estimates["v"].n_sample == direct.estimates["v"].n_sample
        assert served.values["v"] == pytest.approx(direct.values["v"])

    def test_superset_predicates_do_not_match(self):
        cached = fresh_tpch(catalog=True)
        filtered = (
            "SELECT SUM(l_extendedprice) AS v FROM lineitem "
            "TABLESAMPLE (20 PERCENT) REPEATABLE (4) WHERE l_quantity > 30"
        )
        base = (
            "SELECT SUM(l_extendedprice) AS v FROM lineitem "
            "TABLESAMPLE (20 PERCENT) REPEATABLE (4)"
        )
        cached.sql(filtered, seed=1)
        # The *unfiltered* query must not be served from the filtered
        # sample (it would silently drop rows).
        result = cached.sql(base, seed=1)
        assert result.reuse is None


class TestThinningAlgebra:
    def test_thinned_params_match_direct_bernoulli(self):
        stored = bernoulli_gus("t", 0.8)
        thinned = thinned_params(stored, (("t", 0.5),))
        assert thinned.approx_equal(bernoulli_gus("t", 0.4))

    def test_thinned_params_two_relations(self):
        stored = join_gus(bernoulli_gus("t", 0.8), identity_gus({"u"}))
        thinned = thinned_params(stored, (("t", 0.5), ("u", 0.25)))
        expect = join_gus(bernoulli_gus("t", 0.4), bernoulli_gus("u", 0.25))
        assert thinned.approx_equal(expect)

    def test_served_params_equal_requested_design(self):
        # End to end: a thin-served query's GUS must equal what the
        # query's own analysis would have produced (Bernoulli stored).
        db = fresh_tpch(catalog=True)
        db.sql(
            "SELECT SUM(l_extendedprice) AS v FROM lineitem "
            "TABLESAMPLE (20 PERCENT) REPEATABLE (4)",
            seed=1,
        )
        query = (
            "SELECT SUM(l_extendedprice) AS v FROM lineitem "
            "TABLESAMPLE (10 PERCENT) REPEATABLE (4)"
        )
        served = db.sql(query, seed=2)
        assert served.reuse is not None and served.reuse.kind == "thin"
        requested = db.analyze(db.plan_sql(query)).params
        assert served.gus.project_out_inactive().approx_equal(
            requested.project_out_inactive()
        )

    def test_thin_replicates_with_different_seeds_stay_distinct(self):
        # Two thin-served replicates at the same reduced rate but
        # different REPEATABLE seeds must get *different* residual
        # draws (the thin seed folds in the requested design identity),
        # while repeating either statement stays deterministic.
        db = fresh_tpch(catalog=True)
        db.sql(
            "SELECT SUM(l_extendedprice) AS v FROM lineitem "
            "TABLESAMPLE (40 PERCENT) REPEATABLE (1)",
            seed=1,
        )
        template = (
            "SELECT SUM(l_extendedprice) AS v FROM lineitem "
            "TABLESAMPLE (20 PERCENT) REPEATABLE ({seed})"
        )
        a = db.sql(template.format(seed=5), seed=1)
        b = db.sql(template.format(seed=6), seed=1)
        assert a.reuse is not None and a.reuse.kind == "thin"
        assert b.reuse is not None and b.reuse.kind == "thin"
        assert a.values != b.values
        repeat = db.sql(template.format(seed=5), seed=2)
        assert repeat.values == a.values  # deterministic per design

    def test_same_rate_different_seed_is_never_substituted(self):
        # REPEATABLE(7) at 20% must NOT be served the REPEATABLE(11)
        # realization: same rate + different identity means the user
        # asked for a different draw.  Reuse only swaps realizations
        # alongside a genuine rate reduction.
        db = fresh_tpch(catalog=True)
        db.sql(
            "SELECT SUM(l_extendedprice) AS v FROM lineitem "
            "TABLESAMPLE (20 PERCENT) REPEATABLE (11)",
            seed=1,
        )
        query = (
            "SELECT SUM(l_extendedprice) AS v FROM lineitem "
            "TABLESAMPLE (20 PERCENT) REPEATABLE (7)"
        )
        served = db.sql(query, seed=1)
        assert served.reuse is None
        fresh = fresh_tpch(catalog=False).sql(query, seed=1)
        assert served.values == fresh.values

    def test_rng_bernoulli_replicates_stay_independent(self):
        # Plain (non-REPEATABLE) Bernoulli draws through the executor
        # RNG: distinct seeds are distinct draw tokens, so a catalog
        # must not serve seed=2 the seed=1 realization.
        query = (
            "SELECT SUM(l_extendedprice) AS v FROM lineitem "
            "TABLESAMPLE (20 PERCENT)"
        )
        cached = fresh_tpch(catalog=True)
        r1 = cached.sql(query, seed=1)
        r2 = cached.sql(query, seed=2)
        assert r2.reuse is None
        plain = fresh_tpch(catalog=False)
        assert r1.values == plain.sql(query, seed=1).values
        assert r2.values == plain.sql(query, seed=2).values
        assert r1.values != r2.values
        # ... while an actual repeat (same seed, same token) still hits.
        r3 = cached.sql(query, seed=1)
        assert r3.reuse is not None and r3.reuse.kind == "exact"
        assert r3.values == r1.values

    def test_thinner_store_cannot_serve_wider_query(self):
        db = fresh_tpch(catalog=True)
        db.sql(
            "SELECT SUM(l_extendedprice) AS v FROM lineitem "
            "TABLESAMPLE (5 PERCENT) REPEATABLE (4)",
            seed=1,
        )
        result = db.sql(
            "SELECT SUM(l_extendedprice) AS v FROM lineitem "
            "TABLESAMPLE (20 PERCENT) REPEATABLE (4)",
            seed=1,
        )
        assert result.reuse is None  # rate dominance failed -> fresh run


def bernoulli_subsets(ids, p):
    """(probability, kept) pairs of a Bernoulli(p) draw over ids."""
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            yield p ** r * (1.0 - p) ** (len(ids) - r), frozenset(combo)


class TestThinningUnbiasedByEnumeration:
    """Exact enumeration of the (store, thin) two-stage distribution."""

    @pytest.mark.parametrize(
        "p_store,ratio", [(0.8, 0.5), (0.5, 0.4), (1.0, 0.3)]
    )
    def test_single_relation_estimate_and_variance(self, p_store, ratio):
        f = np.array([3.0, -1.0, 4.0, 1.5, 5.0])
        ids = tuple(range(f.size))
        truth = float(f.sum())
        params = thinned_params(bernoulli_gus("t", p_store), (("t", ratio),))

        mean = 0.0
        second_moment = 0.0
        expected_var_estimate = 0.0
        for prob_store, kept_store in bernoulli_subsets(ids, p_store):
            for prob_thin, kept in bernoulli_subsets(
                sorted(kept_store), ratio
            ):
                prob = prob_store * prob_thin
                idx = np.array(sorted(kept), dtype=np.int64)
                est = estimate_sum(
                    params, f[idx], {"t": idx.astype(np.int64)}
                )
                mean += prob * est.value
                second_moment += prob * est.value**2
                expected_var_estimate += prob * est.variance_raw
        assert mean == pytest.approx(truth, rel=1e-9)
        true_variance = second_moment - truth**2
        assert expected_var_estimate == pytest.approx(
            true_variance, rel=1e-7, abs=1e-7
        )

    def test_join_with_cross_relation_thinning(self):
        # Stored: t sampled at 0.7, u unsampled.  Query: t at 0.35 and
        # u at 0.5 -> residual thinning on both dimensions at once.
        rows = [
            ({"t": 0, "u": 0}, 2.0),
            ({"t": 0, "u": 1}, -1.0),
            ({"t": 1, "u": 0}, 3.0),
            ({"t": 2, "u": 1}, 1.0),
        ]
        t_ids, u_ids = (0, 1, 2), (0, 1)
        p_store, r_t, r_u = 0.7, 0.5, 0.5
        stored = join_gus(bernoulli_gus("t", p_store), identity_gus({"u"}))
        params = thinned_params(stored, (("t", r_t), ("u", r_u)))
        truth = sum(f for _, f in rows)

        mean = 0.0
        total_prob = 0.0
        for prob_s, kept_s in bernoulli_subsets(t_ids, p_store):
            for prob_t, kept_t in bernoulli_subsets(sorted(kept_s), r_t):
                for prob_u, kept_u in bernoulli_subsets(u_ids, r_u):
                    prob = prob_s * prob_t * prob_u
                    total_prob += prob
                    surviving = [
                        (lin, f)
                        for lin, f in rows
                        if lin["t"] in kept_t and lin["u"] in kept_u
                    ]
                    lineage = {
                        "t": np.array(
                            [lin["t"] for lin, _ in surviving],
                            dtype=np.int64,
                        ),
                        "u": np.array(
                            [lin["u"] for lin, _ in surviving],
                            dtype=np.int64,
                        ),
                    }
                    values = np.array([f for _, f in surviving])
                    est = estimate_sum(params, values, lineage)
                    mean += prob * est.value
        assert total_prob == pytest.approx(1.0, abs=1e-12)
        assert mean == pytest.approx(truth, rel=1e-9)

    def test_thinned_sample_is_statistically_sane_end_to_end(self):
        # Through the real hash filters: the thin-served estimate over
        # many stored seeds should average near the truth.
        estimates = []
        for seed in range(40):
            db = tpch_database(scale=0.01, seed=11)
            db.attach_catalog()
            db.sql(
                "SELECT SUM(l_quantity) AS v FROM lineitem "
                f"TABLESAMPLE (80 PERCENT) REPEATABLE ({seed})",
                seed=1,
            )
            served = db.sql(
                "SELECT SUM(l_quantity) AS v FROM lineitem "
                f"TABLESAMPLE (40 PERCENT) REPEATABLE ({seed})",
                seed=2,
            )
            assert served.reuse is not None and served.reuse.kind == "thin"
            estimates.append(served.values["v"])
        truth = float(
            tpch_database(scale=0.01, seed=11)
            .sql_exact("SELECT SUM(l_quantity) AS v FROM lineitem")
            .column("v")[0]
        )
        mean = float(np.mean(estimates))
        spread = float(np.std(estimates)) / math.sqrt(len(estimates))
        assert abs(mean - truth) < 4.0 * spread + 1e-9


# -- a hit gathers only what the estimate reads ---------------------------

LINEITEM = "FROM lineitem TABLESAMPLE ({rate} PERCENT) REPEATABLE ({seed})"
JOINED = (
    "FROM lineitem TABLESAMPLE ({rate} PERCENT) REPEATABLE ({seed}), orders "
    "WHERE l_orderkey = o_orderkey"
)
AT_VERSION = (
    "FROM lineitem AT VERSION 1 TABLESAMPLE ({rate} PERCENT) "
    "REPEATABLE ({seed})"
)

#: name -> (stored statement, wanted statement, reuse kind it is served by)
PRUNED_HIT_CASES = {
    "thin": (
        "SELECT SUM(l_extendedprice) AS v " + LINEITEM.format(rate=40, seed=4),
        "SELECT AVG(l_quantity) AS v " + LINEITEM.format(rate=10, seed=9),
        "thin",
    ),
    "thin+predicate": (
        "SELECT SUM(l_extendedprice) AS v " + LINEITEM.format(rate=40, seed=4),
        "SELECT SUM(l_extendedprice) AS v, COUNT(*) AS n "
        + LINEITEM.format(rate=10, seed=9)
        + " WHERE l_quantity > 20 AND l_discount < 0.08",
        "thin",
    ),
    "pushdown": (
        "SELECT SUM(l_extendedprice) AS v " + LINEITEM.format(rate=40, seed=4),
        "SELECT SUM(l_extendedprice * (1.0 - l_discount)) AS v "
        + LINEITEM.format(rate=40, seed=4)
        + " WHERE l_quantity > 20",
        "pushdown",
    ),
    "exact": (
        "SELECT SUM(l_extendedprice) AS v " + LINEITEM.format(rate=40, seed=4),
        "SELECT l_returnflag, SUM(l_quantity) AS v "
        + LINEITEM.format(rate=40, seed=4)
        + " GROUP BY l_returnflag",
        "exact",
    ),
    "join family": (
        "SELECT SUM(l_extendedprice) AS v " + JOINED.format(rate=40, seed=4),
        "SELECT o_orderstatus, SUM(l_extendedprice) AS v, COUNT(*) AS n "
        + JOINED.format(rate=10, seed=9)
        + " AND o_totalprice > 1000 GROUP BY o_orderstatus",
        "thin",
    ),
    "at version": (
        "SELECT SUM(l_extendedprice) AS v " + AT_VERSION.format(rate=40, seed=4),
        "SELECT SUM(l_extendedprice) AS v "
        + AT_VERSION.format(rate=10, seed=9)
        + " WHERE l_quantity > 20",
        "thin",
    ),
}


def versioned_tpch(catalog: bool):
    """``fresh_tpch`` after one ``lineitem`` write, so version 1 exists."""
    db = fresh_tpch(catalog=catalog)
    lineitem = db.table("lineitem")
    db.update_table(
        "lineitem",
        lineitem.with_columns(
            {"l_extendedprice": lineitem.column("l_extendedprice") * 1.25}
        ),
    )
    return db


def assert_same_answer(got, want):
    """Bit for bit: values, raw variances, sample counts, group keys."""
    assert got.estimates.keys() == want.estimates.keys()
    for alias, est in want.estimates.items():
        assert np.array_equal(got.values[alias], want.values[alias])
        assert np.array_equal(got.estimates[alias].variance_raw, est.variance_raw)
        if hasattr(want, "keys"):
            assert np.array_equal(got.estimates[alias].n_samples, est.n_samples)
        else:
            assert got.estimates[alias].n_sample == est.n_sample
    for name, col in getattr(want, "keys", {}).items():
        assert np.array_equal(got.keys[name], col)


def stored_then_wanted(case: str):
    """A catalog holding the case's stored sample, plus the wanted
    statement's plan, reuse decision and needed-column set."""
    from repro.store import ReuseMatcher, canonicalize
    from repro.store.fingerprint import draw_token_of

    stored_sql, wanted_sql, kind = PRUNED_HIT_CASES[case]
    db = versioned_tpch(catalog=True)
    assert db.sql(stored_sql, seed=1).reuse is None
    plan = db.plan_sql(wanted_sql)
    canon = canonicalize(
        plan.child, db.sizes(), draw_token=draw_token_of(db.rng(1))
    )
    needed = set(getattr(plan, "keys", ()))
    for spec in plan.specs:
        if spec.expr is not None:
            needed |= spec.expr.columns_used()
    for pred in canon.predicates:
        needed |= pred.columns_used()
    needed = frozenset(needed)
    decision = ReuseMatcher(db.synopses).peek(canon, required_columns=needed)
    assert decision is not None and decision.kind == kind
    return db, wanted_sql, plan, decision, needed


@pytest.mark.parametrize("case", sorted(PRUNED_HIT_CASES))
class TestHitGathersOnlyNeededColumns:
    def test_pruned_materialize_equals_full_width(self, case):
        from repro.store import materialize

        _, _, _, decision, needed = stored_then_wanted(case)
        syn = decision.synopsis
        stored_before = syn.sample
        stored_columns = dict(stored_before.columns)
        full, full_params, full_clean, full_info = materialize(decision)
        pruned, params, clean, info = materialize(decision, needed)
        assert set(full.columns) == set(stored_columns)
        assert set(pruned.columns) == needed < set(stored_columns)
        assert pruned.n_rows == full.n_rows > 0
        for name in needed:
            assert np.array_equal(pruned.columns[name], full.columns[name])
        assert pruned.lineage.keys() == full.lineage.keys()
        for rel, ids in full.lineage.items():
            assert np.array_equal(pruned.lineage[rel], ids)
        assert params.lattice == full_params.lattice
        assert params.a == full_params.a
        assert np.array_equal(params.b, full_params.b)
        assert info == full_info
        assert clean.fingerprint() == full_clean.fingerprint()
        # The stored synopsis is untouched: same object, every column.
        assert syn.sample is stored_before
        assert all(
            syn.sample.columns[name] is col
            for name, col in stored_columns.items()
        )
        assert list(syn.sample.columns) == list(stored_columns)

    def test_hit_answer_equals_the_full_width_route(self, case):
        from repro.core.rewrite import RewriteResult
        from repro.store import materialize

        db, wanted_sql, plan, decision, needed = stored_then_wanted(case)
        sample, params, clean, _ = materialize(decision)
        reference = db.sbox().estimate_from_sample(
            plan, sample, RewriteResult(clean, params)
        )
        served = db.sql(wanted_sql, seed=1)
        assert served.reuse is not None
        assert served.reuse.kind == decision.kind
        assert set(served.sample.columns) == needed
        assert served.sample.n_rows == sample.n_rows
        assert_same_answer(served, reference)

    def test_pending_columns_change_no_answer(self, case):
        """The miss holds its columns as pending gathers and the hit
        reads them out of the synopsis on demand: neither answer may
        differ from the one computed with every column copied."""
        stored_sql, wanted_sql, kind = PRUNED_HIT_CASES[case]
        lazy = versioned_tpch(catalog=True)
        miss = lazy.sql(stored_sql, seed=1)
        hit = lazy.sql(wanted_sql, seed=1)
        assert miss.reuse is None and hit.reuse.kind == kind
        free = versioned_tpch(catalog=False)
        assert_same_answer(miss, free.sql(stored_sql, seed=1))
        if kind != "thin":
            # Same design, same draw: the catalog-free run folds the
            # very rows the hit filtered out of the stored sample.
            assert_same_answer(hit, free.sql(wanted_sql, seed=1))
        # A thinned realization is one no catalog-free run draws, so
        # the reference is a catalog whose stored sample had every
        # column read before the hit — what an eager gather stores.
        eager = versioned_tpch(catalog=True)
        eager.sql(stored_sql, seed=1)
        for syn in eager.synopses._entries.values():
            dict(syn.sample.columns)
        assert_same_answer(hit, eager.sql(wanted_sql, seed=1))


def test_thin_hit_with_predicate_gathers_at_most_the_needed_columns(
    monkeypatch,
):
    """Every filter on the hit path is a ``Table.take``: none of them may
    gather a column the estimate does not read (11 at full width)."""
    from repro.relational.table import Table

    db, wanted_sql, _, _, needed = stored_then_wanted("thin+predicate")
    widths: list[int] = []
    take = Table.take

    def counting_take(self, indices):
        widths.append(len(self.columns))
        return take(self, indices)

    monkeypatch.setattr(Table, "take", counting_take)
    served = db.sql(wanted_sql, seed=1)
    assert served.reuse is not None and served.reuse.kind == "thin"
    assert served.reuse.residual_predicates == 2
    assert len(widths) >= 2  # the residual predicates and the thinning
    assert max(widths) <= len(needed) < len(db.table("lineitem").columns)


# -- a miss copies only the columns that are read --------------------------
#
# Counted through ``repro.relational.table._gather`` (the ``gathers``
# fixture): the one function that runs a pending column gather.


class TestMissGathersOnDemand:
    def test_sum_miss_gathers_one_column_and_count_none(self, gathers):
        db = fresh_tpch(catalog=True)
        lineitem = db.table("lineitem")
        summed = db.sql(
            "SELECT SUM(l_extendedprice) AS v "
            + LINEITEM.format(rate=20, seed=4),
            seed=1,
        )
        assert summed.reuse is None and len(db.synopses) == 1
        # Draw, put and estimate together: one column (11 when
        # ``Table.take`` copied the full width), straight from the base.
        assert len(gathers) == 1
        assert np.shares_memory(
            gathers[0][0], lineitem.column("l_extendedprice")
        )
        del gathers[:]
        counted = db.sql(
            "SELECT COUNT(*) AS v " + LINEITEM.format(rate=20, seed=5), seed=1
        )
        assert counted.reuse is None and len(db.synopses) == 2
        assert gathers == []
        # Both stored samples still *have* every column, sized in full.
        for syn in db.synopses._entries.values():
            assert syn.columns == frozenset(lineitem.columns)
            assert syn.nbytes == syn.n_rows * 8 * (len(lineitem.columns) + 1)
        assert gathers == []
        assert summed.sample.n_rows == summed.estimates["v"].n_sample
        assert set(summed.sample.columns) == set(lineitem.columns)

    def test_a_stored_column_is_gathered_from_its_base_once(self, gathers):
        db = fresh_tpch(catalog=True)
        db.sql(
            "SELECT SUM(l_extendedprice) AS v "
            + LINEITEM.format(rate=40, seed=4),
            seed=1,
        )
        (syn,) = db.synopses._entries.values()
        base = db.table("lineitem").column("l_quantity")
        del gathers[:]
        first = db.sql(
            "SELECT AVG(l_quantity) AS v " + LINEITEM.format(rate=10, seed=9),
            seed=1,
        )
        assert first.reuse is not None and first.reuse.kind == "thin"
        # Into the synopsis from the base table, then out of the
        # synopsis for the thinned rows.
        stored = syn.sample.columns["l_quantity"]
        assert len(gathers) == 2
        assert np.shares_memory(gathers[0][0], base)
        assert gathers[1][0] is stored
        del gathers[:]
        second = db.sql(
            "SELECT SUM(l_quantity) AS v " + LINEITEM.format(rate=5, seed=3),
            seed=1,
        )
        assert second.reuse is not None and second.reuse.kind == "thin"
        assert [source is stored for source, _ in gathers] == [True]
        assert syn.sample.columns["l_quantity"] is stored

    def test_join_miss_gathers_what_the_estimate_reads(self, gathers):
        db = fresh_tpch(catalog=True)
        result = db.sql(
            "SELECT SUM(l_extendedprice) AS v "
            + JOINED.format(rate=20, seed=4),
            seed=1,
        )
        assert result.reuse is None and len(db.synopses) == 1
        lineitem, orders = db.table("lineitem"), db.table("orders")
        assert set(result.sample.columns) == set(lineitem.columns) | set(
            orders.columns
        )
        # The sampled side's join key and the aggregate input, each
        # straight from the base table — not the 16 columns of the
        # join output.
        assert [
            [n for n, a in lineitem.columns.items() if np.shares_memory(s, a)]
            for s, _ in gathers
        ] == [["l_orderkey"], ["l_extendedprice"]]


# -- a stored sample's lineage ids are base-table row positions ------------


@pytest.mark.parametrize("storage", ["ram", "mmap"])
def test_stored_lineage_ids_are_base_row_positions(tmp_path, storage):
    """Reading a base column at a stored sample's lineage ids gives the
    sample's column: the ids are row positions of the live base table,
    for a one-table sample and for both sides of a join, in RAM and
    memory-mapped.  Thinning and write-time synopsis upkeep rely on it."""
    db = fresh_tpch(catalog=True)
    if storage == "mmap":
        for name in ("lineitem", "orders"):
            db.persist(name, str(tmp_path / name), block_rows=4096)
    db.sql("SELECT SUM(l_extendedprice) AS v " + LINEITEM.format(rate=20, seed=4))
    db.sql(
        "SELECT SUM(l_extendedprice * o_totalprice) AS v "
        "FROM lineitem TABLESAMPLE (20 PERCENT) REPEATABLE (4), "
        "orders TABLESAMPLE (50 PERCENT) REPEATABLE (5) "
        "WHERE l_orderkey = o_orderkey"
    )
    samples = [syn.sample for syn in db.synopses._entries.values()]
    assert sorted(sorted(s.lineage) for s in samples) == [
        ["lineitem"],
        ["lineitem", "orders"],
    ]
    for sample in samples:
        assert sample.n_rows > 0
        for rel, ids in sample.lineage.items():
            base = db.table(rel)
            assert base.is_mmap == (storage == "mmap")
            for name in base.columns:
                assert np.array_equal(
                    np.asarray(base.column(name))[ids],
                    np.asarray(sample.column(name)),
                ), (rel, name)

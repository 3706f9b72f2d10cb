"""Exact verification of Theorem 1 by brute-force enumeration.

These tests enumerate *entire* sampling distributions on tiny relations
and check, with no statistical slack, that:

* the estimator is unbiased (``E[X] = A``);
* Theorem 1's variance formula equals the true ``Var[X]``;
* the plug-in moments unbias correctly (``E[Ŷ_S] = y_S``);
* the expected variance *estimate* equals the true variance
  (``E[σ̂²] = σ²``) — the property that makes the confidence machinery
  honest.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algebra import join_gus
from repro.core.estimator import (
    Estimate,
    estimate_from_moments,
    estimate_sum,
    exact_moments,
    group_ids,
    group_keys,
    group_reduce,
    group_reduce_multi,
    theorem1_variance,
    unbiased_y_terms,
    y_terms,
    y_terms_from_groups,
)
from repro.core import kernels
from repro.core.gus import bernoulli_gus, without_replacement_gus
from repro.errors import EstimationError
from repro.relational.executor import join_codes

from tests.enumeration import (
    JoinedWorld,
    bernoulli_outcomes,
    cross_join_world,
    wor_outcomes,
)


class TestGroupIds:
    def test_no_columns_single_group(self):
        gids, n = group_ids([], 5)
        assert n == 1
        np.testing.assert_array_equal(gids, np.zeros(5, dtype=np.int64))

    def test_empty_input(self):
        gids, n = group_ids([], 0)
        assert n == 0
        assert gids.size == 0

    def test_single_column_groups(self):
        col = np.array([3, 1, 3, 2, 1])
        gids, n = group_ids([col], 5)
        assert n == 3
        # Rows with equal keys share an id; different keys differ.
        assert gids[0] == gids[2]
        assert gids[1] == gids[4]
        assert len({gids[0], gids[1], gids[3]}) == 3

    def test_multi_column_groups(self):
        c1 = np.array([1, 1, 2, 2])
        c2 = np.array([1, 2, 1, 1])
        gids, n = group_ids([c1, c2], 4)
        assert n == 3
        assert gids[2] == gids[3]


def _lexsort_ids(columns, n_rows):
    """Dense ids by a comparison sort of the raw values (the reference
    ``group_ids`` must reproduce whatever path the keys take)."""
    order = np.lexsort(tuple(columns))
    boundary = np.zeros(n_rows, dtype=bool)
    boundary[0] = True
    for col in columns:
        sorted_col = col[order]
        boundary[1:] |= sorted_col[1:] != sorted_col[:-1]
    gids = np.empty(n_rows, dtype=np.int64)
    gids[order] = np.cumsum(boundary) - 1
    return gids, int(boundary.sum())


_WORDS = np.array(["pear", "fig", "apple", "fig ", "Fig", "", "päron"])
_PICKS = np.random.default_rng(3).integers(0, _WORDS.size, 200)


class TestGroupIdsFactorization:
    """Object/string keys go through ``kernels.factorize``; the ids must
    be the ones a comparison sort of the values assigns."""

    @pytest.mark.parametrize(
        "columns",
        [
            [_WORDS.astype(object)[_PICKS]],
            [_WORDS[_PICKS]],
            [np.char.encode(_WORDS, "utf-8")[_PICKS]],
            [np.char.encode(_WORDS, "utf-8").astype(object)[_PICKS]],
            [_PICKS % 2 == 0],
            [_PICKS - 3],
            [_WORDS.astype(object)[_PICKS], _PICKS[::-1] % 3],
            [_PICKS % 3, _WORDS.astype(object)[_PICKS[::-1]]],
            [np.full(200, "only", dtype=object)],
        ],
        ids=[
            "str-object", "str-U", "bytes-S", "bytes-object", "bool",
            "int", "str+int", "int+str", "one-distinct",
        ],
    )
    def test_equals_comparison_sort_ids(self, columns):
        gids, n = group_ids(columns, 200)
        want, n_want = _lexsort_ids(columns, 200)
        assert gids.dtype == np.int64
        assert n == n_want
        np.testing.assert_array_equal(gids, want)

    def test_zero_rows(self):
        gids, n = group_ids([np.empty(0, dtype=object)], 0)
        assert n == 0 and gids.size == 0
        codes, values = kernels.factorize(np.empty(0, dtype=object))
        assert codes.dtype == np.int32 and codes.size == 0
        assert values.dtype == object and values.size == 0

    def test_codes_are_dense_sorted_ranks(self):
        col = np.array(["b", "a", "c", "a"], dtype=object)
        codes, values = kernels.factorize(col)
        np.testing.assert_array_equal(codes, [1, 0, 2, 0])
        assert values.tolist() == ["a", "b", "c"]
        assert values[codes].tolist() == col.tolist()

    def test_none_is_one_group_ordered_first(self):
        # SQL's NULL group; np.lexsort cannot order None against str.
        mixed = np.array(["b", None, "a", None], dtype=object)
        with pytest.raises(TypeError):
            np.lexsort((mixed,))
        codes, values = kernels.factorize(mixed)
        assert values.tolist() == [None, "a", "b"]
        np.testing.assert_array_equal(codes, [2, 0, 1, 0])
        gids, n = group_ids([mixed], 4)
        assert n == 3
        np.testing.assert_array_equal(gids, [2, 0, 1, 0])

    def test_unorderable_or_unhashable_values_raise_type_error(self):
        # There is no fallback that would group such a column.
        mixed = np.array(["a", 1, "b", 2], dtype=object)
        with pytest.raises(TypeError):
            group_ids([mixed], 4)
        lists = np.empty(2, dtype=object)
        lists[0], lists[1] = [1], [2]
        with pytest.raises(TypeError):
            group_ids([lists], 2)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_counting_sorting_and_encoded_keys_agree(self, data):
        """One grouping, three routes: counting over small packed
        domains, the stable sort, dictionary-encoded strings (shuffled
        dictionary, unused entries) — same ids, same key tuples."""
        n = data.draw(st.integers(1, 80), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        words = np.array(["pear", None, "fig", "", "Fig"], dtype=object)
        picks = rng.integers(0, words.size, n)
        order = rng.permutation(words.size)
        position = np.argsort(order)  # code of words[i] in words[order]
        span = data.draw(st.sampled_from([2, 5, 10**6]), label="int span")
        ints = rng.integers(-span, span, n)
        floats = rng.choice([0.0, -0.0, 1.5, np.nan, np.inf], n)
        columns = {
            "str": words[picks],
            "encoded": (position[picks].astype(np.int32), words[order]),
            "int": ints,
            "float": floats,
        }
        chosen = data.draw(
            st.lists(st.sampled_from(sorted(columns)), min_size=1, max_size=3),
            label="columns",
        )
        keys, gids, n_groups = group_keys([columns[c] for c in chosen], n)
        assert group_ids([columns[c] for c in chosen], n)[1] == n_groups
        np.testing.assert_array_equal(
            group_ids([columns[c] for c in chosen], n)[0], gids
        )
        # Reference: sort the row tuples with NULL first and NaN last.
        plain = [words[picks] if c == "encoded" else columns[c] for c in chosen]

        def sortable(value):
            if value is None:
                return (0, "")
            if isinstance(value, str):
                return (1, value)
            return (2, 0.0) if value != value else (1, float(value))

        rows = [
            tuple(sortable(col[i]) for col in reversed(plain)) for i in range(n)
        ]
        distinct = sorted(set(rows))
        want = np.array([distinct.index(row) for row in rows])
        np.testing.assert_array_equal(gids, want)
        assert n_groups == len(distinct)
        for key, col in zip(keys, plain):
            assert key.dtype == col.dtype
            for g in range(n_groups):
                member = col[np.flatnonzero(gids == g)[0]]
                assert key[g] == member or (key[g] != key[g] and member != member)

    def test_count_ranks_declines_wide_domains_and_non_integers(self):
        wide = np.array([0, 5_000, 3])
        assert kernels.count_ranks([wide], 3) is None
        assert kernels.count_ranks([np.array([0.5, 1.5])], 2) is None
        gids, keys = kernels.count_ranks(
            [np.array([7, 5, 7, 6], dtype=np.int32), np.array([1, 1, 0, 1])], 4
        )
        np.testing.assert_array_equal(gids, [3, 1, 0, 2])
        assert keys[0].dtype == np.int32
        np.testing.assert_array_equal(keys[0], [7, 5, 6, 7])
        np.testing.assert_array_equal(keys[1], [0, 1, 1, 1])

    def test_join_codes_pair_equal_object_keys_across_sides(self):
        left = np.array(["b", "a", "c", "b"], dtype=object)
        right = np.array(["c", "b", "zz", "a", "b"], dtype=object)
        lcodes, rcodes = join_codes([left], [right])
        np.testing.assert_array_equal(
            lcodes[:, None] == rcodes[None, :],
            left[:, None] == right[None, :],
        )
        # Multi-column keys: a string column next to an integer one.
        lnum, rnum = np.array([1, 1, 2, 2]), np.array([2, 1, 1, 1, 2])
        lcodes, rcodes = join_codes([left, lnum], [right, rnum])
        np.testing.assert_array_equal(
            lcodes[:, None] == rcodes[None, :],
            (left[:, None] == right[None, :])
            & (lnum[:, None] == rnum[None, :]),
        )


class TestYTerms:
    def test_matches_paper_sql_recipe(self):
        """Section 6.3's SQL: y_∅ = (Σf)², y_l/y_o via GROUP BY,
        y_lo = Σ f² when full lineage is unique."""
        from repro.core.lattice import SubsetLattice

        lat = SubsetLattice(["l", "o"])
        f = np.array([1.0, 2.0, 3.0])
        lineage = {
            "l": np.array([1, 2, 3]),
            "o": np.array([10, 10, 20]),
        }
        y = y_terms(f, lineage, lat)
        assert y[lat.mask_of([])] == pytest.approx(36.0)
        assert y[lat.mask_of(["l"])] == pytest.approx(1 + 4 + 9)
        assert y[lat.mask_of(["o"])] == pytest.approx((1 + 2) ** 2 + 9)
        assert y[lat.mask_of(["l", "o"])] == pytest.approx(14.0)

    def test_missing_lineage_column_raises(self):
        from repro.core.lattice import SubsetLattice

        lat = SubsetLattice(["l", "o"])
        with pytest.raises(EstimationError, match="missing"):
            y_terms(np.ones(2), {"l": np.array([1, 2])}, lat)

    def test_empty_sample_gives_zero_moments(self):
        from repro.core.lattice import SubsetLattice

        lat = SubsetLattice(["l"])
        y = y_terms(np.empty(0), {"l": np.empty(0, dtype=np.int64)}, lat)
        np.testing.assert_array_equal(y, np.zeros(2))


def _y_terms_reference(f, lineage, lattice):
    """The pre-hoisting implementation: one lexsort per mask, over the
    raw rows.  Kept here as the oracle for the compacted fast path."""
    f = np.asarray(f, dtype=np.float64)
    n_rows = f.shape[0]
    out = np.empty(lattice.size, dtype=np.float64)
    for mask in lattice.masks():
        cols = [
            lineage[d] for i, d in enumerate(lattice.dims) if mask >> i & 1
        ]
        gids, n_groups = group_ids(cols, n_rows)
        if n_groups == 0:
            out[mask] = 0.0
            continue
        sums = np.bincount(gids, weights=f, minlength=n_groups)
        out[mask] = float(np.dot(sums, sums))
    return out


class TestGroupReduce:
    def test_compacts_and_sums(self):
        keys, sums = group_reduce(
            [np.array([2, 1, 2, 1, 3])], np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        )
        np.testing.assert_array_equal(keys[0], [1, 2, 3])
        np.testing.assert_allclose(sums, [6.0, 4.0, 5.0])

    def test_multi_column_keys(self):
        keys, sums = group_reduce(
            [np.array([1, 1, 2]), np.array([5, 5, 5])], np.ones(3)
        )
        np.testing.assert_array_equal(keys[0], [1, 2])
        np.testing.assert_array_equal(keys[1], [5, 5])
        np.testing.assert_allclose(sums, [2.0, 1.0])

    def test_no_columns_single_group(self):
        keys, sums = group_reduce([], np.array([1.0, 2.5]))
        assert keys == []
        np.testing.assert_allclose(sums, [3.5])

    def test_empty_input(self):
        keys, sums = group_reduce([np.empty(0, dtype=np.int64)], np.empty(0))
        assert keys[0].size == 0
        assert sums.size == 0


def _bits(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestIdentityFold:
    """A single strictly increasing integer key column is its own
    compaction: ``group_reduce_multi`` skips the sort and must return
    what the sort path returns, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_increasing_keys_equal_the_sort_path_bit_for_bit(self, data):
        dtype, lo, hi = data.draw(
            st.sampled_from(
                [
                    (np.int64, -(2**63), 2**63 - 1),
                    (np.uint64, 0, 2**64 - 1),
                    (np.uint64, 2**63, 2**64 - 1),
                    (np.int64, 0, 50),
                ]
            )
        )
        ids = sorted(data.draw(st.sets(st.integers(lo, hi), max_size=30)))
        n = len(ids)
        keys = np.array(ids, dtype=dtype)
        weight = st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([-0.0, 0.0, float("nan")]),
        )
        weights = [
            np.array(
                data.draw(st.lists(weight, min_size=n, max_size=n)),
                dtype=np.float64,
            )
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        assert kernels.strictly_increasing(keys)
        got_keys, got_sums = group_reduce_multi([keys], weights)
        with mock.patch.object(
            kernels, "strictly_increasing", return_value=False
        ):
            references = [group_reduce_multi([keys], weights)]
        if n >= 2:
            # A permuted copy cannot take the fast path, and the sort
            # path hands its groups back in key order: un-permuted.
            perm = np.array(data.draw(st.permutations(range(n))))
            if not np.array_equal(perm, np.arange(n)):
                assert not kernels.strictly_increasing(keys[perm])
                references.append(
                    group_reduce_multi(
                        [keys[perm]], [w[perm] for w in weights]
                    )
                )
        for want_keys, want_sums in references:
            assert len(got_keys) == len(want_keys) == 1
            assert got_keys[0].dtype == want_keys[0].dtype == dtype
            assert np.array_equal(got_keys[0], want_keys[0])
            assert len(got_sums) == len(want_sums) == len(weights)
            for got, want in zip(got_sums, want_sums):
                assert got.dtype == want.dtype == np.float64
                assert np.array_equal(_bits(got), _bits(want))

    def test_negative_zero_weight_sums_to_positive_zero_on_both_routes(self):
        keys = np.array([3, 7], dtype=np.int64)
        w = np.array([-0.0, 1.5])
        (fast,) = group_reduce_multi([keys], [w])[1]
        (slow,) = group_reduce_multi([keys[::-1]], [w[::-1]])[1]
        assert np.array_equal(_bits(fast), _bits(np.array([0.0, 1.5])))
        assert np.array_equal(_bits(fast), _bits(slow))

    @pytest.mark.parametrize(
        "columns, sorts",
        [
            ([np.array([2, 5, 9, 11])], 0),
            ([np.array([1, 2, 2, 3])], 1),  # equal neighbours (block lineage)
            ([np.array([4, 3, 2, 1])], 1),
            ([np.array([1, 2, 3, 4]), np.array([1, 2, 3, 4])], 1),
            ([np.array([1.0, 2.0, 3.0, 4.0])], 1),
            ([np.array([True, False, True, True])], 1),  # not an integer id
        ],
        ids=["increasing", "equal", "descending", "two-columns", "float", "bool"],
    )
    def test_only_one_increasing_integer_column_skips_the_sort(
        self, columns, sorts
    ):
        with mock.patch.object(
            kernels, "sorted_boundaries", wraps=kernels.sorted_boundaries
        ) as sort:
            group_reduce_multi(columns, [np.ones(4)])
        assert sort.call_count == sorts

    def test_single_table_statement_folds_with_zero_sorts(self, monkeypatch):
        """The lineage of a tuple-level single-relation sample is already
        distinct and ascending; a join over two sampled relations
        replicates ids and still has to sort."""
        from repro.data.tpch import tpch_database

        db = tpch_database(scale=0.02, seed=7)
        sorts: list[str] = []
        for name in ("argsort", "lexsort"):
            real = getattr(np, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                sorts.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np, name, counting)

        def sorts_in_fold(text: str) -> int:
            plan = db.plan_sql(text)
            sample = db.execute(plan.child, seed=3)
            assert sample.n_rows > 1
            sorts.clear()
            db.sbox().estimate_from_sample(plan, sample)
            return len(sorts)

        assert (
            sorts_in_fold(
                "SELECT SUM(l_extendedprice) AS v, AVG(l_quantity) AS q "
                "FROM lineitem TABLESAMPLE (20 PERCENT) WHERE l_quantity > 10"
            )
            == 0
        )
        assert (
            sorts_in_fold(
                "SELECT SUM(l_extendedprice) AS v "
                "FROM lineitem TABLESAMPLE (50 PERCENT), "
                "orders TABLESAMPLE (50 PERCENT), customer "
                "WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey"
            )
            > 0
        )


class TestYTermsHoistedEquivalence:
    """Satellite check: the compacted y_terms (full-lineage sort paid
    once, submask groupings over the group table) must reproduce the
    per-mask re-sort reference on arbitrary data."""

    @given(
        st.integers(0, 60),
        st.integers(1, 3),
        st.integers(1, 6),
        st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, n_rows, n_dims, key_span, seed):
        from repro.core.lattice import SubsetLattice

        rng = np.random.default_rng(seed)
        dims = ["a", "b", "c"][:n_dims]
        lat = SubsetLattice(dims)
        f = rng.uniform(-4, 4, n_rows)
        lineage = {
            d: rng.integers(0, key_span, n_rows).astype(np.int64)
            for d in dims
        }
        np.testing.assert_allclose(
            y_terms(f, lineage, lat),
            _y_terms_reference(f, lineage, lat),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_integer_valued_f_is_exact(self):
        from repro.core.lattice import SubsetLattice

        rng = np.random.default_rng(1)
        lat = SubsetLattice(["a", "b"])
        f = rng.integers(-5, 6, 200).astype(np.float64)
        lineage = {
            "a": rng.integers(0, 9, 200).astype(np.int64),
            "b": rng.integers(0, 4, 200).astype(np.int64),
        }
        np.testing.assert_array_equal(
            y_terms(f, lineage, lat), _y_terms_reference(f, lineage, lat)
        )


class TestYTermsFromGroups:
    def test_dimension_count_checked(self):
        from repro.core.lattice import SubsetLattice

        with pytest.raises(EstimationError, match="key columns"):
            y_terms_from_groups(
                np.ones(2), [np.arange(2)], SubsetLattice(["a", "b"])
            )

    def test_empty_table_gives_zeros(self):
        from repro.core.lattice import SubsetLattice

        lat = SubsetLattice(["a"])
        np.testing.assert_array_equal(
            y_terms_from_groups(np.empty(0), [np.empty(0)], lat), np.zeros(2)
        )


class TestEstimateFromMoments:
    def test_matches_estimate_sum(self):
        g = bernoulli_gus("r", 0.5)
        f = np.array([2.0, 4.0])
        lineage = {"r": np.array([0, 1])}
        direct = estimate_sum(g, f, lineage)
        via_moments = estimate_from_moments(
            g, y_terms(f, lineage, g.lattice), float(f.sum()), 2
        )
        assert via_moments.value == direct.value
        assert via_moments.variance_raw == direct.variance_raw
        assert via_moments.n_sample == direct.n_sample

    def test_null_sampling_rejected(self):
        from repro.core.gus import null_gus

        with pytest.raises(EstimationError, match="a = 0"):
            estimate_from_moments(null_gus(["r"]), np.zeros(2), 0.0, 0)


def _single_table_world(values, space):
    rows = [({"r": i}, v) for i, v in enumerate(values)]
    return JoinedWorld(rows, {"r": space})


class TestSingleTableExact:
    """Theorem 1 vs. full enumeration on one relation."""

    VALUES = [2.0, -1.0, 5.0, 3.5]

    def test_bernoulli_moments(self):
        p = 0.3
        world = _single_table_world(
            self.VALUES, list(bernoulli_outcomes(range(4), p))
        )
        g = bernoulli_gus("r", p)
        mean, var = world.estimator_moments(g.a)
        assert mean == pytest.approx(world.total)

        f = np.array(self.VALUES)
        lineage = {"r": np.arange(4)}
        total, var_formula = exact_moments(g, f, lineage)
        assert total == pytest.approx(world.total)
        assert var_formula == pytest.approx(var, rel=1e-10)

    def test_bernoulli_closed_form(self):
        """Var = (1−p)/p · Σ f² for Bernoulli(p)."""
        p = 0.42
        f = np.array(self.VALUES)
        g = bernoulli_gus("r", p)
        _, var = exact_moments(g, f, {"r": np.arange(4)})
        assert var == pytest.approx((1 - p) / p * float(np.sum(f * f)))

    def test_wor_moments(self):
        n, pop = 2, 4
        world = _single_table_world(
            self.VALUES, list(wor_outcomes(range(pop), n))
        )
        g = without_replacement_gus("r", n, pop)
        mean, var = world.estimator_moments(g.a)
        assert mean == pytest.approx(world.total)

        _, var_formula = exact_moments(
            g, np.array(self.VALUES), {"r": np.arange(pop)}
        )
        assert var_formula == pytest.approx(var, rel=1e-10)

    def test_wor_classic_closed_form(self):
        """Var = N²(1−n/N)·S²/n — the classical SRSWOR total variance."""
        n, pop = 3, 5
        f = np.array([1.0, 4.0, -2.0, 0.5, 3.0])
        g = without_replacement_gus("r", n, pop)
        _, var = exact_moments(g, f, {"r": np.arange(pop)})
        s2 = float(np.var(f, ddof=1))
        classic = pop**2 * (1 - n / pop) * s2 / n
        assert var == pytest.approx(classic, rel=1e-10)

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=5),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_bernoulli_property(self, values, p):
        world = _single_table_world(
            values, list(bernoulli_outcomes(range(len(values)), p))
        )
        g = bernoulli_gus("r", p)
        mean, var = world.estimator_moments(p)
        total, var_formula = exact_moments(
            g, np.array(values), {"r": np.arange(len(values))}
        )
        assert mean == pytest.approx(total, abs=1e-9)
        assert var_formula == pytest.approx(var, rel=1e-8, abs=1e-9)


class TestJoinExact:
    """Theorem 1 on a two-relation join, with the GUS from Prop 6."""

    def _world_and_gus(self, p=0.5, n=2, pop=3):
        tables = {
            "l": [(0, 1.0), (1, 2.0), (2, -1.5)],
            "o": [(0, 3.0), (1, 0.5), (2, 1.0)][:pop],
        }
        # Join predicate: l-row i matches o-row i mod pop (a skewed
        # many-to-one pattern exercising shared lineage groups).
        spaces = {
            "l": list(bernoulli_outcomes(range(3), p)),
            "o": list(wor_outcomes(range(pop), n)),
        }
        world = cross_join_world(
            tables, spaces, join_pred=lambda l, o: o == l % pop
        )
        gus = join_gus(
            bernoulli_gus("l", p), without_replacement_gus("o", n, pop)
        )
        return world, gus

    def test_unbiased(self):
        world, gus = self._world_and_gus()
        mean, _ = world.estimator_moments(gus.a)
        assert mean == pytest.approx(world.total, abs=1e-12)

    def test_variance_formula(self):
        world, gus = self._world_and_gus()
        _, var = world.estimator_moments(gus.a)
        f = np.array([fv for _, fv in world.rows])
        lineage = {
            name: np.array([lin[name] for lin, _ in world.rows])
            for name in ("l", "o")
        }
        _, var_formula = exact_moments(gus, f, lineage)
        assert var_formula == pytest.approx(var, rel=1e-10)

    def test_many_to_many_join_variance(self):
        """Shared lineage both ways (each o matches several l)."""
        tables = {
            "l": [(0, 1.0), (1, 2.0), (2, 3.0), (3, -1.0)],
            "o": [(0, 2.0), (1, 0.5)],
        }
        spaces = {
            "l": list(bernoulli_outcomes(range(4), 0.4)),
            "o": list(bernoulli_outcomes(range(2), 0.7)),
        }
        world = cross_join_world(tables, spaces)  # full cross product
        gus = join_gus(bernoulli_gus("l", 0.4), bernoulli_gus("o", 0.7))
        mean, var = world.estimator_moments(gus.a)
        assert mean == pytest.approx(world.total, abs=1e-9)
        f = np.array([fv for _, fv in world.rows])
        lineage = {
            name: np.array([lin[name] for lin, _ in world.rows])
            for name in ("l", "o")
        }
        _, var_formula = exact_moments(gus, f, lineage)
        assert var_formula == pytest.approx(var, rel=1e-10)


class TestUnbiasingRecursion:
    """E[Ŷ_S] = y_S and E[σ̂²] = σ², exactly."""

    def _check_world(self, world, gus):
        pruned = gus.project_out_inactive()
        f_full = np.array([fv for _, fv in world.rows])
        lineage_full = {
            d: np.array([lin[d] for lin, _ in world.rows])
            for d in pruned.lattice.dims
        }
        y_true = y_terms(f_full, lineage_full, pruned.lattice)

        def statistic(f, lineage):
            plugin = y_terms(f, lineage, pruned.lattice)
            return unbiased_y_terms(pruned, plugin)

        expected_yhat = world.expected_statistic(statistic)
        np.testing.assert_allclose(expected_yhat, y_true, rtol=1e-9, atol=1e-9)

        # E[σ̂²] = σ² follows by linearity of the variance formula.
        def var_stat(f, lineage):
            plugin = y_terms(f, lineage, pruned.lattice)
            yhat = unbiased_y_terms(pruned, plugin)
            return np.array([theorem1_variance(pruned, yhat)])

        _, true_var = world.estimator_moments(gus.a)
        expected_var = world.expected_statistic(var_stat)[0]
        assert expected_var == pytest.approx(true_var, rel=1e-8, abs=1e-9)

    def test_single_table_bernoulli(self):
        values = [2.0, -1.0, 4.0]
        world = _single_table_world(
            values, list(bernoulli_outcomes(range(3), 0.6))
        )
        self._check_world(world, bernoulli_gus("r", 0.6))

    def test_single_table_wor(self):
        values = [1.0, 3.0, -2.0, 0.5]
        world = _single_table_world(
            values, list(wor_outcomes(range(4), 2))
        )
        self._check_world(world, without_replacement_gus("r", 2, 4))

    def test_two_table_join(self):
        tables = {
            "l": [(0, 1.0), (1, -2.0), (2, 3.0)],
            "o": [(0, 1.5), (1, 2.0), (2, -1.0)],
        }
        spaces = {
            "l": list(bernoulli_outcomes(range(3), 0.5)),
            "o": list(wor_outcomes(range(3), 2)),
        }
        world = cross_join_world(
            tables, spaces, join_pred=lambda l, o: o == l % 3
        )
        gus = join_gus(
            bernoulli_gus("l", 0.5), without_replacement_gus("o", 2, 3)
        )
        self._check_world(world, gus)

    def test_wor_size_one_cannot_unbias_cross_pairs(self):
        """WOR(1, N) never keeps two distinct tuples, so b_∅ = 0 and the
        cross-tuple moment is unrecoverable — a real limitation the
        estimator must refuse rather than silently mis-handle."""
        g = without_replacement_gus("r", 1, 2)
        with pytest.raises(EstimationError, match="b_T = 0"):
            unbiased_y_terms(g, np.zeros(2))

    def test_unbias_requires_positive_b(self):
        from repro.core.gus import null_gus

        with pytest.raises(EstimationError, match="b_T = 0"):
            unbiased_y_terms(null_gus(["r"]), np.zeros(2))


class TestEstimateSum:
    def test_estimate_on_known_sample(self):
        """End-to-end estimate on a hand-checkable Bernoulli sample."""
        g = bernoulli_gus("r", 0.5)
        f = np.array([2.0, 4.0])
        lineage = {"r": np.array([0, 1])}
        est = estimate_sum(g, f, lineage)
        assert est.value == pytest.approx(12.0)
        # Ŷ_r = Σf²/b_r = 20/0.5 = 40; Ŷ_∅ = (36 − (b_r − b_∅)/b_r·... )
        # easier: σ̂² = (1−p)/p Σ f²/p = closed form on Ŷ_r.
        assert est.variance_raw == pytest.approx((1 - 0.5) / 0.5 * 40.0)
        assert est.n_sample == 2
        assert not est.clamped

    def test_empty_sample_estimates_zero(self):
        g = bernoulli_gus("r", 0.5)
        est = estimate_sum(g, np.empty(0), {"r": np.empty(0, dtype=np.int64)})
        assert est.value == 0.0
        assert est.variance == 0.0

    def test_null_sampling_rejected(self):
        from repro.core.gus import null_gus

        with pytest.raises(EstimationError, match="a = 0"):
            estimate_sum(null_gus(["r"]), np.ones(1), {"r": np.zeros(1)})

    def test_estimate_prunes_inactive_dims(self):
        g = join_gus(bernoulli_gus("l", 0.5), bernoulli_gus("o", 1.0))
        f = np.array([1.0, 2.0])
        lineage = {"l": np.array([0, 1]), "o": np.array([7, 7])}
        est = estimate_sum(g, f, lineage)
        assert est.extras["active_dims"] == ("l",)

    def test_negative_variance_is_clamped_and_flagged(self):
        est = Estimate(value=1.0, variance_raw=-2.0, n_sample=3)
        assert est.clamped
        assert est.variance == 0.0
        assert est.std == 0.0

    def test_ci_and_quantile_passthrough(self):
        est = Estimate(value=100.0, variance_raw=25.0, n_sample=10)
        ci = est.ci(0.95, "normal")
        assert ci.lo == pytest.approx(100 - 1.96 * 5, abs=0.01)
        assert ci.hi == pytest.approx(100 + 1.96 * 5, abs=0.01)
        cheb = est.ci(0.95, "chebyshev")
        assert cheb.width > ci.width
        assert est.quantile(0.5) == pytest.approx(100.0)
        assert est.quantile(0.95) > 100.0

    def test_relative_std(self):
        est = Estimate(value=10.0, variance_raw=4.0, n_sample=5)
        assert est.relative_std() == pytest.approx(0.2)
        zero = Estimate(value=0.0, variance_raw=4.0, n_sample=5)
        assert zero.relative_std() == float("inf")


class TestVarianceSanity:
    def test_full_sampling_has_zero_variance(self):
        g = bernoulli_gus("r", 1.0)
        f = np.array([1.0, 2.0, 3.0])
        _, var = exact_moments(g, f, {"r": np.arange(3)})
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_variance_decreases_with_rate(self):
        f = np.random.default_rng(0).normal(size=50)
        lineage = {"r": np.arange(50)}
        variances = [
            exact_moments(bernoulli_gus("r", p), f, lineage)[1]
            for p in (0.1, 0.3, 0.5, 0.9)
        ]
        assert variances == sorted(variances, reverse=True)

    def test_wor_beats_bernoulli_at_same_rate(self):
        """Fixed-size designs have no size variance: for equal a the WOR
        variance is no larger than Bernoulli's for constant f."""
        f = np.ones(20)
        lineage = {"r": np.arange(20)}
        _, var_b = exact_moments(bernoulli_gus("r", 0.25), f, lineage)
        _, var_w = exact_moments(
            without_replacement_gus("r", 5, 20), f, lineage
        )
        assert var_w < var_b

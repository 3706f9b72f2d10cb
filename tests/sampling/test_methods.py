"""Tests for the sampling operators: statistics, determinism, GUS params."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NotGUSError, ReproError
from repro.sampling import (
    Bernoulli,
    BiDimensionalBernoulli,
    BlockBernoulli,
    BlockWithoutReplacement,
    LineageHashBernoulli,
    WithoutReplacement,
    hash01,
)
from tests.baselines.with_replacement import WithReplacement


class TestBernoulli:
    def test_keep_rate_statistics(self):
        rng = np.random.default_rng(0)
        draw = Bernoulli(0.3).draw(50_000, rng)
        rate = draw.rows.size / 50_000
        assert rate == pytest.approx(0.3, abs=0.01)

    def test_lineage_is_row_ids(self):
        draw = Bernoulli(0.5).draw(10, np.random.default_rng(0))
        assert draw.rows.size > 0
        np.testing.assert_array_equal(draw.lineage, draw.rows)

    def test_gus_matches_figure1(self):
        g = Bernoulli(0.25).gus("r", 1000)
        assert g.a == pytest.approx(0.25)
        assert g.b_of([]) == pytest.approx(0.0625)

    def test_from_percent(self):
        assert Bernoulli.from_percent(10).p == pytest.approx(0.1)

    def test_invalid_rate(self):
        with pytest.raises(ReproError):
            Bernoulli(-0.1)

    def test_describe(self):
        assert "10" in Bernoulli(0.1).describe()


class TestWithoutReplacement:
    def test_exact_size(self):
        draw = WithoutReplacement(100).draw(1000, np.random.default_rng(0))
        assert draw.rows.size == 100

    def test_small_table_keeps_all(self):
        method = WithoutReplacement(100)
        draw = method.draw(30, np.random.default_rng(0))
        np.testing.assert_array_equal(draw.rows, np.arange(30))
        assert method.gus("r", 30).a == pytest.approx(1.0)

    def test_gus_matches_figure1(self):
        g = WithoutReplacement(10).gus("r", 100)
        assert g.a == pytest.approx(0.1)
        assert g.b_of([]) == pytest.approx(90 / (100 * 99))

    def test_no_duplicates(self):
        draw = WithoutReplacement(500).draw(1000, np.random.default_rng(1))
        assert len(set(draw.lineage.tolist())) == 500

    def test_negative_size_rejected(self):
        with pytest.raises(ReproError):
            WithoutReplacement(-1)


class TestWithReplacement:
    def test_draw_indices_has_duplicates_eventually(self):
        idx = WithReplacement(500).draw_indices(100, np.random.default_rng(0))
        assert idx.shape == (500,)
        assert len(set(idx.tolist())) < 500  # pigeonhole

    def test_filter_draw_rejected(self):
        with pytest.raises(NotGUSError, match="duplicates"):
            WithReplacement(10).draw(100, np.random.default_rng(0))

    def test_gus_rejected(self):
        with pytest.raises(NotGUSError, match="not a randomized filter"):
            WithReplacement(10).gus("r", 100)

    def test_empty_draws(self):
        assert WithReplacement(0).draw_indices(10, np.random.default_rng(0)).size == 0
        assert WithReplacement(5).draw_indices(0, np.random.default_rng(0)).size == 0


class TestBlockSampling:
    def test_blocks_live_or_die_together(self):
        draw = BlockBernoulli(0.5, rows_per_block=10).draw(
            100, np.random.default_rng(0)
        )
        kept = np.isin(np.arange(100), draw.rows)
        for block in range(10):
            column = kept[block * 10 : (block + 1) * 10]
            assert column.all() or not column.any()

    def test_lineage_is_block_id(self):
        draw = BlockBernoulli(1.0, rows_per_block=4).draw(
            10, np.random.default_rng(0)
        )
        np.testing.assert_array_equal(draw.rows, np.arange(10))
        np.testing.assert_array_equal(
            draw.lineage, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
        )

    def test_gus_is_bernoulli_over_blocks(self):
        g = BlockBernoulli(0.3, 16).gus("r", 1000)
        assert g.a == pytest.approx(0.3)
        assert g.b_of([]) == pytest.approx(0.09)

    def test_block_wor_exact_block_count(self):
        draw = BlockWithoutReplacement(3, rows_per_block=10).draw(
            100, np.random.default_rng(5)
        )
        kept_blocks = set(draw.lineage.tolist())
        assert len(kept_blocks) == 3
        assert draw.rows.size == 30

    def test_block_wor_gus_hypergeometric(self):
        g = BlockWithoutReplacement(3, 10).gus("r", 100)
        assert g.a == pytest.approx(0.3)
        assert g.b_of([]) == pytest.approx(3 * 2 / (10 * 9))

    def test_invalid_params(self):
        with pytest.raises(ReproError):
            BlockBernoulli(1.5, 10)
        with pytest.raises(ReproError):
            BlockBernoulli(0.5, 0)
        with pytest.raises(ReproError):
            BlockWithoutReplacement(-1, 10)

    def test_empty_table(self):
        draw = BlockBernoulli(0.5, 10).draw(0, np.random.default_rng(0))
        assert draw.rows.size == 0


class TestHash01:
    def test_range_and_determinism(self):
        ids = np.arange(10_000, dtype=np.int64)
        u1 = hash01(42, ids)
        u2 = hash01(42, ids)
        np.testing.assert_array_equal(u1, u2)
        assert (u1 >= 0).all() and (u1 < 1).all()

    def test_uniformity(self):
        """Coarse chi-square style check on 10 equal bins."""
        u = hash01(7, np.arange(100_000, dtype=np.int64))
        counts, _ = np.histogram(u, bins=10, range=(0, 1))
        # Each bin expects 10 000 ± ~300 (3σ binomial slack ≈ 285).
        assert np.all(np.abs(counts - 10_000) < 500)

    def test_seed_independence(self):
        ids = np.arange(10_000, dtype=np.int64)
        u1, u2 = hash01(1, ids), hash01(2, ids)
        # Correlation between seeds should be negligible.
        corr = np.corrcoef(u1, u2)[0, 1]
        assert abs(corr) < 0.05

    def test_no_shifted_seed_correlation(self):
        """Regression: a (seed, id) hash must not be a function of
        seed + id, or adjacent-seed filters correlate perfectly at
        shifted ids and bias multi-stream estimates."""
        ids = np.arange(1, 10_000, dtype=np.int64)
        shifted = hash01(2, ids - 1)
        base = hash01(1, ids)
        assert not np.allclose(base, shifted)
        corr = np.corrcoef(base, shifted)[0, 1]
        assert abs(corr) < 0.05


class TestLineageHashBernoulli:
    def test_consistency_across_tables(self):
        """The same lineage id gets the same decision everywhere —
        the property Section 7 requires."""
        method = LineageHashBernoulli(0.4, seed=9)
        ids_a = np.array([5, 17, 99, 5, 17], dtype=np.int64)
        ids_b = np.array([17, 5], dtype=np.int64)
        keep_a = method.keep(ids_a)
        keep_b = method.keep(ids_b)
        assert keep_a[0] == keep_a[3] == keep_b[1]
        assert keep_a[1] == keep_a[4] == keep_b[0]

    def test_rate(self):
        method = LineageHashBernoulli(0.25, seed=3)
        keep = method.keep(np.arange(100_000, dtype=np.int64))
        assert keep.mean() == pytest.approx(0.25, abs=0.01)

    def test_gus(self):
        g = LineageHashBernoulli(0.25, seed=3).gus("r", 50)
        assert g.a == pytest.approx(0.25)


class TestBiDimensionalBernoulli:
    def test_example5_gus(self):
        """Example 5: B(0.2, 0.3) → a=0.06, b_∅=0.0036, b_o=0.012,
        b_l=0.018, b_lo=0.06."""
        sampler = BiDimensionalBernoulli({"l": 0.2, "o": 0.3}, seed=0)
        g = sampler.gus()
        assert g.a == pytest.approx(0.06)
        assert g.b_of([]) == pytest.approx(0.0036)
        assert g.b_of(["o"]) == pytest.approx(0.012)
        assert g.b_of(["l"]) == pytest.approx(0.018)
        assert g.b_of(["l", "o"]) == pytest.approx(0.06)

    def test_keep_requires_all_dimensions(self):
        sampler = BiDimensionalBernoulli({"l": 0.5, "o": 0.5}, seed=0)
        with pytest.raises(ReproError, match="missing"):
            sampler.keep({"l": np.arange(5)})

    def test_keep_is_intersection(self):
        sampler = BiDimensionalBernoulli({"l": 0.5, "o": 0.5}, seed=1)
        l_ids = np.arange(1000, dtype=np.int64)
        o_ids = np.arange(1000, dtype=np.int64)[::-1].copy()
        combined = sampler.keep({"l": l_ids, "o": o_ids})
        l_only = sampler.filters["l"].keep(l_ids)
        o_only = sampler.filters["o"].keep(o_ids)
        np.testing.assert_array_equal(combined, l_only & o_only)

    def test_empty_rates_rejected(self):
        with pytest.raises(ReproError):
            BiDimensionalBernoulli({}, seed=0)

    def test_deterministic_across_instances(self):
        s1 = BiDimensionalBernoulli({"l": 0.4}, seed=5)
        s2 = BiDimensionalBernoulli({"l": 0.4}, seed=5)
        ids = np.arange(100, dtype=np.int64)
        np.testing.assert_array_equal(
            s1.keep({"l": ids}), s2.keep({"l": ids})
        )

    def test_relation_seeds_are_process_stable(self):
        """Per-relation seeds must not depend on PYTHONHASHSEED.

        The builtin ``hash()`` is salted per process; deriving relation
        seeds from it made the same REPEATABLE sample draw different
        rows in different processes.  Pin the content-hash derivation
        and confirm it in a child interpreter with a different salt.
        """
        from repro.sampling.composed import _relation_seed

        assert _relation_seed(77, "orders") == 776689539391833478
        assert _relation_seed(77, "lineitem") == 4378465840193713458

        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"
        script = (
            "from repro.sampling.composed import _relation_seed;"
            "print(_relation_seed(77, 'orders'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == "776689539391833478"

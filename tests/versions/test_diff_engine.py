"""End-to-end version-difference estimation through the Database."""

from __future__ import annotations

import numpy as np
import pytest

from repro.relational.database import Database
from repro.service import render_result
from repro.versions.engine import (
    GroupedVersionDiffResult,
    VersionDiffResult,
)

N_ROWS = 600
N_CHANGED = 18  # 3% of rows get +10.0 between v1 and v2


def make_db() -> Database:
    """v1 = original, v2 = live = original with the first 18 vals +10."""
    db = Database(seed=5)
    key = np.arange(N_ROWS, dtype=np.int64)
    db.create_table(
        "fact",
        {
            "key": key,
            "cat": key % 3,
            "val": 1.0 + (key % 37).astype(np.float64),
        },
    )
    changed = db.table("fact").column("val").copy()
    changed[:N_CHANGED] += 10.0
    db.update_table(
        "fact", db.table("fact").with_columns({"val": changed})
    )
    db.snapshot("fact")
    return db


TRUE_SUM_DIFF = 10.0 * N_CHANGED
TRUE_VAR_FULL = 1800.0  # Σ g² = 18 · 10² over the changed keys


class TestExactDiff:
    def test_scalar_exact_matches_hand_truth(self):
        db = make_db()
        result = db.sql(
            "SELECT SUM(val) AS s, COUNT(*) AS n\n"
            "FROM fact AT VERSION 2 MINUS AT VERSION 1"
        )
        assert isinstance(result, VersionDiffResult)
        assert result["s"] == pytest.approx(TRUE_SUM_DIFF)
        assert result["n"] == pytest.approx(0.0)
        for est in result.estimates.values():
            assert est.variance_raw == 0.0
        assert result.n_matched == N_ROWS
        assert result.reuse == {"hi": None, "lo": None}

    def test_grouped_exact_matches_hand_truth(self):
        db = make_db()
        result = db.sql(
            "SELECT SUM(val) AS s\n"
            "FROM fact AT VERSION 2 MINUS AT VERSION 1\nGROUP BY cat"
        )
        assert isinstance(result, GroupedVersionDiffResult)
        np.testing.assert_array_equal(result.keys["cat"], [0, 1, 2])
        # Changed keys 0..17 split evenly: 6 per category, +10 each.
        np.testing.assert_allclose(result["s"], [60.0, 60.0, 60.0])

    def test_sql_exact_materializes_a_table(self):
        db = make_db()
        table = db.sql_exact(
            "SELECT SUM(val) AS s\n"
            "FROM fact MINUS AT VERSION 1 "
            "TABLESAMPLE (10 PERCENT) REPEATABLE (3)"
        )
        np.testing.assert_allclose(
            np.asarray(table.column("s")), [TRUE_SUM_DIFF]
        )


class TestSampledDiff:
    def test_full_rate_sample_is_exact_with_zero_variance(self):
        db = make_db()
        result = db.sql(
            "SELECT SUM(val) AS s\n"
            "FROM fact AT VERSION 2 MINUS AT VERSION 1 "
            "TABLESAMPLE (100 PERCENT) REPEATABLE (9)"
        )
        assert result["s"] == pytest.approx(TRUE_SUM_DIFF)
        assert result.estimates["s"].variance_raw == 0.0
        assert result.n_matched == N_ROWS

    def test_moderate_rate_estimate_is_close_and_annotated(self):
        db = make_db()
        result = db.sql(
            "SELECT SUM(val) AS s\n"
            "FROM fact AT VERSION 2 MINUS AT VERSION 1 "
            "TABLESAMPLE (50 PERCENT) REPEATABLE (11)"
        )
        est = result.estimates["s"]
        # True sampling σ = √((1-p)/p · Σ g²) at p = 0.5.
        sigma = np.sqrt(TRUE_VAR_FULL)
        assert abs(est.value - TRUE_SUM_DIFF) <= 6.0 * sigma
        assert est.extras["p"] == pytest.approx(0.5)
        assert est.extras["estimator"] == "subset-sum"
        assert est.extras["nonzero"] <= N_CHANGED
        assert 0 < result.n_matched < N_ROWS

    @pytest.mark.parametrize("seed", [41, 42, 45])
    @pytest.mark.parametrize("chunk_size", [None, 7, 64])
    def test_bit_identical_across_chunkings_and_seeds(self, chunk_size, seed):
        db = make_db()
        statement = (
            "SELECT SUM(val) AS s, COUNT(*) AS n\n"
            "FROM fact AT VERSION 2 MINUS AT VERSION 1 "
            "TABLESAMPLE (25 PERCENT) REPEATABLE (7)"
        )
        baseline = db.sql(statement)
        result = db.sql(statement, chunk_size=chunk_size, seed=seed)
        assert result.values == baseline.values
        for alias, est in result.estimates.items():
            assert est.variance_raw == (
                baseline.estimates[alias].variance_raw
            )
        assert result.n_matched == baseline.n_matched

    def test_coordination_beats_independent_per_side_samples(self):
        """The acceptance bar: on a 3%-change workload the coordinated
        difference variance is at least 5× below differencing two
        independently sampled sides (whose variances add)."""
        db = make_db()
        coordinated = db.sql(
            "SELECT SUM(val) AS s\n"
            "FROM fact AT VERSION 2 MINUS AT VERSION 1 "
            "TABLESAMPLE (10 PERCENT) REPEATABLE (7)"
        ).estimates["s"]
        independent = sum(
            db.sql(
                f"SELECT SUM(val) AS s\nFROM fact AT VERSION {v} "
                f"TABLESAMPLE (10 PERCENT) REPEATABLE ({seed})"
            ).estimates["s"].variance_raw
            for v, seed in ((2, 1), (1, 2))
        )
        assert coordinated.variance_raw <= independent / 5.0


class TestResultSurfaces:
    def test_scalar_rendered_answer_reports_intervals(self):
        db = make_db()
        result = db.sql(
            "SELECT SUM(val) AS s\n"
            "FROM fact AT VERSION 2 MINUS AT VERSION 1 "
            "TABLESAMPLE (50 PERCENT) REPEATABLE (2)"
        )
        text = render_result(result, 0.95)
        ci = result.estimates["s"].ci(0.95)
        assert f"s = {result['s']:.6g}   [{ci.lo:.6g}, {ci.hi:.6g}] @95%" in text
        assert text.endswith("coordinated p = 0.5")

    def test_quantile_column_reports_the_quantile(self):
        db = make_db()
        result = db.sql(
            "SELECT QUANTILE(SUM(val), 0.9) AS q\n"
            "FROM fact AT VERSION 2 MINUS AT VERSION 1 "
            "TABLESAMPLE (50 PERCENT) REPEATABLE (2)"
        )
        est = result.estimates["q"]
        assert result["q"] == pytest.approx(est.quantile(0.9))
        assert result["q"] >= est.value

    def test_grouped_having_and_table_with_bounds(self):
        db = make_db()
        result = db.sql(
            "SELECT SUM(val) AS s\n"
            "FROM fact AT VERSION 2 MINUS AT VERSION 1 "
            "TABLESAMPLE (100 PERCENT) REPEATABLE (4)\n"
            "GROUP BY cat\nHAVING s > 0"
        )
        assert isinstance(result, GroupedVersionDiffResult)
        assert len(result) == 3
        assert np.all(result["s"] > 0)
        table = result.table(level=0.95)
        assert set(table.columns) == {"cat", "s", "s_lo", "s_hi"}
        # Full-rate sample ⇒ degenerate intervals at the point value.
        np.testing.assert_allclose(
            np.asarray(table.column("s_lo")), result["s"]
        )
        np.testing.assert_allclose(
            np.asarray(table.column("s_hi")), result["s"]
        )


class TestCatalogReuse:
    STATEMENT = (
        "SELECT SUM(val) AS s\n"
        "FROM fact AT VERSION 2 MINUS AT VERSION 1 "
        "TABLESAMPLE (25 PERCENT) REPEATABLE (11)"
    )

    def test_second_run_serves_both_sides_from_the_catalog(self):
        db = make_db()
        db.attach_catalog()
        first = db.sql(self.STATEMENT)
        assert first.reuse == {"hi": None, "lo": None}
        second = db.sql(self.STATEMENT)
        assert second.reuse["hi"] is not None
        assert second.reuse["lo"] is not None
        assert second.values == first.values

    def test_live_mutation_keeps_snapshot_synopses(self):
        db = make_db()
        db.attach_catalog()
        first = db.sql(self.STATEMENT)
        bumped = db.table("fact").column("val").copy()
        bumped[-1] += 100.0
        db.update_table(
            "fact", db.table("fact").with_columns({"val": bumped})
        )
        # Snapshot scans are immutable: mutating the live table must not
        # evict their synopses.
        again = db.sql(self.STATEMENT)
        assert again.reuse["hi"] is not None
        assert again.reuse["lo"] is not None
        assert again.values == first.values
        # The live difference sees the new contents immediately.
        live = db.sql(
            "SELECT SUM(val) AS s\nFROM fact MINUS AT VERSION 1"
        )
        assert live["s"] == pytest.approx(TRUE_SUM_DIFF + 100.0)

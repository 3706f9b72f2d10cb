"""The differential check battery: clean engines pass, injected bugs
are caught, and eligibility gates encode where each test is sound."""

from __future__ import annotations

import dataclasses

import pytest

from repro.fuzz.checker import (
    CheckContext,
    check_statement,
    diff_fingerprints,
    diff_outcomes,
    oracle_statement,
    reseeded_statement,
)
from repro.relational.database import Database
from repro.sql.parser import parse


@pytest.fixture(scope="module")
def ctx() -> CheckContext:
    return CheckContext()


class TestStatementSurgery:
    def test_oracle_statement_strips_sampling_budget_quantile(self):
        stripped = oracle_statement(
            "SELECT QUANTILE(SUM(f_val), 0.9) AS a0\n"
            "FROM fact TABLESAMPLE (5 PERCENT) REPEATABLE (3)\n"
            "WITHIN 10 % CONFIDENCE 0.95"
        )
        query = parse(stripped)
        assert all(ref.sample is None for ref in query.tables)
        assert query.budget is None
        assert "QUANTILE" not in stripped

    def test_reseeded_statement_rewrites_repeatable_only(self):
        statement = (
            "SELECT SUM(f_val) AS a0\n"
            "FROM fact TABLESAMPLE (50 PERCENT) REPEATABLE (11), dim"
        )
        first = reseeded_statement(statement, 0)
        second = reseeded_statement(statement, 1)
        assert first != second
        for text in (first, second):
            query = parse(text)
            assert query.tables[0].sample.repeatable_seed != 11
            assert query.tables[1].sample is None
        # Deterministic per trial index.
        assert reseeded_statement(statement, 0) == first

    def test_reseeded_statement_noop_without_repeatable(self):
        statement = "SELECT SUM(f_val) AS a0\nFROM fact TABLESAMPLE (50 PERCENT)"
        assert reseeded_statement(statement, 4) == statement


class TestFingerprints:
    def test_diff_fingerprints_key_set_mismatch(self):
        detail = diff_fingerprints({(1,): {"a": 1.0}}, {(2,): {"a": 1.0}}, 0.0)
        assert detail is not None and "key sets differ" in detail

    def test_diff_fingerprints_nan_equals_nan(self):
        assert (
            diff_fingerprints({"a": float("nan")}, {"a": float("nan")}, 0.0)
            is None
        )

    def test_diff_fingerprints_rtol_zero_is_bitwise(self):
        assert diff_fingerprints({"a": 1.0}, {"a": 1.0 + 1e-15}, 0.0)
        assert (
            diff_fingerprints({"a": 1.0}, {"a": 1.0 + 1e-15}, 1e-12) is None
        )

    def test_diff_outcomes_errors_must_match(self):
        ok = ("ok", {"a": 1.0})
        err = ("error", "EstimationError", "empty sample")
        other = ("error", "EstimationError", "b_T = 0")
        assert diff_outcomes(ok, err, 0.0) is not None
        assert diff_outcomes(err, other, 0.0) is not None
        assert diff_outcomes(err, err, 0.0) is None


class TestCleanStatementsPass:
    @pytest.mark.parametrize(
        "statement",
        [
            "SELECT SUM(f_val) AS a0\nFROM fact TABLESAMPLE (50 PERCENT)",
            "SELECT AVG(f_val) AS a0, COUNT(*) AS a1\n"
            "FROM fact TABLESAMPLE (25 PERCENT) REPEATABLE (5)\n"
            "GROUP BY f_cat",
            "SELECT SUM(f_val * d_weight) AS a0\n"
            "FROM fact TABLESAMPLE (50 PERCENT), dim\n"
            "WHERE f_key = d_key",
            "SELECT COUNT(v_val) AS a0\nFROM void TABLESAMPLE (90 PERCENT)",
            "SELECT SUM(f_val) AS a0\nFROM fact\nWITHIN 20 % CONFIDENCE 0.9",
        ],
    )
    def test_statement_survives_battery(self, ctx, statement):
        assert check_statement(ctx, statement, seed=9, statistical=True) == []


class TestInjectedBugsAreCaught:
    """Differential power: corrupt one engine path, watch it get caught."""

    def test_oracle_check_catches_scaled_estimates(self, monkeypatch):
        local = CheckContext()
        real_sql = Database.sql

        def crooked(self, text, **kwargs):
            result = real_sql(self, text, **kwargs)
            for alias in list(result.values):
                result.values[alias] = result.values[alias] * 1.01
            return result

        monkeypatch.setattr(Database, "sql", crooked)
        failures = local.check_oracle(
            "SELECT SUM(f_val) AS a0\nFROM fact TABLESAMPLE (50 PERCENT)", 1
        )
        assert failures and failures[0].kind == "oracle"

    def test_determinism_check_catches_worker_dependence(self, monkeypatch):
        local = CheckContext()
        real_sql = Database.sql

        def crooked(self, text, **kwargs):
            result = real_sql(self, text, **kwargs)
            if kwargs.get("workers") == 3:
                for alias in list(result.values):
                    result.values[alias] = result.values[alias] + 1.0
            return result

        monkeypatch.setattr(Database, "sql", crooked)
        failures = local.check_determinism(
            "SELECT SUM(f_val) AS a0\nFROM fact TABLESAMPLE (50 PERCENT)", 1
        )
        assert failures and failures[0].kind == "determinism"

    def test_statistical_check_catches_deliberate_bias(self, monkeypatch):
        local = CheckContext()
        real_sql = Database.sql

        def biased(self, text, **kwargs):
            result = real_sql(self, text, **kwargs)
            for alias, est in list(result.estimates.items()):
                result.estimates[alias] = dataclasses.replace(
                    est, value=est.value * 1.5 + 10.0
                )
            return result

        monkeypatch.setattr(Database, "sql", biased)
        # A low-variance aggregate: a 1.5× bias on heavy-tailed f_val
        # would drown in the estimator's own σ within any trial budget.
        failures = local.check_statistical(
            "SELECT SUM(f_flag) AS a0\nFROM fact TABLESAMPLE (50 PERCENT)", 1
        )
        assert failures
        assert all(f.kind == "statistical" for f in failures)

    def test_statistical_check_catches_shrunk_variance(self, monkeypatch):
        # The per-trial effective-size gate must not blind the coverage
        # test: a light-tailed aggregate clears it on every trial, so a
        # variance 100x too small still collapses coverage and rejects.
        local = CheckContext()
        real_sql = Database.sql

        def overconfident(self, text, **kwargs):
            result = real_sql(self, text, **kwargs)
            for alias, est in list(result.estimates.items()):
                result.estimates[alias] = dataclasses.replace(
                    est, variance_raw=est.variance_raw * 0.01
                )
            return result

        monkeypatch.setattr(Database, "sql", overconfident)
        failures = local.check_statistical(
            "SELECT SUM(f_flag) AS a0\nFROM fact TABLESAMPLE (50 PERCENT)", 1
        )
        assert failures
        assert all("CI coverage" in f.detail for f in failures)

    def test_reuse_check_catches_catalog_divergence(self, monkeypatch):
        local = CheckContext()
        real_sql = Database.sql
        calls = {"n": 0}

        def flaky(self, text, **kwargs):
            result = real_sql(self, text, **kwargs)
            calls["n"] += 1
            if calls["n"] >= 3:  # the catalog-hit run of check_reuse
                for alias in list(result.values):
                    result.values[alias] = result.values[alias] + 1.0
            return result

        monkeypatch.setattr(Database, "sql", flaky)
        failures = local.check_reuse(
            "SELECT SUM(f_val) AS a0\nFROM fact TABLESAMPLE (50 PERCENT)", 1
        )
        assert failures and failures[0].kind == "reuse"


class TestEligibilityGates:
    """Where no sound test exists, the checker must abstain, not guess."""

    @pytest.mark.parametrize(
        ("statement", "drift_ok", "coverage_ok"),
        [
            # Healthy fraction, plenty of rows: both tests run.
            ("SELECT SUM(f_val) AS a0\nFROM fact TABLESAMPLE (50 PERCENT)",
             True, True),
            # Tiny fraction: every trial is empty — nothing testable.
            ("SELECT SUM(f_val) AS a0\nFROM fact TABLESAMPLE (1e-05 PERCENT)",
             False, False),
            # 10 %: enough expected rows for coverage, but a draw misses
            # a mean-carrying tuple too often for the drift test.
            ("SELECT SUM(f_val) AS a0\nFROM fact TABLESAMPLE (10 PERCENT)",
             False, True),
            # 5 ROWS of 400: the dominant-tuple trap.
            ("SELECT SUM(f_val) AS a0\nFROM fact TABLESAMPLE (5 ROWS)",
             False, False),
            # Two expected blocks: fraction fine, too few primary units
            # for an honest variance estimate.
            ("SELECT SUM(f_val) AS a0\n"
             "FROM fact TABLESAMPLE (SYSTEM (20 PERCENT, 64))",
             True, False),
            # Requesting more blocks than exist keeps the whole table.
            ("SELECT SUM(f_val) AS a0\n"
             "FROM fact TABLESAMPLE (SYSTEM (8 BLOCKS, 64))",
             True, True),
            # Unsampled tables gate nothing.
            ("SELECT SUM(f_val) AS a0\nFROM fact", True, True),
        ],
    )
    def test_design_gates(self, ctx, statement, drift_ok, coverage_ok):
        assert ctx._design_gates(parse(statement)) == (drift_ok, coverage_ok)

    def test_statistical_skips_grouped_and_budget(self, ctx):
        grouped = (
            "SELECT SUM(f_val) AS a0\nFROM fact TABLESAMPLE (50 PERCENT)\n"
            "GROUP BY f_cat"
        )
        budget = "SELECT SUM(f_val) AS a0\nFROM fact\nWITHIN 10 % CONFIDENCE 0.95"
        assert ctx.check_statistical(grouped, 1) == []
        assert ctx.check_statistical(budget, 1) == []


class TestDegenerateOracle:
    def test_refusal_accepted_when_exact_is_nan(self, ctx):
        # AVG over a 0-row table: the exact answer is NaN, so the
        # estimator's refusal at rate 1 is an agreeing outcome.
        assert ctx.check_oracle("SELECT AVG(v_val) AS a0\nFROM void", 1) == []

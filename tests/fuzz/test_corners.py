"""Degenerate-cardinality corners: empty tables and zero surviving
rows must flow through every execution path — one chunk, chunked at
several sizes, and catalog reuse — with identical, finite answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fuzz import CheckContext, check_statement

#: WHERE clause no fact row satisfies (f_val is bounded well below 1e9).
IMPOSSIBLE = "WHERE f_val > 1000000000"


@pytest.fixture(scope="module")
def ctx() -> CheckContext:
    return CheckContext()


class TestEmptyTable:
    @pytest.mark.parametrize(
        "statement",
        [
            "SELECT COUNT(*) AS n\nFROM void",
            "SELECT SUM(v_val) AS s\nFROM void TABLESAMPLE (50 PERCENT)",
            "SELECT COUNT(v_val) AS n\nFROM void TABLESAMPLE (3 ROWS)",
            "SELECT SUM(v_val) AS s\n"
            "FROM void TABLESAMPLE (SYSTEM (50 PERCENT, 16))",
            "SELECT SUM(v_val) AS s\nFROM void\nGROUP BY v_key",
        ],
    )
    def test_full_battery_on_empty_table(self, ctx, statement):
        assert check_statement(ctx, statement, seed=11, statistical=True) == []

    def test_chunked_matches_serial_on_empty_table(self, ctx):
        statement = "SELECT SUM(v_val) AS s\nFROM void TABLESAMPLE (50 PERCENT)"
        serial = ctx.db.sql(statement, seed=2)
        for chunk_size in (1, 2, 7):
            chunked = ctx.db.sql(statement, seed=2, chunk_size=chunk_size)
            assert chunked.values["s"] == serial.values["s"] == 0.0

    def test_grouped_empty_table_yields_zero_groups(self, ctx):
        result = ctx.db.sql(
            "SELECT SUM(v_val) AS s\nFROM void\nGROUP BY v_key", seed=0
        )
        assert len(np.asarray(result.values["s"])) == 0

    def test_join_against_empty_table(self, ctx):
        statement = (
            "SELECT SUM(f_val * v_val) AS s\n"
            "FROM fact TABLESAMPLE (50 PERCENT), void\n"
            "WHERE f_key = v_key"
        )
        assert check_statement(ctx, statement, seed=5, statistical=True) == []
        assert ctx.db.sql(statement, seed=5).estimates["s"].value == 0.0


class TestZeroSurvivingRows:
    @pytest.mark.parametrize(
        "statement",
        [
            f"SELECT SUM(f_val) AS s\nFROM fact\n{IMPOSSIBLE}",
            f"SELECT COUNT(*) AS n\n"
            f"FROM fact TABLESAMPLE (40 PERCENT)\n{IMPOSSIBLE}",
            f"SELECT SUM(f_val) AS s\nFROM fact\n{IMPOSSIBLE}\nGROUP BY f_cat",
        ],
    )
    def test_full_battery_when_predicate_kills_every_row(self, ctx, statement):
        assert check_statement(ctx, statement, seed=13, statistical=True) == []

    def test_estimate_is_exact_zero_across_chunk_sizes(self, ctx):
        statement = (
            f"SELECT SUM(f_val) AS s\n"
            f"FROM fact TABLESAMPLE (60 PERCENT)\n{IMPOSSIBLE}"
        )
        for chunk_size in (1, 7, 400):
            result = ctx.db.sql(statement, seed=7, chunk_size=chunk_size)
            assert result.values["s"] == 0.0

    def test_reuse_path_with_zero_surviving_rows(self, ctx):
        # The catalog-hit replay must agree even when the cached sample
        # contributes no rows to the answer.
        statement = (
            f"SELECT COUNT(*) AS n\n"
            f"FROM fact TABLESAMPLE (30 PERCENT) REPEATABLE (21)\n{IMPOSSIBLE}"
        )
        assert ctx.check_reuse(statement, 17) == []

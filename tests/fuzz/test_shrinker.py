"""Greedy shrinking: failing statements reduce to minimal repros that
still fail the *same* check, and the emitted pytest source is valid."""

from __future__ import annotations

import pytest

from repro.fuzz import shrink
from repro.fuzz.checker import CheckContext, CheckFailure
from repro.fuzz.shrink import ReproCase, shrink_failure
from repro.sql.parser import parse

#: A deliberately bloated statement whose actual bug is one clause:
#: REPEATABLE on a ROWS sample, which the planner rejects.
BLOATED = (
    "SELECT SUM(f_val + f_flag) AS a0, COUNT(*) AS a1, AVG(d_weight) AS a2\n"
    "FROM fact TABLESAMPLE (50 ROWS) REPEATABLE (5), "
    "dim TABLESAMPLE (90 PERCENT)\n"
    "WHERE f_key = d_key AND NOT (f_val > 8 OR f_flag <= 1)\n"
    "GROUP BY f_cat, d_grp\n"
    "HAVING a0 > 0"
)


@pytest.fixture(scope="module")
def ctx() -> CheckContext:
    return CheckContext()


def test_shrinks_plan_failure_to_the_guilty_clause(ctx):
    original = ctx.check_roundtrip(BLOATED, 3)
    assert original and original[0].kind == "plan"
    case = shrink_failure(ctx, original[0])
    assert case.kind == "plan"
    assert case.seed == 3
    assert len(case.statement) < len(BLOATED)
    query = parse(case.statement)
    # Everything incidental is gone; the guilty clause survives.
    assert len(query.items) == 1
    assert len(query.tables) == 1
    assert query.where is None and query.having is None
    assert not query.group_by
    sample = query.tables[0].sample
    assert sample.kind == "rows" and sample.repeatable_seed is not None
    # The shrunk statement still fails the same way.
    refail = ctx.check_roundtrip(case.statement, 3)
    assert refail and refail[0].kind == "plan"


def test_shrink_preserves_failure_kind_not_just_any_failure(ctx):
    # A candidate that merely fails differently (e.g. an unknown column
    # after dropping the table that owns it) must not be accepted: the
    # shrunk plan failure still names REPEATABLE, not a column.
    original = ctx.check_roundtrip(BLOATED, 3)[0]
    case = shrink_failure(ctx, original)
    assert "REPEATABLE" in case.detail


def test_unparseable_statement_returned_unshrunk(ctx):
    failure = CheckFailure("roundtrip", "SELECT FROM WHERE", 7, "parse error")
    case = shrink_failure(ctx, failure)
    assert case.statement == "SELECT FROM WHERE"
    assert case.seed == 7


def test_shrink_respects_candidate_budget(ctx, monkeypatch):
    monkeypatch.setattr(shrink, "MAX_CANDIDATES", 1)
    original = ctx.check_roundtrip(BLOATED, 3)[0]
    case = shrink_failure(ctx, original)
    # One candidate evaluation cannot reach the minimum, but the result
    # must still be a valid reproduction of the same kind.
    assert ctx.check_roundtrip(case.statement, 3)[0].kind == "plan"


def test_repro_case_emits_compilable_pytest_source():
    case = ReproCase(
        kind="oracle",
        statement="SELECT SUM(f_val) AS a0\nFROM fact TABLESAMPLE (5 PERCENT)",
        seed=42,
        detail="estimator != exact",
    )
    source = case.test_source()
    compile(source, "<generated>", "exec")  # syntactically valid
    assert "seed=42" in source
    assert "TABLESAMPLE (5 PERCENT)" in source
    assert source.startswith("def test_fuzz_regression_oracle_42(")

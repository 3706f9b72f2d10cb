"""Greedy shrinking of failing fuzz queries.

A raw counterexample is usually a three-aggregate join with nested
predicates; the bug inside it almost never needs most of that.  The
shrinker repeatedly proposes structurally smaller ASTs (drop a select
item, a predicate arm, a table, a sampling clause, unwrap a wrapper)
and keeps a proposal whenever the *same kind* of check still fails on
it — preserving the failure kind is what stops a reduction from
sliding into a different, unrelated bug.  The result is a
:class:`ReproCase`: minimal statement + seed + a ready-to-paste pytest
function.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

from repro.errors import ReproError
from repro.fuzz.checker import CheckContext, CheckFailure
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse
from repro.sql.printer import query_to_sql

__all__ = ["ReproCase", "shrink_failure"]

#: Stop shrinking after this many candidate evaluations; each candidate
#: re-runs a full check, so this bounds shrink time per failure.
MAX_CANDIDATES = 200


@dataclass(frozen=True)
class ReproCase:
    """A shrunk counterexample, replayable from statement + seed."""

    kind: str
    statement: str
    seed: int
    detail: str

    def test_source(self) -> str:
        """A self-contained pytest function reproducing the failure."""
        stmt_lines = "\n".join(
            f'        "{line}"' for line in self.statement.splitlines()
        )
        return (
            f"def test_fuzz_regression_{self.kind}_{self.seed}():\n"
            f'    """Shrunk by the differential fuzzer '
            f'(kind={self.kind}, seed={self.seed})."""\n'
            f"    from repro.fuzz import CheckContext, check_statement\n"
            f"    statement = \"\\n\".join([\n{stmt_lines}\n    ])\n"
            f"    failures = check_statement(\n"
            f"        CheckContext(), statement, seed={self.seed}, "
            f"statistical=True\n"
            f"    )\n"
            f"    assert not failures, failures\n"
        )


def _expr_reductions(expr: ast.SqlExpr) -> Iterator[ast.SqlExpr]:
    """Structurally smaller variants of a boolean/scalar expression."""
    if isinstance(expr, ast.NotOp):
        yield expr.child
        for child in _expr_reductions(expr.child):
            yield ast.NotOp(child)
    elif isinstance(expr, ast.BoolOp):
        yield expr.left
        yield expr.right
        for left in _expr_reductions(expr.left):
            yield replace(expr, left=left)
        for right in _expr_reductions(expr.right):
            yield replace(expr, right=right)
    elif isinstance(expr, ast.Arithmetic):
        yield expr.left
        yield expr.right
    elif isinstance(expr, ast.QuantileCall):
        yield expr.aggregate
    elif isinstance(expr, ast.AggCall) and expr.argument is not None:
        for arg in _expr_reductions(expr.argument):
            yield replace(expr, argument=arg)


def _sample_reductions(
    sample: ast.SampleClause,
) -> Iterator[ast.SampleClause | None]:
    yield None
    if sample.repeatable_seed is not None:
        yield replace(sample, repeatable_seed=None)
    if sample.kind != "percent":
        yield ast.SampleClause(
            "percent", 10.0, repeatable_seed=sample.repeatable_seed
        )
    if sample.kind == "percent" and sample.amount not in (10.0, 50.0):
        yield replace(sample, amount=50.0)


def _candidates(query: ast.SelectQuery) -> Iterator[ast.SelectQuery]:
    """Smaller queries, most aggressive reductions first."""
    # Drop whole clauses.
    if query.budget is not None:
        yield replace(query, budget=None)
    if query.having is not None:
        yield replace(query, having=None)
    if query.where is not None:
        yield replace(query, where=None)
    if query.group_by:
        yield replace(query, group_by=(), having=None)
        for i in range(len(query.group_by)):
            keys = query.group_by[:i] + query.group_by[i + 1 :]
            if keys:
                yield replace(query, group_by=keys)
    # Drop a table (joins): the WHERE may reference its columns, so the
    # variant also drops the predicate — planner rejection of a
    # candidate simply fails to reproduce and is skipped.
    if len(query.tables) > 1:
        for i in range(len(query.tables)):
            tables = query.tables[:i] + query.tables[i + 1 :]
            yield replace(query, tables=tables, where=None)
    # Drop a select item.
    if len(query.items) > 1:
        for i in range(len(query.items)):
            items = query.items[:i] + query.items[i + 1 :]
            yield replace(query, items=items)
    # Unpin versions: a difference collapses to its hi side first
    # (live-MINUS next), a snapshot read to the live table.
    for i, ref in enumerate(query.tables):
        variants = []
        if ref.minus_version is not None:
            variants.append(replace(ref, minus_version=None, between=False))
        if ref.version is not None:
            variants.append(replace(ref, version=None, between=False))
        for variant in variants:
            tables = (
                query.tables[:i] + (variant,) + query.tables[i + 1 :]
            )
            yield replace(query, tables=tables)
    # Simplify sampling clauses.
    for i, ref in enumerate(query.tables):
        if ref.sample is None:
            continue
        for sample in _sample_reductions(ref.sample):
            tables = (
                query.tables[:i]
                + (replace(ref, sample=sample),)
                + query.tables[i + 1 :]
            )
            yield replace(query, tables=tables)
    # Simplify expressions in place.
    if query.where is not None:
        for where in _expr_reductions(query.where):
            yield replace(query, where=where)
    if query.having is not None:
        for having in _expr_reductions(query.having):
            yield replace(query, having=having)
    for i, item in enumerate(query.items):
        for expr in _expr_reductions(item.expression):
            if not isinstance(expr, (ast.AggCall, ast.QuantileCall)):
                continue  # the select list must stay aggregate-only
            items = (
                query.items[:i]
                + (replace(item, expression=expr),)
                + query.items[i + 1 :]
            )
            yield replace(query, items=items)


def _size(query: ast.SelectQuery) -> int:
    return len(query_to_sql(query))


def _recheck(
    ctx: CheckContext, statement: str, seed: int, kind: str
) -> list[CheckFailure]:
    """Re-run only the check family that produced the original failure."""
    if kind in ("roundtrip", "plan"):
        return ctx.check_roundtrip(statement, seed)
    check = getattr(ctx, f"check_{kind}")
    roundtrip = ctx.check_roundtrip(statement, seed)
    if roundtrip:
        return []  # candidate is invalid, not a reproduction
    return check(statement, seed)


def shrink_failure(ctx: CheckContext, failure: CheckFailure) -> ReproCase:
    """Greedily minimize a failing statement, preserving failure kind.

    Evaluates at most :data:`MAX_CANDIDATES` candidates.
    """
    try:
        current = parse(failure.statement)
    except ReproError:
        # The statement itself does not parse (a roundtrip failure at
        # the lexer level): nothing to shrink structurally.
        return ReproCase(
            kind=failure.kind,
            statement=failure.statement,
            seed=failure.seed,
            detail=failure.detail,
        )
    detail = failure.detail
    budget = MAX_CANDIDATES
    progress = True
    while progress and budget > 0:
        progress = False
        for candidate in _candidates(current):
            if budget <= 0:
                break
            if _size(candidate) >= _size(current):
                continue
            budget -= 1
            text = query_to_sql(candidate)
            repro = [
                f
                for f in _recheck(ctx, text, failure.seed, failure.kind)
                if f.kind == failure.kind
                # Plan errors carry the bug identity in the message
                # (unknown column vs bad REPEATABLE ...); a reduction
                # must not slide into a different rejection.
                and (
                    failure.kind != "plan"
                    or f.detail[:40] == failure.detail[:40]
                )
            ]
            if repro:
                current = candidate
                detail = repro[0].detail
                progress = True
                break
    return ReproCase(
        kind=failure.kind,
        statement=query_to_sql(current),
        seed=failure.seed,
        detail=detail,
    )

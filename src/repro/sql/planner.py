"""Semantic analysis: AST → logical plan.

The planner resolves columns against the catalog, converts TABLESAMPLE
clauses into :mod:`repro.sampling` methods, extracts equi-join
conditions from the WHERE conjunction, builds a left-deep join tree
(cross products where tables are unconnected), filters each table by
the conjuncts that read it alone, and applies the residual predicate on
top.  Aggregate select lists become an
:class:`~repro.relational.plan.Aggregate` (or a
:class:`~repro.relational.plan.GroupAggregate` under GROUP BY, with
HAVING rewritten onto the grouped output schema); pure-expression lists
become a :class:`~repro.relational.plan.Project`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import PlanError, SchemaError, SQLError
from repro.relational import expressions as e
from repro.relational import plan as p
from repro.sampling import (
    Bernoulli,
    BlockBernoulli,
    BlockWithoutReplacement,
    CoordinatedBernoulli,
    LineageHashBernoulli,
    WithoutReplacement,
)
from repro.sql import ast_nodes as ast
from repro.versions.plan import VersionDiff
from repro.versions.snapshots import base_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.database import Database


def plan_query(query: ast.SelectQuery, db: "Database") -> p.PlanNode:
    """Turn a parsed query into an executable plan.

    The error-budget clause and ``EXPLAIN SAMPLING`` prefix are not part
    of the plan — the database routes them to the sampling-plan
    optimizer — but they only make sense on aggregate queries, which is
    validated here.
    """
    if (query.budget is not None or query.explain_sampling) and (
        not query.has_aggregates
    ):
        raise SQLError(
            "WITHIN/CONFIDENCE budgets and EXPLAIN SAMPLING apply to "
            "aggregate queries only"
        )
    if (query.budget is not None or query.explain_sampling) and query.group_by:
        raise SQLError(
            "WITHIN/CONFIDENCE budgets and EXPLAIN SAMPLING are not yet "
            "supported for GROUP BY queries; the optimizer targets a "
            "single aggregate's interval"
        )
    if query.explain_analyze and (
        query.budget is not None or query.explain_sampling
    ):
        raise SQLError(
            "EXPLAIN ANALYZE traces one plain execution; it cannot be "
            "combined with EXPLAIN SAMPLING or a WITHIN/CONFIDENCE "
            "budget (the optimizer runs many plans)"
        )
    return _Planner(query, db).plan()


def build_sampling_method(clause: ast.SampleClause):
    """Instantiate the sampling operator for a TABLESAMPLE clause."""
    if clause.kind == "percent":
        if clause.repeatable_seed is not None:
            return LineageHashBernoulli(
                clause.amount / 100.0, seed=clause.repeatable_seed
            )
        return Bernoulli.from_percent(clause.amount)
    if clause.kind == "rows":
        if clause.repeatable_seed is not None:
            raise SQLError(
                "REPEATABLE is only supported for PERCENT (Bernoulli) "
                "sampling; fixed-size draws have no per-tuple hash form"
            )
        return WithoutReplacement(int(clause.amount))
    if clause.kind == "system_percent":
        assert clause.rows_per_block is not None
        return BlockBernoulli(clause.amount / 100.0, clause.rows_per_block)
    if clause.kind == "system_blocks":
        assert clause.rows_per_block is not None
        return BlockWithoutReplacement(
            int(clause.amount), clause.rows_per_block
        )
    raise SQLError(f"unknown sample clause kind {clause.kind!r}")


class _Planner:
    def __init__(self, query: ast.SelectQuery, db: "Database") -> None:
        self.query = query
        self.db = db
        # column name -> owning (internal, possibly versioned) table name
        self.column_owner: dict[str, str] = {}
        # alias or base name -> internal table name
        self.aliases: dict[str, str] = {}
        # internal catalog names, aligned with query.tables
        self.internal_names: list[str] = []

    # -- entry point ---------------------------------------------------------

    def plan(self) -> p.PlanNode:
        if any(ref.is_diff for ref in self.query.tables):
            return self._plan_version_diff()
        self._resolve_tables()
        tree = self._build_join_tree(*self._split_where())
        if self.query.group_by:
            return self._group_aggregate(tree)
        if self.query.has_aggregates:
            return p.Aggregate(tree, self._agg_specs())
        return p.Project(tree, self._projection_outputs(tree))

    # -- version differences -----------------------------------------------

    def _plan_version_diff(self) -> VersionDiff:
        """Plan ``... FROM t AT VERSION hi MINUS AT VERSION lo``.

        The difference form is an aggregate estimator, not a relation:
        per-key aggregate inputs from the two sides are subtracted and
        scaled by the shared coordinated-Bernoulli rate, so only
        subset-sum aggregates (SUM/COUNT) survive, and the only legal
        sample is ``PERCENT ... REPEATABLE`` (the seed keys the hash
        both sides share).
        """
        query = self.query
        if len(query.tables) != 1:
            raise SQLError(
                "a version difference must be the only FROM entry; "
                "joining against a difference is outside the GUS algebra"
            )
        ref = query.tables[0]
        if query.budget is not None or query.explain_sampling:
            raise SQLError(
                "WITHIN/CONFIDENCE budgets and EXPLAIN SAMPLING are not "
                "supported on version differences; the coordinated "
                "estimator carries its own closed-form variance"
            )
        if not query.has_aggregates:
            raise SQLError(
                "a version difference is an aggregate form; SELECT "
                "SUM/COUNT (optionally with GROUP BY) over it"
            )
        base = ref.name
        try:
            hi_name = self.db.resolve_version(base, ref.version)
            lo_name = self.db.resolve_version(base, ref.minus_version)
        except SchemaError as exc:
            raise SQLError(str(exc)) from None
        hi_table = self.db.tables[hi_name]
        lo_table = self.db.tables[lo_name]
        self.internal_names.append(hi_name)
        if ref.alias:
            self.aliases[ref.alias] = hi_name
        self.aliases[base] = hi_name
        for column in hi_table.schema.names:
            self.column_owner[column] = hi_name

        rate: float | None = None
        seed: int | None = None
        if ref.sample is not None:
            clause = ref.sample
            if clause.kind != "percent" or clause.repeatable_seed is None:
                raise SQLError(
                    "version differences need coordinated Bernoulli "
                    "draws; the only supported sample is "
                    "'TABLESAMPLE (p PERCENT) REPEATABLE (seed)' "
                    "(the seed keys the per-row hash both sides share)"
                )
            rate = clause.amount / 100.0
            seed = clause.repeatable_seed

        _joins, filters = self._split_where()

        if query.group_by:
            grouped = self._group_aggregate(p.Scan(hi_name))
            keys: tuple[str, ...] = grouped.keys
            specs = list(grouped.specs)
            having = grouped.having
        else:
            keys = ()
            specs = self._agg_specs()
            having = None
        for spec in specs:
            if spec.kind == "avg":
                raise SQLError(
                    "AVG over a version difference is a ratio of two "
                    "estimates, not a subset sum; estimate SUM and "
                    "COUNT separately and divide"
                )

        used: set[str] = set(keys)
        for flt in filters:
            used |= flt.columns_used()
        for spec in specs:
            if spec.expr is not None:
                used |= spec.expr.columns_used()
        missing = used - set(lo_table.schema.names)
        if missing:
            raise SQLError(
                f"column(s) {sorted(missing)} are missing from version "
                f"{ref.minus_version} of {base!r}; a difference needs "
                "both sides to expose every referenced column"
            )

        def side(scan_name: str) -> p.PlanNode:
            node: p.PlanNode = p.Scan(scan_name)
            if rate is not None:
                node = p.TableSample(
                    node,
                    CoordinatedBernoulli(rate, namespace=base, salt=seed),
                )
            if filters:
                node = p.Select(node, e.and_(*filters))
            return node

        try:
            return VersionDiff(
                side(hi_name),
                side(lo_name),
                specs,
                base=base,
                lo_version=ref.minus_version,
                hi_version=ref.version,
                keys=keys,
                having=having,
                rate=rate,
                seed=seed,
            )
        except PlanError as exc:
            raise SQLError(str(exc)) from exc

    # -- resolution ------------------------------------------------------------

    def _resolve_tables(self) -> None:
        seen_bases: set[str] = set()
        for ref in self.query.tables:
            internal = self._internal_name(ref)
            self.internal_names.append(internal)
            if ref.name in seen_bases:
                raise SQLError(
                    f"table {ref.name!r} appears twice: self-joins are "
                    "outside the GUS algebra (paper, Section 9); to "
                    "compare two versions of one table, write "
                    f"'{ref.name} AT VERSION hi MINUS AT VERSION lo'"
                )
            seen_bases.add(ref.name)
            if ref.alias:
                self.aliases[ref.alias] = internal
            if internal != ref.name:
                # Let ``t.col`` qualifiers keep working on ``t AT VERSION n``.
                self.aliases[ref.name] = internal
            for column in self.db.tables[internal].schema.names:
                if column in self.column_owner:
                    raise SQLError(
                        f"column {column!r} is ambiguous between "
                        f"{self.column_owner[column]!r} and {internal!r}"
                    )
                self.column_owner[column] = internal

    def _internal_name(self, ref: ast.TableRef) -> str:
        """Catalog name for a table ref, resolving ``AT VERSION`` pins."""
        if ref.name not in self.db.tables:
            raise SQLError(
                f"unknown table {ref.name!r}; "
                f"catalog has {sorted(self.db.tables)}"
            )
        if base_name(ref.name) != ref.name:
            raise SQLError(
                f"table {ref.name!r} addresses the snapshot namespace "
                "directly; use 'AT VERSION n' instead"
            )
        if ref.version is None:
            return ref.name
        try:
            return self.db.resolve_version(ref.name, ref.version)
        except SchemaError as exc:
            raise SQLError(str(exc)) from None

    def _owner_of(self, ref: ast.ColumnRef) -> str:
        if ref.name not in self.column_owner:
            raise SQLError(f"unknown column {ref.name!r}")
        owner = self.column_owner[ref.name]
        if ref.qualifier is not None:
            named = self.aliases.get(ref.qualifier, ref.qualifier)
            if named != owner:
                raise SQLError(
                    f"column {ref.name!r} belongs to {owner!r}, "
                    f"not {ref.qualifier!r}"
                )
        return owner

    # -- WHERE decomposition ---------------------------------------------------

    def _split_where(self) -> tuple[list[tuple[str, str, str, str]], list[e.Expr]]:
        """Return (equi-join conditions, residual filter expressions).

        A join condition is ``col_a = col_b`` with the two columns owned
        by different tables; it is returned as
        ``(table_a, col_a, table_b, col_b)``.  Everything else becomes a
        filter.  OR/NOT expressions are never split.
        """
        joins: list[tuple[str, str, str, str]] = []
        filters: list[e.Expr] = []
        for conjunct in self._conjuncts(self.query.where):
            join = self._as_join(conjunct)
            if join is not None:
                joins.append(join)
            else:
                filters.append(self._expr(conjunct))
        return joins, filters

    def _conjuncts(self, node):
        if node is None:
            return
        if isinstance(node, ast.BoolOp) and node.op == "AND":
            yield from self._conjuncts(node.left)
            yield from self._conjuncts(node.right)
        else:
            yield node

    def _as_join(self, node) -> tuple[str, str, str, str] | None:
        if not (
            isinstance(node, ast.Compare)
            and node.op == "="
            and isinstance(node.left, ast.ColumnRef)
            and isinstance(node.right, ast.ColumnRef)
        ):
            return None
        left_owner = self._owner_of(node.left)
        right_owner = self._owner_of(node.right)
        if left_owner == right_owner:
            return None
        return (left_owner, node.left.name, right_owner, node.right.name)

    # -- join-tree construction ---------------------------------------------

    def _leaf(self, ref: ast.TableRef, internal: str) -> p.PlanNode:
        scan = p.Scan(internal)
        if ref.sample is None:
            return scan
        return p.TableSample(scan, build_sampling_method(ref.sample))

    def _build_join_tree(
        self, joins: list[tuple[str, str, str, str]], filters: list[e.Expr]
    ) -> p.PlanNode:
        """Left-deep tree in FROM order, joining on every applicable
        condition (unconnected tables fall back to cross products), with
        each filter on the one table it reads or else above the tree."""
        order = list(self.internal_names)
        trees: dict[str, p.PlanNode] = {
            internal: self._leaf(ref, internal)
            for ref, internal in zip(self.query.tables, self.internal_names)
        }
        try:
            return p.filtered_join_tree(
                order, trees, joins, filters, self.column_owner
            )
        except PlanError as exc:
            raise SQLError(str(exc)) from exc

    # -- expressions ------------------------------------------------------------

    def _expr(self, node) -> e.Expr:
        if isinstance(node, ast.ColumnRef):
            self._owner_of(node)  # validates existence/qualifier
            return e.col(node.name)
        if isinstance(node, ast.NumberLit):
            return e.lit(node.as_python)
        if isinstance(node, ast.StringLit):
            return e.lit(node.value)
        if isinstance(node, ast.Arithmetic):
            return e.BinOp(node.op, self._expr(node.left), self._expr(node.right))
        if isinstance(node, ast.Compare):
            return e.Comparison(
                node.op, self._expr(node.left), self._expr(node.right)
            )
        if isinstance(node, ast.BoolOp):
            ctor = e.And if node.op == "AND" else e.Or
            return ctor(self._expr(node.left), self._expr(node.right))
        if isinstance(node, ast.NotOp):
            return e.Not(self._expr(node.child))
        raise SQLError(f"unsupported expression node {type(node).__name__}")

    # -- select list ------------------------------------------------------------

    def _agg_specs(self) -> list[p.AggSpec]:
        specs = []
        for i, item in enumerate(self.query.items):
            expr = item.expression
            quantile = None
            if isinstance(expr, ast.QuantileCall):
                quantile = expr.q
                expr = expr.aggregate
            if not isinstance(expr, ast.AggCall):
                raise SQLError(
                    "mixing aggregates and plain expressions in one "
                    "SELECT requires the plain columns to be GROUP BY "
                    "keys — add a GROUP BY clause naming them"
                )
            alias = item.alias or self._default_alias(expr, quantile, i)
            argument = (
                None if expr.argument is None else self._expr(expr.argument)
            )
            specs.append(p.AggSpec(expr.func, argument, alias, quantile))
        return specs

    # -- GROUP BY ---------------------------------------------------------------

    def _group_aggregate(self, tree: p.PlanNode) -> p.GroupAggregate:
        """Build the :class:`~repro.relational.plan.GroupAggregate`.

        The output schema is the group key columns followed by the
        aggregate aliases; HAVING is rewritten onto that schema (an
        aggregate call in HAVING must match a select-list aggregate,
        whose alias column it becomes).
        """
        keys: list[str] = []
        for ref in self.query.group_by:
            self._owner_of(ref)  # validates existence and qualifier
            if ref.name in keys:
                raise SQLError(f"duplicate GROUP BY key {ref.name!r}")
            keys.append(ref.name)
        specs: list[p.AggSpec] = []
        for i, item in enumerate(self.query.items):
            expr = item.expression
            if isinstance(expr, ast.ColumnRef):
                self._owner_of(expr)
                if expr.name not in keys:
                    raise SQLError(
                        f"column {expr.name!r} in SELECT is not a GROUP "
                        "BY key; non-key columns must appear inside an "
                        "aggregate"
                    )
                if item.alias is not None and item.alias != expr.name:
                    raise SQLError(
                        "aliasing a GROUP BY key column is not "
                        f"supported (tried {expr.name!r} AS {item.alias!r})"
                    )
                continue
            quantile = None
            if isinstance(expr, ast.QuantileCall):
                quantile = expr.q
                expr = expr.aggregate
            if not isinstance(expr, ast.AggCall):
                raise SQLError(
                    "a grouped SELECT list may hold GROUP BY keys and "
                    "aggregates only"
                )
            alias = item.alias or self._default_alias(expr, quantile, i)
            argument = (
                None if expr.argument is None else self._expr(expr.argument)
            )
            specs.append(p.AggSpec(expr.func, argument, alias, quantile))
        if not specs:
            raise SQLError(
                "GROUP BY without any aggregate in the SELECT list is "
                "plain DISTINCT, which this dialect does not estimate; "
                "add an aggregate (e.g. COUNT(*))"
            )
        having = (
            None
            if self.query.having is None
            else self._having_expr(self.query.having, keys, specs)
        )
        return p.GroupAggregate(tree, keys, specs, having)

    def _having_expr(
        self, node, keys: list[str], specs: list[p.AggSpec]
    ) -> e.Expr:
        """Rewrite a HAVING AST onto the grouped output schema."""
        if isinstance(node, ast.AggCall):
            argument = (
                None if node.argument is None else self._expr(node.argument)
            )
            for spec in specs:
                if spec.quantile is not None or spec.kind != node.func:
                    continue
                if (spec.expr is None) != (argument is None):
                    continue
                if spec.expr is None or spec.expr.key() == argument.key():
                    return e.col(spec.alias)
            raise SQLError(
                f"HAVING aggregate {node.func.upper()} has no matching "
                "select-list aggregate; add it to the SELECT list (with "
                "an alias) first"
            )
        if isinstance(node, ast.ColumnRef) and node.qualifier is None:
            aliases = {spec.alias for spec in specs}
            if node.name in aliases:
                return e.col(node.name)
            # Fall through: a real column reference, validated below —
            # the GroupAggregate constructor rejects non-key columns.
        if isinstance(node, ast.ColumnRef):
            self._owner_of(node)
            return e.col(node.name)
        if isinstance(node, (ast.NumberLit, ast.StringLit)):
            return self._expr(node)
        if isinstance(node, ast.Arithmetic):
            return e.BinOp(
                node.op,
                self._having_expr(node.left, keys, specs),
                self._having_expr(node.right, keys, specs),
            )
        if isinstance(node, ast.Compare):
            return e.Comparison(
                node.op,
                self._having_expr(node.left, keys, specs),
                self._having_expr(node.right, keys, specs),
            )
        if isinstance(node, ast.BoolOp):
            ctor = e.And if node.op == "AND" else e.Or
            return ctor(
                self._having_expr(node.left, keys, specs),
                self._having_expr(node.right, keys, specs),
            )
        if isinstance(node, ast.NotOp):
            return e.Not(self._having_expr(node.child, keys, specs))
        raise SQLError(
            f"unsupported expression node {type(node).__name__} in HAVING"
        )

    @staticmethod
    def _default_alias(agg: ast.AggCall, quantile: float | None, i: int) -> str:
        base = agg.func if quantile is None else f"{agg.func}_q{quantile:g}"
        return f"{base}_{i + 1}"

    def _projection_outputs(self, tree: p.PlanNode) -> dict[str, e.Expr]:
        outputs: dict[str, e.Expr] = {}
        for i, item in enumerate(self.query.items):
            expr = self._expr(item.expression)
            if item.alias:
                name = item.alias
            elif isinstance(item.expression, ast.ColumnRef):
                name = item.expression.name
            else:
                name = f"col_{i + 1}"
            if name in outputs:
                raise SQLError(f"duplicate output column {name!r}")
            outputs[name] = expr
        return outputs

"""Seeded random generation of fuzz schemas and queries.

Queries are generated as ASTs (:mod:`repro.sql.ast_nodes`) and rendered
through the printer, so every generated statement exercises the
``parse ∘ print`` fixed point by construction.  The generator only
emits statements the planner accepts — a planning error on generated
text is itself a reportable failure, not generator noise.

The schema is small but adversarial: a skewed fact table, a dimension
for joins, a three-row ``tiny`` table (singleton-group fodder), and a
zero-row ``void`` table (the empty-input corner every hand-written
suite skips).  Column names are globally unique, as the planner
requires.  :func:`install_fuzz_versions` additionally grows the fact
table a deterministic snapshot history, so the stream covers version
pins (``AT VERSION n``) and coordinated version differences
(``MINUS AT VERSION`` / ``VERSIONS BETWEEN``) too.
"""

from __future__ import annotations

import random

import numpy as np

from repro.sql import ast_nodes as ast

__all__ = [
    "FUZZ_TABLES",
    "FUZZ_VERSIONS",
    "QueryGenerator",
    "build_fuzz_tables",
    "install_fuzz_versions",
]

#: Sampling-rate ladder (percent).  Includes the tiny rates that
#: degradation produces (exponent-form literals) and rates low enough
#: that small tables survive with zero rows.
RATE_LADDER = (90.0, 75.0, 50.0, 25.0, 10.0, 5.0, 1.0, 0.5, 0.01, 1e-05)

#: table → (numeric columns, group-key columns, join key)
FUZZ_TABLES = {
    "fact": (("f_val", "f_flag"), ("f_cat", "f_flag"), "f_key"),
    "dim": (("d_weight",), ("d_grp",), "d_key"),
    "tiny": (("t_val",), ("t_key",), "t_key"),
    "void": (("v_val",), ("v_key",), "v_key"),
}

#: (left, right) table pairs joinable on their join keys.
JOIN_PAIRS = (("fact", "dim"), ("fact", "tiny"), ("fact", "void"))

#: Snapshot versions installed on the fuzz ``fact`` table; the live
#: table sits one further mutation step past the last snapshot.
FUZZ_VERSIONS = 2

#: Fraction of ``f_val`` rows each version step perturbs.
VERSION_CHANGE_FRACTION = 0.05

#: Share of budget statements drawn in the unconstrained shape — an
#: ``AVG`` budget, an unsampled table, a ``1 ROWS`` join sample — which
#: the optimizer refuses (identically on both backends).  The rest are
#: ``SUM``/``COUNT`` budgets over tables that each carry a ``PERCENT``
#: clause: shapes it plans, so the backend and chunk comparisons
#: compare answers rather than two error strings.
BUDGET_REFUSAL_SHARE = 0.15

#: The ``TABLESAMPLE`` clause forms the generator draws, with their
#: draw weights.  Every family of
#: :data:`repro.optimizer.candidates.FAMILIES` is spelled by one of
#: them (coordinated sampling *is* ``PERCENT REPEATABLE`` at a shared
#: seed).  The key order is the order :meth:`random.Random.choices`
#: draws over, so reordering it changes the query stream.
SAMPLE_TAG_WEIGHTS = {
    "percent": 0.30,
    "percent-repeatable": 0.25,
    "system": 0.25,
    "rows": 0.20,
}


def build_fuzz_tables() -> dict[str, dict[str, np.ndarray]]:
    """Column arrays for the fuzz schema, the same on every call."""
    rng = np.random.default_rng(0)
    n_fact, n_dim = 400, 60
    # Skewed foreign keys: a few dimension rows soak up most of the
    # fact rows (join fanout stress), some dimension rows match nothing.
    f_key = np.minimum(
        rng.geometric(0.08, size=n_fact) - 1, n_dim - 1
    ).astype(np.int64)
    f_val = np.where(
        rng.random(n_fact) < 0.1,
        rng.normal(0.0, 1e4, size=n_fact),  # heavy tail
        rng.normal(10.0, 3.0, size=n_fact),
    )
    return {
        "fact": {
            "f_key": f_key,
            "f_val": f_val,
            "f_cat": rng.integers(0, 5, size=n_fact, dtype=np.int64),
            "f_flag": rng.integers(0, 2, size=n_fact, dtype=np.int64),
        },
        "dim": {
            "d_key": np.arange(n_dim, dtype=np.int64),
            "d_weight": rng.normal(1.0, 0.5, size=n_dim),
            "d_grp": rng.integers(0, 3, size=n_dim, dtype=np.int64),
        },
        "tiny": {
            "t_key": np.arange(3, dtype=np.int64),
            "t_val": np.array([1.5, -2.0, 40.0]),
        },
        "void": {
            "v_key": np.array([], dtype=np.int64),
            "v_val": np.array([], dtype=np.float64),
        },
    }


def install_fuzz_versions(db) -> None:
    """Give ``fact`` a deterministic version history on ``db``.

    Applies :data:`FUZZ_VERSIONS` update-shaped mutation steps through
    ``db.update_table`` — each perturbs ~5 % of ``f_val`` in place, so
    row positions (the coordination keys) never move — leaving the
    catalog with ``fact AT VERSION 1..FUZZ_VERSIONS`` plus a live table
    one step further.  Deterministic in the starting contents, so
    every database one check touches (plain, catalog, mmap twin, fresh
    rebuilds) grows a bit-identical history.
    """
    rng = np.random.default_rng(0x5EED)
    for _ in range(FUZZ_VERSIONS):
        fact = db.table("fact")
        values = np.array(fact.column("f_val"), dtype=np.float64, copy=True)
        n_changed = max(1, int(values.shape[0] * VERSION_CHANGE_FRACTION))
        rows = rng.choice(values.shape[0], size=n_changed, replace=False)
        values[rows] += rng.normal(0.0, 25.0, size=n_changed)
        db.update_table("fact", fact.with_columns({"f_val": values}))


class QueryGenerator:
    """A deterministic stream of planner-valid random queries.

    ``query()`` returns a :class:`~repro.sql.ast_nodes.SelectQuery`;
    the i-th query of two generators built with the same seed is
    identical, which is what makes every fuzz failure replayable from
    ``(seed, index)`` alone.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rand = random.Random(seed)
        self._alias_n = 0

    # -- small helpers -----------------------------------------------------

    def _chance(self, p: float) -> bool:
        return self.rand.random() < p

    def _pick(self, seq):
        return self.rand.choice(list(seq))

    # -- schema-aware pieces ----------------------------------------------

    def _tables(self) -> tuple[list[str], ast.SqlExpr | None]:
        """Pick the FROM tables and the join predicate (if any)."""
        if self._chance(0.35):
            left, right = self._pick(JOIN_PAIRS)
            join = ast.Compare(
                "=",
                ast.ColumnRef(FUZZ_TABLES[left][2]),
                ast.ColumnRef(FUZZ_TABLES[right][2]),
            )
            return [left, right], join
        weights = {"fact": 0.7, "tiny": 0.15, "void": 0.15}
        roll = self.rand.random()
        acc = 0.0
        for name, w in weights.items():
            acc += w
            if roll < acc:
                return [name], None
        return ["fact"], None

    def _numeric_columns(self, tables: list[str]) -> list[str]:
        cols: list[str] = []
        for t in tables:
            cols.extend(FUZZ_TABLES[t][0])
        return cols

    def _group_columns(self, tables: list[str]) -> list[str]:
        cols: list[str] = []
        for t in tables:
            cols.extend(FUZZ_TABLES[t][1])
        return sorted(set(cols))

    def _agg_argument(self, tables: list[str]) -> ast.SqlExpr:
        cols = self._numeric_columns(tables)
        base: ast.SqlExpr = ast.ColumnRef(self._pick(cols))
        if self._chance(0.25):
            op = self._pick("+-*")
            other: ast.SqlExpr = (
                ast.ColumnRef(self._pick(cols))
                if self._chance(0.5) and len(cols) > 1
                else ast.NumberLit(float(self._pick((1, 2, 0.5, 10))))
            )
            base = ast.Arithmetic(op, base, other)
        return base

    def _aggregate(self, tables: list[str], *, allow_quantile: bool):
        roll = self.rand.random()
        if roll < 0.45:
            agg = ast.AggCall("sum", self._agg_argument(tables))
        elif roll < 0.60:
            agg = ast.AggCall("count", None)
        elif roll < 0.70:
            agg = ast.AggCall(
                "count", ast.ColumnRef(self._pick(self._numeric_columns(tables)))
            )
        else:
            agg = ast.AggCall("avg", self._agg_argument(tables))
        expr: ast.SqlExpr = agg
        if allow_quantile and self._chance(0.15):
            expr = ast.QuantileCall(agg, self._pick((0.5, 0.9, 0.95)))
        return self._item(expr)

    def _budget_aggregate(self, tables: list[str]) -> ast.SelectItem:
        """A ``SUM`` or ``COUNT(*)`` item: what a budget can predict."""
        if self._chance(0.7):
            agg = ast.AggCall("sum", self._agg_argument(tables))
        else:
            agg = ast.AggCall("count", None)
        return self._item(agg)

    def _item(self, expr: ast.SqlExpr) -> ast.SelectItem:
        alias = f"a{self._alias_n}"
        self._alias_n += 1
        return ast.SelectItem(expr, alias)

    def _sample_for_tag(self, tag: str) -> ast.SampleClause:
        """A clause in one ``TABLESAMPLE`` form of
        :data:`SAMPLE_TAG_WEIGHTS`."""
        if tag == "percent":
            return ast.SampleClause("percent", self._pick(RATE_LADDER))
        if tag == "percent-repeatable":
            # REPEATABLE is percent-only: fixed-size and block draws
            # have no per-tuple hash form for the planner to pin.
            return ast.SampleClause(
                "percent",
                self._pick(RATE_LADDER),
                repeatable_seed=self.rand.randrange(1_000_000),
            )
        if tag == "rows":
            return ast.SampleClause(
                "rows", float(self._pick((1, 5, 50, 200)))
            )
        if tag == "system":
            kind = (
                "system_percent" if self._chance(0.6) else "system_blocks"
            )
            amount = (
                self._pick((50.0, 20.0, 5.0))
                if kind == "system_percent"
                else float(self._pick((1, 2, 8)))
            )
            return ast.SampleClause(
                kind, amount, rows_per_block=self._pick((4, 16, 64))
            )
        raise ValueError(f"no clause shape for sample tag {tag!r}")

    def _budget_sample(self) -> ast.SampleClause:
        """A ``PERCENT`` clause, the form every plannable budget carries."""
        return self._sample_for_tag(
            self._pick(("percent", "percent-repeatable"))
        )

    def _sample(self) -> ast.SampleClause | None:
        """No sample clause, or one in a weighted random form."""
        if self._chance(0.25):
            return None
        return self._sample_for_tag(
            self.rand.choices(
                list(SAMPLE_TAG_WEIGHTS), weights=SAMPLE_TAG_WEIGHTS.values()
            )[0]
        )

    def _filter_predicate(self, tables: list[str]) -> ast.SqlExpr:
        col = self._pick(self._numeric_columns(tables))
        op = self._pick(("<", "<=", ">", ">=", "=", "!="))
        threshold = float(self._pick((0, 1, 8.0, 12.5, -5, 100)))
        pred: ast.SqlExpr = ast.Compare(
            op, ast.ColumnRef(col), ast.NumberLit(threshold)
        )
        if self._chance(0.2):
            pred = ast.NotOp(pred)
        if self._chance(0.2):
            other = self._filter_predicate(tables)
            pred = ast.BoolOp(self._pick(("AND", "OR")), pred, other)
        return pred

    def _having(self, items, keys) -> ast.SqlExpr:
        targets = [i.alias for i in items] + [k.name for k in keys]
        pred: ast.SqlExpr = ast.Compare(
            self._pick(("<", "<=", ">", ">=")),
            ast.ColumnRef(self._pick(targets)),
            ast.NumberLit(float(self._pick((0, 1, 50, 1000, -100)))),
        )
        if self._chance(0.25):
            pred = ast.NotOp(pred)
        return pred

    def _grouping(self, items, tables: list[str]):
        """An optional GROUP BY (and HAVING) over the tables' keys."""
        if not self._chance(0.45):
            return (), None
        candidates = self._group_columns(tables)
        self.rand.shuffle(candidates)
        group_by = tuple(
            ast.ColumnRef(c) for c in candidates[: self.rand.randint(1, 2)]
        )
        having = (
            self._having(items, group_by) if self._chance(0.40) else None
        )
        return group_by, having

    # -- versioned statements ----------------------------------------------

    def _diff_sample(self) -> ast.SampleClause | None:
        """Difference refs sample by coordinated Bernoulli or not at all."""
        if self._chance(0.3):
            return None
        return ast.SampleClause(
            "percent",
            self._pick(RATE_LADDER),
            repeatable_seed=self.rand.randrange(1_000_000),
        )

    def _version_pair(self) -> tuple[int, int | None]:
        """``(lo, hi)`` with hi above lo; ``None`` is the live table."""
        lo = self._pick(range(1, FUZZ_VERSIONS + 1))
        if lo == FUZZ_VERSIONS:
            return lo, None
        return lo, self._pick((*range(lo + 1, FUZZ_VERSIONS + 1), None))

    def _diff_aggregate(self) -> ast.SelectItem:
        """SUM/COUNT only: AVG over a difference is a ratio, not a sum."""
        roll = self.rand.random()
        if roll < 0.60:
            agg = ast.AggCall("sum", self._agg_argument(["fact"]))
        elif roll < 0.80:
            agg = ast.AggCall("count", None)
        else:
            agg = ast.AggCall(
                "count", ast.ColumnRef(self._pick(FUZZ_TABLES["fact"][0]))
            )
        expr: ast.SqlExpr = agg
        if self._chance(0.12):
            expr = ast.QuantileCall(agg, self._pick((0.5, 0.9, 0.95)))
        alias = f"a{self._alias_n}"
        self._alias_n += 1
        return ast.SelectItem(expr, alias)

    def _diff_query(self) -> ast.SelectQuery:
        """A version-difference statement over the ``fact`` history."""
        lo, hi = self._version_pair()
        between = hi is not None and self._chance(0.3)
        ref = ast.TableRef(
            "fact",
            sample=self._diff_sample(),
            version=hi,
            minus_version=lo,
            between=between,
        )
        items = tuple(
            self._diff_aggregate() for _ in range(self.rand.randint(1, 2))
        )
        where = (
            self._filter_predicate(["fact"]) if self._chance(0.35) else None
        )
        group_by, having = self._grouping(items, ["fact"])
        return ast.SelectQuery(
            items=items,
            tables=(ref,),
            where=where,
            group_by=group_by,
            having=having,
        )

    def _versioned_query(self) -> ast.SelectQuery:
        """A statement over the ``fact`` version history.

        Either a version *difference* (the coordinated change
        estimator: SUM/COUNT only, optional GROUP BY/HAVING, sampling
        restricted to percent + REPEATABLE) or a plain aggregate pinned
        to one frozen snapshot, where the ordinary surface applies.
        """
        if self._chance(0.55):
            return self._diff_query()
        version = self._pick(range(1, FUZZ_VERSIONS + 1))
        items = tuple(
            self._aggregate(["fact"], allow_quantile=True)
            for _ in range(self.rand.randint(1, 2))
        )
        ref = ast.TableRef("fact", sample=self._sample(), version=version)
        where = (
            self._filter_predicate(["fact"]) if self._chance(0.35) else None
        )
        group_by, having = self._grouping(items, ["fact"])
        return ast.SelectQuery(
            items=items,
            tables=(ref,),
            where=where,
            group_by=group_by,
            having=having,
        )

    # -- the generator proper ----------------------------------------------

    def query(self) -> ast.SelectQuery:
        """One random, planner-valid aggregate query."""
        self._alias_n = 0
        if self._chance(0.18):
            return self._versioned_query()
        tables, join = self._tables()

        # Budgets go on ``fact`` alone and on its joins, where the
        # optimizer also ranks join orders.
        budget = None
        plannable = False
        if "fact" in tables and self._chance(0.06):
            budget = ast.ErrorBudgetClause(
                percent=float(self._pick((5, 10, 20, 40))),
                level=self._pick((0.9, 0.95)),
            )
            plannable = not self._chance(BUDGET_REFUSAL_SHARE)

        # Budget queries go through the optimizer: single plain
        # aggregate, no GROUP BY, no QUANTILE.
        if plannable:
            items = (self._budget_aggregate(tables),)
        else:
            n_aggs = 1 if budget is not None else self.rand.randint(1, 3)
            items = tuple(
                self._aggregate(tables, allow_quantile=budget is None)
                for _ in range(n_aggs)
            )

        refs = tuple(
            ast.TableRef(
                name,
                sample=self._budget_sample() if plannable else self._sample(),
            )
            for name in tables
        )

        where = join
        if self._chance(0.40):
            extra = self._filter_predicate(tables)
            where = (
                extra if where is None else ast.BoolOp("AND", where, extra)
            )

        group_by: tuple[ast.ColumnRef, ...] = ()
        having = None
        if budget is None:
            group_by, having = self._grouping(items, tables)

        return ast.SelectQuery(
            items=items,
            tables=refs,
            where=where,
            group_by=group_by,
            having=having,
            budget=budget,
        )

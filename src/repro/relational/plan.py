"""Logical query plans.

Plans are immutable trees of :class:`PlanNode`.  Two node families
matter to the reproduction:

* purely relational nodes (scan/select/project/join/cross/union/
  intersect/aggregate) — these both execute and appear in the
  SOA-equivalent analysis plan; and
* sampling nodes: :class:`TableSample` (a ``TABLESAMPLE`` clause over a
  base table), :class:`LineageSample` (Section 7's executable
  lineage-keyed multi-dimensional Bernoulli, placeable anywhere), and
  :class:`GUSNode` (the *quasi-operator*: analysis-only, produced by the
  rewriter, refused by the executor — the paper is explicit that general
  GUS operators need never be executable).

Every node knows its lineage schema (the set of base relations below
it) and exposes a structural :meth:`PlanNode.fingerprint` so the
rewriter can recognise "two samples of the same expression", the
precondition of the union/intersection rules.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.core.gus import GUSParams
from repro.errors import PlanError, SelfJoinError
from repro.relational.expressions import Expr, and_
from repro.sampling.base import SamplingMethod
from repro.sampling.composed import BiDimensionalBernoulli


class PlanNode:
    """Base class of all plan nodes."""

    __slots__ = ()

    @property
    def children(self) -> tuple["PlanNode", ...]:
        raise NotImplementedError

    def lineage_schema(self) -> frozenset[str]:
        """Base relations contributing lineage below this node."""
        raise NotImplementedError

    def fingerprint(self) -> tuple:
        """Structural identity (used for the same-expression checks)."""
        raise NotImplementedError

    def pretty(self, indent: int = 0) -> str:
        """Multi-line plan rendering, one node per line."""
        pad = "  " * indent
        lines = [pad + self._label()]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return self._label()


class Scan(PlanNode):
    """Read a base table from the catalog, attaching row-id lineage."""

    __slots__ = ("table_name",)

    def __init__(self, table_name: str) -> None:
        self.table_name = table_name

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def lineage_schema(self) -> frozenset[str]:
        return frozenset([self.table_name])

    def fingerprint(self) -> tuple:
        return ("scan", self.table_name)

    def _label(self) -> str:
        return f"Scan({self.table_name})"


class Select(PlanNode):
    """Filter rows by a boolean predicate."""

    __slots__ = ("child", "predicate")

    def __init__(self, child: PlanNode, predicate: Expr) -> None:
        self.child = child
        self.predicate = predicate

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def lineage_schema(self) -> frozenset[str]:
        return self.child.lineage_schema()

    def fingerprint(self) -> tuple:
        return ("select", self.predicate.key(), self.child.fingerprint())

    def _label(self) -> str:
        return f"Select({self.predicate!r})"


class Project(PlanNode):
    """Bag projection (no duplicate elimination); lineage is retained.

    ``outputs`` maps output column names to expressions; ``None`` keeps
    all input columns (useful for pure column pruning at the SQL layer).
    """

    __slots__ = ("child", "outputs")

    def __init__(
        self, child: PlanNode, outputs: dict[str, Expr] | None
    ) -> None:
        self.child = child
        self.outputs = dict(outputs) if outputs is not None else None

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def lineage_schema(self) -> frozenset[str]:
        return self.child.lineage_schema()

    def fingerprint(self) -> tuple:
        out_key = (
            None
            if self.outputs is None
            else tuple(sorted((n, e.key()) for n, e in self.outputs.items()))
        )
        return ("project", out_key, self.child.fingerprint())

    def _label(self) -> str:
        names = "*" if self.outputs is None else ", ".join(self.outputs)
        return f"Project({names})"


class Join(PlanNode):
    """Equi-join on one or more column pairs.

    ``left_keys[i]`` joins against ``right_keys[i]``.  Residual
    (non-equality) predicates belong in a :class:`Select` above.
    """

    __slots__ = ("left", "right", "left_keys", "right_keys")

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
    ) -> None:
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError("join needs equal, non-empty key lists")
        overlap = left.lineage_schema() & right.lineage_schema()
        if overlap:
            raise SelfJoinError(
                f"join inputs share base relations {sorted(overlap)}; "
                "self-joins are outside the GUS algebra"
            )
        self.left = left
        self.right = right
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def lineage_schema(self) -> frozenset[str]:
        return self.left.lineage_schema() | self.right.lineage_schema()

    def fingerprint(self) -> tuple:
        return (
            "join",
            self.left_keys,
            self.right_keys,
            self.left.fingerprint(),
            self.right.fingerprint(),
        )

    def _label(self) -> str:
        conds = ", ".join(
            f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"Join({conds})"


class CrossProduct(PlanNode):
    """Cartesian product of two inputs with disjoint lineage."""

    __slots__ = ("left", "right")

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        overlap = left.lineage_schema() & right.lineage_schema()
        if overlap:
            raise SelfJoinError(
                f"cross-product inputs share base relations {sorted(overlap)}"
            )
        self.left = left
        self.right = right

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def lineage_schema(self) -> frozenset[str]:
        return self.left.lineage_schema() | self.right.lineage_schema()

    def fingerprint(self) -> tuple:
        return ("cross", self.left.fingerprint(), self.right.fingerprint())


class Union(PlanNode):
    """Set union by lineage of two samples of the same expression.

    Proposition 7 (and its duplicate-elimination requirement, Section 9)
    applies to unions of samples *of the same relation*; the executor
    deduplicates rows that share full lineage.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        if left.lineage_schema() != right.lineage_schema():
            raise PlanError(
                "union requires identical lineage schemas "
                f"({sorted(left.lineage_schema())} vs "
                f"{sorted(right.lineage_schema())})"
            )
        self.left = left
        self.right = right

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def lineage_schema(self) -> frozenset[str]:
        return self.left.lineage_schema()

    def fingerprint(self) -> tuple:
        return ("union", self.left.fingerprint(), self.right.fingerprint())


class Intersect(PlanNode):
    """Set intersection by lineage (the paper's *compaction* view)."""

    __slots__ = ("left", "right")

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        if left.lineage_schema() != right.lineage_schema():
            raise PlanError(
                "intersect requires identical lineage schemas "
                f"({sorted(left.lineage_schema())} vs "
                f"{sorted(right.lineage_schema())})"
            )
        self.left = left
        self.right = right

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def lineage_schema(self) -> frozenset[str]:
        return self.left.lineage_schema()

    def fingerprint(self) -> tuple:
        return (
            "intersect",
            self.left.fingerprint(),
            self.right.fingerprint(),
        )


class TableSample(PlanNode):
    """A ``TABLESAMPLE`` clause: a sampling method over a base table.

    Restricted to sit directly above a :class:`Scan`, mirroring SQL
    (you sample *tables*, not intermediate results — intermediate
    sub-sampling is :class:`LineageSample`).
    """

    __slots__ = ("child", "method")

    def __init__(self, child: Scan, method: SamplingMethod) -> None:
        if not isinstance(child, Scan):
            raise PlanError(
                "TABLESAMPLE applies to base tables only; got "
                f"{type(child).__name__}"
            )
        self.child = child
        self.method = method

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def lineage_schema(self) -> frozenset[str]:
        return self.child.lineage_schema()

    def fingerprint(self) -> tuple:
        return (
            "tablesample",
            self.method.describe(),
            self.child.fingerprint(),
        )

    def _label(self) -> str:
        return f"TableSample({self.method.describe()})"


class LineageSample(PlanNode):
    """Section 7's executable multi-dimensional lineage Bernoulli.

    Can be placed above any node whose lineage schema covers the
    sampled dimensions; the keep decision is a pure hash of per-relation
    seeds and lineage ids, so it is a genuine GUS.
    """

    __slots__ = ("child", "sampler")

    def __init__(self, child: PlanNode, sampler: BiDimensionalBernoulli) -> None:
        missing = set(sampler.rates) - child.lineage_schema()
        if missing:
            raise PlanError(
                f"lineage sample dimensions {sorted(missing)} not in child "
                f"lineage schema {sorted(child.lineage_schema())}"
            )
        self.child = child
        self.sampler = sampler

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def lineage_schema(self) -> frozenset[str]:
        return self.child.lineage_schema()

    def fingerprint(self) -> tuple:
        return (
            "lineagesample",
            self.sampler.describe(),
            self.child.fingerprint(),
        )

    def _label(self) -> str:
        return f"LineageSample({self.sampler.describe()})"


class GUSNode(PlanNode):
    """The GUS *quasi-operator* — analysis only, never executed.

    Appears in SOA-equivalent plans produced by the rewriter; asking
    the executor to run one raises
    :class:`~repro.errors.ExecutionError`, matching the paper's point
    that no implementation of a general GUS operator is needed.
    """

    __slots__ = ("child", "params")

    def __init__(self, child: PlanNode, params: GUSParams) -> None:
        self.child = child
        self.params = params

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def lineage_schema(self) -> frozenset[str]:
        return self.child.lineage_schema() | self.params.schema

    def fingerprint(self) -> tuple:
        b_key = tuple(float(x) for x in self.params.b)
        return ("gus", self.params.a, b_key, self.child.fingerprint())

    def _label(self) -> str:
        return f"GUS(a={self.params.a:.6g}, schema={sorted(self.params.schema)})"


@dataclass(frozen=True)
class AggSpec:
    """One aggregate output column.

    ``kind`` is ``sum``, ``count`` or ``avg``; ``expr`` is the argument
    (``None`` for ``COUNT(*)``); ``quantile`` marks the paper's
    ``QUANTILE(agg, q)`` syntax — the output column then reports that
    quantile of the estimator rather than the point estimate.
    """

    kind: str
    expr: Expr | None
    alias: str
    quantile: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("sum", "count", "avg"):
            raise PlanError(f"unsupported aggregate {self.kind!r}")
        if self.kind != "count" and self.expr is None:
            raise PlanError(f"{self.kind.upper()} needs an argument")
        if self.quantile is not None and not 0.0 < self.quantile < 1.0:
            raise PlanError(f"quantile {self.quantile} must be in (0, 1)")


class GroupAggregate(PlanNode):
    """Grouped aggregation: one output row per distinct key combination.

    ``keys`` are the GROUP BY column names; ``specs`` the aggregate
    outputs; ``having`` an optional predicate evaluated over the
    *output* schema (group keys plus aggregate aliases) that filters
    groups after aggregation.  On the estimating path HAVING is
    necessarily approximate — it sees estimated aggregate values.
    """

    __slots__ = ("child", "keys", "specs", "having")

    def __init__(
        self,
        child: PlanNode,
        keys: Sequence[str],
        specs: Sequence[AggSpec],
        having: Expr | None = None,
    ) -> None:
        if not keys:
            raise PlanError(
                "GroupAggregate needs at least one grouping key "
                "(ungrouped aggregation is the Aggregate node)"
            )
        if len(set(keys)) != len(keys):
            raise PlanError(f"duplicate GROUP BY keys in {list(keys)}")
        if not specs:
            raise PlanError("aggregate needs at least one AggSpec")
        aliases = [s.alias for s in specs]
        if len(set(aliases)) != len(aliases):
            raise PlanError(f"duplicate aggregate aliases in {aliases}")
        overlap = set(keys) & set(aliases)
        if overlap:
            raise PlanError(
                f"aggregate aliases {sorted(overlap)} collide with "
                "GROUP BY keys"
            )
        if having is not None:
            visible = set(keys) | set(aliases)
            unknown = having.columns_used() - visible
            if unknown:
                raise PlanError(
                    f"HAVING references {sorted(unknown)}, which are "
                    "neither GROUP BY keys nor aggregate aliases; "
                    f"grouped output exposes only {sorted(visible)}"
                )
        self.child = child
        self.keys = tuple(keys)
        self.specs = tuple(specs)
        self.having = having

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def lineage_schema(self) -> frozenset[str]:
        return self.child.lineage_schema()

    def fingerprint(self) -> tuple:
        spec_key = tuple(
            (s.kind, None if s.expr is None else s.expr.key(), s.alias, s.quantile)
            for s in self.specs
        )
        having_key = None if self.having is None else self.having.key()
        return (
            "group_aggregate",
            self.keys,
            spec_key,
            having_key,
            self.child.fingerprint(),
        )

    def _label(self) -> str:
        inner = ", ".join(
            f"{s.kind.upper()}({s.expr!r})" if s.expr is not None else "COUNT(*)"
            for s in self.specs
        )
        text = f"GroupAggregate(by=[{', '.join(self.keys)}], {inner})"
        if self.having is not None:
            text += f" HAVING {self.having!r}"
        return text


class Aggregate(PlanNode):
    """Terminal aggregation node over one or more :class:`AggSpec`."""

    __slots__ = ("child", "specs")

    def __init__(self, child: PlanNode, specs: Sequence[AggSpec]) -> None:
        if not specs:
            raise PlanError("aggregate needs at least one AggSpec")
        aliases = [s.alias for s in specs]
        if len(set(aliases)) != len(aliases):
            raise PlanError(f"duplicate aggregate aliases in {aliases}")
        self.child = child
        self.specs = tuple(specs)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def lineage_schema(self) -> frozenset[str]:
        return self.child.lineage_schema()

    def fingerprint(self) -> tuple:
        spec_key = tuple(
            (s.kind, None if s.expr is None else s.expr.key(), s.alias, s.quantile)
            for s in self.specs
        )
        return ("aggregate", spec_key, self.child.fingerprint())

    def _label(self) -> str:
        inner = ", ".join(
            f"{s.kind.upper()}({s.expr!r})" if s.expr is not None else "COUNT(*)"
            for s in self.specs
        )
        return f"Aggregate({inner})"


def left_deep_join_tree(
    order: Sequence[str],
    leaves: dict[str, PlanNode],
    joins: Sequence[tuple[str, str, str, str]],
) -> PlanNode:
    """Build a left-deep tree over ``leaves`` in the given relation order.

    ``joins`` holds equi-join conditions ``(rel_a, col_a, rel_b, col_b)``.
    At each step the next relation *connected* to the joined prefix is
    picked (preserving ``order`` among the connected ones); unconnected
    relations fall back to cross products.  Shared by the SQL planner
    and the sampling-plan optimizer's candidate enumerator, so the two
    always agree on what a join order means.
    """
    if not order:
        raise PlanError("join tree needs at least one relation")
    pending = list(joins)
    current = leaves[order[0]]
    joined = {order[0]}
    remaining = list(order[1:])
    while remaining:
        chosen_idx = None
        for idx, name in enumerate(remaining):
            if any(
                (a in joined and c == name) or (c in joined and a == name)
                for a, _, c, _ in pending
            ):
                chosen_idx = idx
                break
        if chosen_idx is None:
            name = remaining.pop(0)
            current = CrossProduct(current, leaves[name])
            joined.add(name)
            continue
        name = remaining.pop(chosen_idx)
        left_keys, right_keys = [], []
        still_pending = []
        for a, a_col, c, c_col in pending:
            if a in joined and c == name:
                left_keys.append(a_col)
                right_keys.append(c_col)
            elif c in joined and a == name:
                left_keys.append(c_col)
                right_keys.append(a_col)
            else:
                still_pending.append((a, a_col, c, c_col))
        pending = still_pending
        current = Join(current, leaves[name], left_keys, right_keys)
        joined.add(name)
    if pending:
        leftover = [f"{a}.{ac} = {c}.{cc}" for a, ac, c, cc in pending]
        raise PlanError(f"unusable join conditions: {leftover}")
    return current


def filtered_join_tree(
    order: Sequence[str],
    leaves: dict[str, PlanNode],
    joins: Sequence[tuple[str, str, str, str]],
    filters: Sequence[Expr],
    column_owner: Mapping[str, str],
) -> PlanNode:
    """:func:`left_deep_join_tree` with the WHERE conjuncts placed.

    With more than one relation, a conjunct whose columns all belong to
    one relation (``column_owner``) filters that relation's leaf; the
    rest stay above the tree.  Selection passes a GUS through and a
    join merges its inputs' GUS (Propositions 5 and 6), and a filtered
    join input keeps the surviving output rows in their relative order,
    so every answer keeps its bits while the joins touch fewer rows.
    """
    by_relation: dict[str, list[Expr]] = {}
    residual: list[Expr] = []
    for conjunct in filters:
        owners = {column_owner.get(c) for c in conjunct.columns_used()}
        if len(leaves) > 1 and len(owners) == 1 and owners <= leaves.keys():
            by_relation.setdefault(owners.pop(), []).append(conjunct)
        else:
            residual.append(conjunct)
    placed = dict(leaves)
    for name, conjuncts in by_relation.items():
        placed[name] = Select(leaves[name], and_(*conjuncts))
    tree = left_deep_join_tree(order, placed, joins)
    return Select(tree, and_(*residual)) if residual else tree


def walk(plan: PlanNode):
    """Yield every node of the plan, pre-order."""
    yield plan
    for child in plan.children:
        yield from walk(child)


def contains_sampling(plan: PlanNode) -> bool:
    """True when any sampling (or GUS) node appears in the plan."""
    return any(
        isinstance(node, (TableSample, LineageSample, GUSNode))
        for node in walk(plan)
    )


def strip_sampling(plan: PlanNode) -> PlanNode:
    """Remove all sampling nodes — the exact (ground-truth) plan."""
    if isinstance(plan, (TableSample, LineageSample, GUSNode)):
        return strip_sampling(plan.child)
    if isinstance(plan, Scan):
        return plan
    if isinstance(plan, Select):
        return Select(strip_sampling(plan.child), plan.predicate)
    if isinstance(plan, Project):
        return Project(strip_sampling(plan.child), plan.outputs)
    if isinstance(plan, Join):
        return Join(
            strip_sampling(plan.left),
            strip_sampling(plan.right),
            plan.left_keys,
            plan.right_keys,
        )
    if isinstance(plan, CrossProduct):
        return CrossProduct(strip_sampling(plan.left), strip_sampling(plan.right))
    if isinstance(plan, (Union, Intersect)):
        ctor = Union if isinstance(plan, Union) else Intersect
        return ctor(strip_sampling(plan.left), strip_sampling(plan.right))
    if isinstance(plan, Aggregate):
        return Aggregate(strip_sampling(plan.child), plan.specs)
    if isinstance(plan, GroupAggregate):
        return GroupAggregate(
            strip_sampling(plan.child), plan.keys, plan.specs, plan.having
        )
    raise PlanError(f"cannot strip sampling from {type(plan).__name__}")

"""Candidate enumeration: SOA-equivalent plan variants of one query.

The GUS algebra's whole point (paper Sections 4–5) is that the sampling
design is a *free variable* of an aggregate query: any assignment of
uniform sampling operators to the base relations, under any join order,
estimates the same aggregate — only the cost and the Theorem 1 variance
change.  This module makes that concrete:

* :func:`decompose` strips a planned query down to its
  :class:`QuerySkeleton` — relations, per-relation sampling methods,
  equi-join conditions, residual filters, and aggregate specs;
* :meth:`QuerySkeleton.build` reassembles an executable plan for any
  (join order, method assignment) pair, reusing the planner's
  left-deep-tree construction and filter placement so SQL-planned and
  optimizer-built plans are structurally identical;
* :func:`enumerate_assignments` walks a geometric rate ladder across
  the :data:`FAMILIES` table (uniform grids always; the per-relation
  Bernoulli cartesian product whenever it stays small), and
  :func:`join_orders` enumerates the connected left-deep orders;
* :func:`reusable_methods` / :func:`escalate_methods` support the
  adaptive loop: hash-based Bernoulli filters at a fixed seed draw
  *nested* samples as the rate grows, so escalated re-executions keep
  every already-drawn tuple.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import PlanError, ReproError
from repro.relational import plan as p
from repro.relational.expressions import Expr
from repro.sampling import (
    Bernoulli,
    BlockBernoulli,
    BlockWithoutReplacement,
    CoordinatedBernoulli,
    LineageHashBernoulli,
    SamplingMethod,
    WithoutReplacement,
)
from repro.versions.snapshots import base_name

#: Geometric rate ladder the enumerator walks (×2–2.5 steps).
RATE_LADDER: tuple[float, ...] = (0.02, 0.05, 0.1, 0.2, 0.4, 0.8)

#: Rows per block for generated SYSTEM-style candidates.
BLOCK_ROWS = 64


def relation_seed(seed: int, relation: str) -> int:
    """A stable per-relation seed for hash-based (nested-draw) filters.

    Uses CRC32 rather than ``hash()`` so the seed survives process
    restarts (string hashing is salted per interpreter run).
    """
    return (seed * 0x9E3779B1 + zlib.crc32(relation.encode())) % (2**31)


#: The method families the enumerator instantiates: name →
#: ``factory(rate, relation, size, seed)``, which builds the family at
#: a target sampling fraction of one relation.  The estimator sees a
#: family only as its GUS parameters, so a new family is one entry here
#: (and, if SQL can spell it, one clause form in
#: :data:`repro.fuzz.generator.SAMPLE_TAG_WEIGHTS`).  The order is the
#: enumeration order, which breaks candidate ranking ties.
FAMILIES: dict[str, Callable[[float, str, int, int], SamplingMethod]] = {
    "bernoulli": lambda rate, relation, size, seed: Bernoulli(rate),
    "lineage-hash": lambda rate, relation, size, seed: LineageHashBernoulli(
        rate, seed=relation_seed(seed, relation)
    ),
    "block": lambda rate, relation, size, seed: BlockBernoulli(
        rate, BLOCK_ROWS
    ),
    # n ≥ 2 keeps b_∅ > 0, which the unbiasing recursion requires.
    "wor": lambda rate, relation, size, seed: WithoutReplacement(
        min(size, max(2, int(round(rate * size))))
    ),
    # Snapshots of one base table share a namespace, so candidates
    # for t, t@v1, t@v2 draw the same per-key decisions.
    "coordinated": lambda rate, relation, size, seed: CoordinatedBernoulli(
        rate, namespace=base_name(relation), salt=seed
    ),
}

#: Cap on the per-relation cartesian product of rate assignments.
MAX_CARTESIAN = 256


@dataclass(frozen=True)
class QuerySkeleton:
    """A query reduced to the parts every SOA-equivalent variant shares.

    ``relations`` preserves the original leaf (FROM) order; ``methods``
    holds the *as-written* sampling method of each sampled relation
    (unsampled relations are absent and stay unsampled in every
    candidate — adding sampling where the user asked for none would
    change the query's cost/accuracy contract silently).
    """

    relations: tuple[str, ...]
    methods: dict[str, SamplingMethod]
    join_conds: tuple[tuple[str, str, str, str], ...]
    filters: tuple[Expr, ...]
    specs: tuple[p.AggSpec, ...]
    column_owner: Mapping[str, str] = field(repr=False)

    @property
    def sampled(self) -> tuple[str, ...]:
        """The sampled relations, in canonical (sorted) order."""
        return tuple(sorted(self.methods))

    def build(
        self,
        order: Sequence[str] | None = None,
        methods: Mapping[str, SamplingMethod] | None = None,
    ) -> p.Aggregate:
        """An executable plan for a (join order, method assignment) pair."""
        order = tuple(order) if order is not None else self.relations
        if sorted(order) != sorted(self.relations):
            raise PlanError(
                f"join order {list(order)} is not a permutation of "
                f"{list(self.relations)}"
            )
        methods = dict(self.methods) if methods is None else dict(methods)
        leaves: dict[str, p.PlanNode] = {}
        for rel in order:
            scan = p.Scan(rel)
            leaves[rel] = (
                p.TableSample(scan, methods[rel]) if rel in methods else scan
            )
        tree = p.filtered_join_tree(
            order, leaves, self.join_conds, self.filters, self.column_owner
        )
        return p.Aggregate(tree, self.specs)


@dataclass(frozen=True)
class PlanCandidate:
    """One enumerated variant: a named (methods, join order) pair."""

    name: str
    order: tuple[str, ...]
    methods: dict[str, SamplingMethod]
    skeleton: QuerySkeleton = field(repr=False)


def decompose(
    plan: p.Aggregate, column_owner: Mapping[str, str]
) -> QuerySkeleton:
    """Extract the optimizable skeleton of a planned aggregate query.

    ``column_owner`` maps column names to their base table (column
    names are globally unique in this engine).  Plans containing
    mid-plan samplers (:class:`~repro.relational.plan.LineageSample`),
    unions, or intersections are refused: their sampling design is not
    a per-relation assignment, so the enumerator cannot vary it without
    changing semantics.
    """
    if not isinstance(plan, p.Aggregate):
        raise PlanError("the optimizer works on Aggregate plans")
    relations: list[str] = []
    methods: dict[str, SamplingMethod] = {}
    conds: list[tuple[str, str, str, str]] = []
    filters: list[Expr] = []

    def walk(node: p.PlanNode) -> None:
        if isinstance(node, p.Scan):
            relations.append(node.table_name)
        elif isinstance(node, p.TableSample):
            relations.append(node.child.table_name)
            methods[node.child.table_name] = node.method
        elif isinstance(node, p.Select):
            walk(node.child)
            filters.append(node.predicate)
        elif isinstance(node, p.Project) and node.outputs is None:
            walk(node.child)
        elif isinstance(node, p.Join):
            walk(node.left)
            walk(node.right)
            for lk, rk in zip(node.left_keys, node.right_keys):
                conds.append(
                    (_owner(column_owner, lk), lk, _owner(column_owner, rk), rk)
                )
        elif isinstance(node, p.CrossProduct):
            walk(node.left)
            walk(node.right)
        else:
            raise PlanError(
                f"cannot optimize a plan containing {type(node).__name__}; "
                "the enumerator handles scans, TABLESAMPLE, selects, "
                "joins, and cross products"
            )

    walk(plan.child)
    return QuerySkeleton(
        relations=tuple(relations),
        methods=methods,
        join_conds=tuple(conds),
        filters=tuple(filters),
        specs=plan.specs,
        column_owner=column_owner,
    )


def _owner(column_owner: Mapping[str, str], column: str) -> str:
    try:
        return column_owner[column]
    except KeyError:
        raise PlanError(f"unknown join column {column!r}") from None


# -- method assignments -------------------------------------------------------


def make_method(
    family: str, rate: float, relation: str, size: int, seed: int
) -> SamplingMethod:
    """Instantiate one :data:`FAMILIES` entry at a target sampling
    fraction; an unknown family or a refused method is a
    :class:`~repro.errors.PlanError`."""
    factory = FAMILIES.get(family)
    if factory is None:
        raise PlanError(
            f"unknown sampling family {family!r}; known: {list(FAMILIES)}"
        )
    try:
        return factory(rate, relation, size, seed)
    except ReproError as exc:
        raise PlanError(str(exc)) from None


def methods_label(methods: Mapping[str, SamplingMethod]) -> str:
    parts = []
    for rel in sorted(methods):
        m = methods[rel]
        if isinstance(m, Bernoulli):
            parts.append(f"{rel}=B({m.p:g})")
        elif isinstance(m, CoordinatedBernoulli):
            parts.append(f"{rel}=C({m.p:g})")
        elif isinstance(m, LineageHashBernoulli):
            parts.append(f"{rel}=H({m.p:g})")
        elif isinstance(m, BlockBernoulli):
            parts.append(f"{rel}=SYS({m.p:g})")
        elif isinstance(m, WithoutReplacement):
            parts.append(f"{rel}=WOR({m.size})")
        else:
            parts.append(f"{rel}={m.describe()}")
    return ",".join(parts)


class Assignment(NamedTuple):
    """One per-relation method assignment, with its provenance.

    ``uniform_bernoulli`` marks the plain same-rate-everywhere
    Bernoulli grid entries — the baseline a rate-knob-only system would
    run, which the chooser prices the optimizer's pick against.
    """

    label: str
    methods: dict[str, SamplingMethod]
    uniform_bernoulli: bool = False


def enumerate_assignments(
    skeleton: QuerySkeleton,
    table_sizes: Mapping[str, int],
    *,
    seed: int = 0,
) -> list[Assignment]:
    """All per-relation method assignments to score.

    Always includes the query as written and the uniform (same family,
    same rate everywhere) grid over :data:`FAMILIES` ×
    :data:`RATE_LADDER`; adds the per-relation Bernoulli-rate cartesian
    product while it stays under :data:`MAX_CARTESIAN` — rate
    *asymmetry* (sampling the skewed relation harder) is where most of
    the optimizer's winnings live.
    """
    sampled = skeleton.sampled
    if not sampled:
        return [Assignment("as-written", {})]
    out = [Assignment("as-written", dict(skeleton.methods))]
    seen = {methods_label(skeleton.methods)}

    def add(
        methods: dict[str, SamplingMethod], uniform_bernoulli: bool = False
    ) -> None:
        label = methods_label(methods)
        if label not in seen:
            seen.add(label)
            out.append(Assignment(label, methods, uniform_bernoulli))

    for family in FAMILIES:
        for rate in RATE_LADDER:
            add(
                {
                    rel: make_method(family, rate, rel, table_sizes[rel], seed)
                    for rel in sampled
                },
                uniform_bernoulli=(family == "bernoulli"),
            )
    if len(RATE_LADDER) ** len(sampled) <= MAX_CARTESIAN:
        grids = [[(rel, rate) for rate in RATE_LADDER] for rel in sampled]
        combos: list[list[tuple[str, float]]] = [[]]
        for grid in grids:
            combos = [combo + [entry] for combo in combos for entry in grid]
        for combo in combos:
            add(
                {
                    rel: make_method(
                        "bernoulli", rate, rel, table_sizes[rel], seed
                    )
                    for rel, rate in combo
                }
            )
    return out


# -- join orders --------------------------------------------------------------


def join_orders(
    skeleton: QuerySkeleton, *, limit: int = 12
) -> list[tuple[str, ...]]:
    """Connected left-deep join orders, the original order first.

    Orders are grown one relation at a time, only ever appending a
    relation joined (by some condition) to the prefix — the variants a
    cross-product-free left-deep executor can actually run.  When the
    join graph is disconnected (the query had cross products) only the
    original order is returned.
    """
    rels = skeleton.relations
    if len(rels) == 1:
        return [rels]
    adjacency: dict[str, set[str]] = {r: set() for r in rels}
    for a, _, c, _ in skeleton.join_conds:
        adjacency[a].add(c)
        adjacency[c].add(a)
    orders: list[tuple[str, ...]] = [rels]
    seen = {rels}

    def grow(prefix: tuple[str, ...], connected: set[str]) -> None:
        if len(orders) >= limit:
            return
        if len(prefix) == len(rels):
            if prefix not in seen:
                seen.add(prefix)
                orders.append(prefix)
            return
        for nxt in rels:
            if nxt in prefix or nxt not in connected:
                continue
            grow(prefix + (nxt,), connected | adjacency[nxt])

    for start in rels:
        grow((start,), {start} | adjacency[start])
    connected_all = any(len(o) == len(rels) for o in orders[1:]) or all(
        r in _reachable(adjacency, rels[0]) for r in rels
    )
    if not connected_all:
        return [rels]
    return orders[:limit]


def _reachable(adjacency: Mapping[str, set[str]], start: str) -> set[str]:
    seen = {start}
    frontier = [start]
    while frontier:
        for nbr in adjacency[frontier.pop()]:
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return seen


# -- escalation ---------------------------------------------------------------


def reusable_methods(
    methods: Mapping[str, SamplingMethod], seed: int
) -> dict[str, SamplingMethod]:
    """Swap RNG-Bernoulli filters for hash-keyed ones before executing.

    A :class:`LineageHashBernoulli` at a fixed seed keeps exactly the
    tuples whose hash falls below the rate, so raising the rate keeps a
    *superset* of the previous draw — every row of a failed attempt is
    drawn again (plus new ones) instead of being thrown away.  Methods
    without a hash form (block, WOR) are returned unchanged and simply
    redraw on escalation.
    """
    out: dict[str, SamplingMethod] = {}
    for rel, method in methods.items():
        if isinstance(method, Bernoulli):
            out[rel] = LineageHashBernoulli(
                method.p, seed=relation_seed(seed, rel)
            )
        else:
            out[rel] = method
    return out


def escalate_methods(
    methods: Mapping[str, SamplingMethod],
    factor: float,
    table_sizes: Mapping[str, int],
) -> dict[str, SamplingMethod]:
    """Geometrically increase every sampling rate by ``factor``."""
    out: dict[str, SamplingMethod] = {}
    for rel, method in methods.items():
        if isinstance(method, CoordinatedBernoulli):
            # at_rate keeps the namespace-derived seed, so the escalated
            # draw stays nested *and* coordinated across versions.
            out[rel] = method.at_rate(min(1.0, method.p * factor))
        elif isinstance(method, LineageHashBernoulli):
            out[rel] = LineageHashBernoulli(
                min(1.0, method.p * factor), seed=method.seed
            )
        elif isinstance(method, Bernoulli):
            out[rel] = Bernoulli(min(1.0, method.p * factor))
        elif isinstance(method, BlockBernoulli):
            out[rel] = BlockBernoulli(
                min(1.0, method.p * factor), method.rows_per_block
            )
        elif isinstance(method, WithoutReplacement):
            out[rel] = WithoutReplacement(
                min(table_sizes[rel], max(2, int(round(method.size * factor))))
            )
        elif isinstance(method, BlockWithoutReplacement):
            out[rel] = BlockWithoutReplacement(
                max(2, int(round(method.n_blocks * factor))),
                method.rows_per_block,
            )
        else:
            out[rel] = method
    return out


def max_rate(
    methods: Mapping[str, SamplingMethod],
    table_sizes: Mapping[str, int] | None = None,
) -> float:
    """The largest per-relation sampling fraction of an assignment.

    The serving tier labels each progressive frame with this — "how
    much of the data has been drawn so far" — so it must be a fraction
    for every family: rate-based methods report ``p`` directly,
    size-based ones (WOR) the realized ``n / N`` when sizes are known.
    """
    best = 0.0
    for rel, method in methods.items():
        p = getattr(method, "p", None)
        if p is not None:
            best = max(best, float(p))
        elif isinstance(method, WithoutReplacement) and table_sizes:
            total = table_sizes.get(rel, 0)
            if total > 0:
                best = max(best, method.size / total)
        else:
            best = max(best, 1.0)
    return best if methods else 1.0


def is_fully_escalated(
    methods: Mapping[str, SamplingMethod], table_sizes: Mapping[str, int]
) -> bool:
    """True when every method already samples its whole relation.

    The escalation loop stops here: re-executing a full scan can only
    reproduce the same answer.
    """
    for rel, method in methods.items():
        if isinstance(method, (Bernoulli, LineageHashBernoulli, BlockBernoulli)):
            if method.p < 1.0:
                return False
        elif isinstance(method, WithoutReplacement):
            if method.size < table_sizes[rel]:
                return False
        elif isinstance(method, BlockWithoutReplacement):
            total_blocks = -(-table_sizes[rel] // method.rows_per_block)
            if method.n_blocks < total_blocks:
                return False
        else:
            return False
    return True

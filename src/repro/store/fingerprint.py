"""Canonical plan fingerprints for the sample-synopsis catalog.

The catalog's whole premise is the paper's closure result: *which*
stored sample can answer *which* query is decidable from the sampling
algebra alone.  To apply it we split a sampled plan into three
orthogonal parts:

* the **core** — the sampling-free, selection-free relational skeleton
  (scans, joins, cross products), identified by a structural key;
* the **predicates** — every ``Select`` conjunct, hoisted to the top.
  Selections commute with lineage sampling (both are row masks, one on
  content, one on lineage), so a stored sample of the unselected core
  filtered by a predicate *is* a sample of the selected expression,
  with the same GUS parameters (Proposition 5);
* the **sampling design** — per base relation, the stack of sampling
  operators, summarized by family and first-order inclusion rate.
  Where in the plan a lineage-keyed sampler sits does not change the
  surviving rows (the keep decision is a pure function of lineage), so
  the design is placement-free.

Two plans with the same core key are samples of the same expression;
the :mod:`~repro.store.matcher` then decides from designs and
predicates whether one subsumes the other.

Plans containing nodes whose reuse algebra we do not model (unions,
intersections, projections that rename columns, analysis-only GUS
nodes) are not canonicalizable; :func:`canonicalize` returns ``None``
and the caller falls back to fresh execution.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property

from repro.relational import plan as p
from repro.relational.expressions import And, Expr
from repro.sampling.base import SamplingMethod
from repro.sampling.bernoulli import Bernoulli
from repro.sampling.pseudorandom import LineageHashBernoulli

#: Slack for rate comparisons (rates are plain floats from SQL text).
RATE_TOL = 1e-12


def conjuncts(expr: Expr) -> Iterator[Expr]:
    """Split a predicate into its top-level AND conjuncts."""
    if isinstance(expr, And):
        yield from conjuncts(expr.left)
        yield from conjuncts(expr.right)
    else:
        yield expr


@dataclass(frozen=True)
class DimensionDesign:
    """The combined sampling design along one lineage dimension.

    ``rate`` is the first-order inclusion probability ``a`` of the
    (stacked) samplers on this relation; ``bernoulli`` is True when
    every sampler in the stack is a tuple-level Bernoulli-family
    method, the precondition for treating the dimension's rate as
    freely thinnable; ``exact`` is the full identity of the stack
    (descriptions include seeds), used for exact-design matching;
    ``rng_drawn`` is True when any sampler in the stack draws from the
    executor RNG (plain Bernoulli, WOR, block draws) — its realization
    then depends on the RNG seed, not just the description, so exact
    identity additionally needs the plan's draw token.
    """

    relation: str
    rate: float
    bernoulli: bool
    exact: tuple
    rng_drawn: bool = False

    def merge(self, other: "DimensionDesign") -> "DimensionDesign":
        """Stack another sampler onto this dimension (rates multiply)."""
        return DimensionDesign(
            relation=self.relation,
            rate=self.rate * other.rate,
            bernoulli=self.bernoulli and other.bernoulli,
            exact=tuple(sorted(self.exact + other.exact)),
            rng_drawn=self.rng_drawn or other.rng_drawn,
        )


@dataclass(frozen=True)
class SamplingDesign:
    """The per-relation sampling designs of one plan, canonically ordered."""

    dims: tuple[DimensionDesign, ...]

    @cached_property
    def exact_key(self) -> tuple:
        return tuple((d.relation, d.exact) for d in self.dims)

    @property
    def rates(self) -> dict[str, float]:
        return {d.relation: d.rate for d in self.dims}

    def rate_of(self, relation: str) -> float:
        for d in self.dims:
            if d.relation == relation:
                return d.rate
        return 1.0

    def bernoulli_only(self) -> bool:
        return all(d.bernoulli for d in self.dims)

    def rng_drawn(self) -> bool:
        """True when any dimension's realization depends on the RNG."""
        return any(d.rng_drawn for d in self.dims)

    @property
    def sampled_relations(self) -> frozenset[str]:
        return frozenset(d.relation for d in self.dims)


@dataclass(frozen=True)
class CanonicalPlan:
    """A sampled plan, factored for algebra-driven reuse matching.

    ``draw_token`` identifies the executor RNG stream the plan's
    RNG-drawn samplers (if any) would consume; it is ``None`` for
    fully hash-keyed designs, whose realization is independent of the
    RNG.  Two plans with RNG-drawn samplers are only *exactly* the
    same request when their tokens agree — otherwise the user asked
    for an independent draw.
    """

    core_key: tuple
    relations: frozenset[str]
    design: SamplingDesign
    predicates: tuple[Expr, ...] = field(repr=False)
    pred_keys: frozenset = field(default_factory=frozenset)
    draw_token: int | None = None

    @cached_property
    def exact_key(self) -> tuple:
        """Full identity: core + design (seeds + draw token) + predicates."""
        token = self.draw_token if self.design.rng_drawn() else None
        return (
            self.core_key,
            self.design.exact_key,
            token,
            tuple(sorted(self.pred_keys)),
        )


def _method_dimension(
    relation: str,
    method: SamplingMethod,
    sizes: Mapping[str, int],
    placement: str,
) -> DimensionDesign | None:
    """Describe one sampling operator on one relation, or ``None``."""
    n_rows = sizes.get(relation)
    if n_rows is None:
        return None
    try:
        rate = float(method.gus(relation, n_rows).a)
    except Exception:  # not a GUS (e.g. with-replacement draws)
        return None
    if not math.isfinite(rate):
        return None
    bernoulli = isinstance(method, (Bernoulli, LineageHashBernoulli))
    return DimensionDesign(
        relation=relation,
        rate=rate,
        bernoulli=bernoulli,
        exact=((placement, method.describe()),),
        # Hash-keyed filters are pure functions of lineage; everything
        # else realizes through the executor RNG.
        rng_drawn=not isinstance(method, LineageHashBernoulli),
    )


class _NotCanonical(Exception):
    """Internal: the plan contains a node outside the reuse algebra."""


def draw_token_of(rng) -> int:
    """Stable identity of a generator's current stream position.

    Two calls that would consume the same RNG stream (same seed, same
    position) get the same token; anything else differs.  Used to keep
    RNG-drawn sampling designs from exact-matching across genuinely
    independent draws.
    """
    import hashlib

    state = repr(rng.bit_generator.state).encode()
    return int.from_bytes(
        hashlib.blake2b(state, digest_size=8).digest(), "big"
    )


def canonicalize(
    plan: p.PlanNode,
    sizes: Mapping[str, int],
    *,
    draw_token: int | None = None,
) -> CanonicalPlan | None:
    """Factor a sampled plan into (core, predicates, design).

    ``sizes`` supplies base-table cardinalities so fixed-size methods
    (WOR, block draws) can report their inclusion rate; ``draw_token``
    the executor RNG identity (see :func:`draw_token_of`), used only
    when the design contains RNG-drawn samplers.  Returns ``None``
    when the plan is outside the supported node set — the caller must
    then execute fresh.
    """
    preds: list[Expr] = []
    dims: dict[str, DimensionDesign] = {}

    def visit(node: p.PlanNode) -> tuple:
        if isinstance(node, p.Scan):
            return ("scan", node.table_name)
        if isinstance(node, p.TableSample):
            dim = _method_dimension(
                node.child.table_name, node.method, sizes, "tablesample"
            )
            if dim is None:
                raise _NotCanonical
            rel = dim.relation
            dims[rel] = dims[rel].merge(dim) if rel in dims else dim
            return visit(node.child)
        if isinstance(node, p.LineageSample):
            for rel, filt in node.sampler.filters.items():
                dim = _method_dimension(rel, filt, sizes, "lineage")
                if dim is None:
                    raise _NotCanonical
                dims[rel] = dims[rel].merge(dim) if rel in dims else dim
            return visit(node.child)
        if isinstance(node, p.Select):
            preds.extend(conjuncts(node.predicate))
            return visit(node.child)
        if isinstance(node, p.Project) and node.outputs is None:
            # Pure pass-through; column pruning is re-derived on reuse.
            return visit(node.child)
        if isinstance(node, p.Join):
            return (
                "join",
                node.left_keys,
                node.right_keys,
                visit(node.left),
                visit(node.right),
            )
        if isinstance(node, p.CrossProduct):
            return ("cross", visit(node.left), visit(node.right))
        raise _NotCanonical

    try:
        core_key = visit(plan)
    except _NotCanonical:
        return None
    design = SamplingDesign(
        dims=tuple(dims[rel] for rel in sorted(dims))
    )
    pred_keys = frozenset(pr.key() for pr in preds)
    return CanonicalPlan(
        core_key=core_key,
        relations=plan.lineage_schema(),
        design=design,
        predicates=tuple(preds),
        pred_keys=pred_keys,
        draw_token=draw_token,
    )

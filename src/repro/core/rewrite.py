"""SOA-equivalent plan rewriting (paper Section 4).

Given an executable plan containing sampling operators anywhere, this
module derives the SOA-equivalent plan in which **all** relational
operators form a subtree feeding a **single GUS quasi-operator** just
below the aggregate (the shape of Figures 2(c), 4(e) and 5(f)).  The
transformation never executes anything; it only composes GUS
parameters:

* ``TABLESAMPLE`` over a base table becomes that method's ``G(a, b̄)``
  (Section 4.2 instantiation);
* selections and projections pass GUS through (Proposition 5);
* joins and cross products merge the two sides' GUS (Proposition 6),
  with unsampled inputs contributing the identity GUS (Proposition 4);
* unions/intersections of two samples *of the same expression* use
  Propositions 7/8;
* stacked samplers (``LineageSample``, ``GUSNode``) compact onto their
  input (Proposition 8).

The result is the pair ``(clean relational plan, top GUS params)`` —
everything Theorem 1 needs.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

from repro.core.algebra import compact_gus, join_gus, lift_gus, union_gus
from repro.core.gus import GUSParams, identity_gus
from repro.errors import PlanError
from repro.relational import plan as p


@dataclass(frozen=True)
class RewriteResult:
    """The SOA-equivalent form: one GUS over a sampling-free subtree."""

    clean_plan: p.PlanNode
    params: GUSParams

    @property
    def analysis_plan(self) -> p.GUSNode:
        """The quasi-operator plan, for display/EXPLAIN purposes."""
        return p.GUSNode(self.clean_plan, self.params)

    @cached_property
    def active_params(self) -> GUSParams:
        """``params`` over its active lineage dimensions only.

        What Theorem 1 is evaluated on; projected once per rewrite and
        read by :attr:`is_sampled`, the per-chunk fold and the finish.
        """
        return self.params.project_out_inactive()

    @property
    def is_sampled(self) -> bool:
        """False when the plan contained no sampling at all."""
        return self.active_params.lattice.n > 0 or self.params.a < 1.0


def rewrite_to_top_gus(
    plan: p.PlanNode, table_sizes: Mapping[str, int]
) -> RewriteResult:
    """Push every sampling operator up into a single top GUS.

    ``table_sizes`` supplies base-table cardinalities, which
    without-replacement methods need to instantiate their GUS
    (``a = n/N``).  Aggregates are handled by the SBox, not here.
    """
    if isinstance(plan, p.Aggregate):
        raise PlanError(
            "rewrite the aggregate's input; the SBox owns the aggregate"
        )
    return _rewrite(plan, table_sizes)


def _rewrite(
    node: p.PlanNode, sizes: Mapping[str, int]
) -> RewriteResult:
    if isinstance(node, p.Scan):
        return RewriteResult(node, identity_gus([node.table_name]))

    if isinstance(node, p.TableSample):
        relation = node.child.table_name
        if relation not in sizes:
            raise PlanError(f"unknown base table {relation!r}")
        params = node.method.gus(relation, sizes[relation])
        return RewriteResult(node.child, params)

    if isinstance(node, p.LineageSample):
        child = _rewrite(node.child, sizes)
        sub = lift_gus(node.sampler.gus(), child.params.schema)
        return RewriteResult(child.clean_plan, compact_gus(sub, child.params))

    if isinstance(node, p.GUSNode):
        child = _rewrite(node.child, sizes)
        schema = child.params.schema | node.params.schema
        return RewriteResult(
            child.clean_plan,
            compact_gus(
                lift_gus(node.params, schema),
                lift_gus(child.params, schema),
            ),
        )

    if isinstance(node, p.Select):
        child = _rewrite(node.child, sizes)
        return RewriteResult(
            p.Select(child.clean_plan, node.predicate), child.params
        )

    if isinstance(node, p.Project):
        child = _rewrite(node.child, sizes)
        return RewriteResult(
            p.Project(child.clean_plan, node.outputs), child.params
        )

    if isinstance(node, p.Join):
        left = _rewrite(node.left, sizes)
        right = _rewrite(node.right, sizes)
        return RewriteResult(
            p.Join(
                left.clean_plan,
                right.clean_plan,
                node.left_keys,
                node.right_keys,
            ),
            join_gus(left.params, right.params),
        )

    if isinstance(node, p.CrossProduct):
        left = _rewrite(node.left, sizes)
        right = _rewrite(node.right, sizes)
        return RewriteResult(
            p.CrossProduct(left.clean_plan, right.clean_plan),
            join_gus(left.params, right.params),
        )

    if isinstance(node, (p.Union, p.Intersect)):
        left = _rewrite(node.left, sizes)
        right = _rewrite(node.right, sizes)
        if left.clean_plan.fingerprint() != right.clean_plan.fingerprint():
            raise PlanError(
                "the union/intersection rules (Props 7/8) require two "
                "samples of the *same* expression; the operands differ "
                "once sampling is removed"
            )
        combine = union_gus if isinstance(node, p.Union) else compact_gus
        return RewriteResult(
            left.clean_plan, combine(left.params, right.params)
        )

    raise PlanError(f"cannot rewrite {type(node).__name__}")

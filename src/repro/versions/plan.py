"""The version-difference plan node.

:class:`VersionDiff` is the logical form of ``SELECT agg(...) FROM t AT
VERSION hi MINUS AT VERSION lo``.  It is *not* executable by the
relational executor: like the GUS quasi-operator it is intercepted one
level up (by :meth:`~repro.relational.database.Database.sql`), which
evaluates each side through the estimation pipeline and combines the
per-key aggregate inputs with the coordinated difference estimator in
:mod:`repro.versions.engine`.

The node holds the two *pre-aggregate* subtrees (scan + coordinated
sample + filters per side) so the engine can choose the evaluation
strategy: sampled sides run through the SBox (reusing catalog synopses
keyed by the versioned scan), exact sides strip the sampling nodes and
run at rate 1.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import PlanError
from repro.relational.expressions import Expr
from repro.relational.plan import AggSpec, PlanNode


class VersionDiff(PlanNode):
    """Difference-of-versions aggregate over coordinated samples.

    ``hi_child`` / ``lo_child`` are the per-side relational subtrees
    (``Select?(TableSample?(Scan(t@vN)))``); ``specs`` the aggregate
    outputs computed on the *difference* of per-key inputs; ``keys``
    optional GROUP BY columns (per-segment subset sums); ``having`` a
    predicate over the grouped output schema.  ``rate``/``seed`` record
    the coordinated Bernoulli rate and REPEATABLE salt (``rate=None``
    means both sides are exact and the difference is computed at p=1
    with zero variance).
    """

    __slots__ = (
        "hi_child",
        "lo_child",
        "specs",
        "keys",
        "having",
        "base",
        "hi_version",
        "lo_version",
        "rate",
        "seed",
    )

    def __init__(
        self,
        hi_child: PlanNode,
        lo_child: PlanNode,
        specs: Sequence[AggSpec],
        *,
        base: str,
        lo_version: int,
        hi_version: int | None = None,
        keys: Sequence[str] = (),
        having: Expr | None = None,
        rate: float | None = None,
        seed: int | None = None,
    ) -> None:
        specs = tuple(specs)
        if not specs:
            raise PlanError("version difference needs at least one AggSpec")
        for spec in specs:
            if spec.kind == "avg":
                raise PlanError(
                    "AVG over a version difference is a ratio, not a "
                    "subset sum; estimate SUM and COUNT separately"
                )
        aliases = [s.alias for s in specs]
        if len(set(aliases)) != len(aliases):
            raise PlanError(f"duplicate aggregate aliases in {aliases}")
        keys = tuple(keys)
        if len(set(keys)) != len(keys):
            raise PlanError(f"duplicate GROUP BY keys in {list(keys)}")
        overlap = set(keys) & set(aliases)
        if overlap:
            raise PlanError(
                f"aggregate aliases {sorted(overlap)} collide with "
                "GROUP BY keys"
            )
        if having is not None:
            if not keys:
                raise PlanError("HAVING on a version difference needs GROUP BY")
            visible = set(keys) | set(aliases)
            unknown = having.columns_used() - visible
            if unknown:
                raise PlanError(
                    f"HAVING references {sorted(unknown)}, which are "
                    "neither GROUP BY keys nor aggregate aliases"
                )
        if rate is not None and not 0.0 < rate <= 1.0:
            raise PlanError(f"coordinated rate {rate} outside (0, 1]")
        self.hi_child = hi_child
        self.lo_child = lo_child
        self.specs = specs
        self.keys = keys
        self.having = having
        self.base = base
        self.hi_version = hi_version
        self.lo_version = lo_version
        self.rate = rate
        self.seed = seed

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.hi_child, self.lo_child)

    def lineage_schema(self) -> frozenset[str]:
        return self.hi_child.lineage_schema() | self.lo_child.lineage_schema()

    def fingerprint(self) -> tuple:
        spec_key = tuple(
            (s.kind, None if s.expr is None else s.expr.key(), s.alias, s.quantile)
            for s in self.specs
        )
        having_key = None if self.having is None else self.having.key()
        return (
            "version_diff",
            self.base,
            self.hi_version,
            self.lo_version,
            self.keys,
            spec_key,
            having_key,
            self.rate,
            self.seed,
            self.hi_child.fingerprint(),
            self.lo_child.fingerprint(),
        )

    def _label(self) -> str:
        hi = "live" if self.hi_version is None else f"v{self.hi_version}"
        text = f"VersionDiff({self.base}: {hi} - v{self.lo_version}"
        if self.keys:
            text += f", by=[{', '.join(self.keys)}]"
        if self.rate is not None:
            text += f", coordinated p={self.rate:g}"
        return text + ")"

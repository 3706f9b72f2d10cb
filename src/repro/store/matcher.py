"""Algebra-driven reuse matching over the synopsis catalog.

Given a new query's :class:`~repro.store.fingerprint.CanonicalPlan`
and the stored synopses of the same core expression, decide whether a
stored sample *subsumes* the query's sampling plan, and how to serve
it.  Three reuse modes, in preference order:

* **exact** — identical design (seeds included) and identical
  predicates: the stored realization is the query's sample; the
  estimate recomputed from it is bit-identical to the run that stored
  it.
* **pushdown** — identical design, but the query filters *more*: the
  stored predicates are a subset of the query's.  Selection commutes
  with every GUS (Proposition 5), so applying the residual conjuncts
  to the stored sample yields a correct sample of the selected
  expression under the *same* GUS parameters.
* **thin** — the stored design strictly dominates the query's rates:
  every relation's stored inclusion rate is at least the requested
  rate.  A residual lineage-keyed Bernoulli at rate
  ``requested / stored`` per relation thins the stored sample; the
  served sample is then a genuine GUS sample whose parameters are the
  **compaction** (Proposition 8) of the stored parameters with the
  residual filters' — correctness comes from rescaling the GUS
  coefficients through the algebra, never from re-deriving the
  estimator.  The query side must be Bernoulli-family (its rates are
  free parameters); the stored side may be *any* GUS.

The residual thinning seeds are a stable hash of (stored design,
relation, requested design), so the same request thins the same way
every time — including after an eviction-and-repopulate or a process
restart — while differently-seeded requests get independent residual
draws.

Both residual operations read lineage and predicate columns only, so
:func:`materialize` prunes before it filters: the stored synopsis keeps
every column (any later query over the same core expression may need
any of them), the served sample carries the columns its caller names.
Pruning is also what fills the synopsis in: a stored sample holds its
columns as pending gathers from the base tables, and narrowing it reads
the named ones *in the stored sample* — once, for every later hit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.algebra import compact_gus, compose_gus, lift_gus
from repro.core.gus import GUSParams, bernoulli_gus
from repro.relational import plan as p
from repro.relational.expressions import Expr
from repro.relational.table import Table
from repro.sampling.pseudorandom import LineageHashBernoulli
from repro.store.catalog import Synopsis, SynopsisCatalog
from repro.store.fingerprint import RATE_TOL, CanonicalPlan

_KIND_RANK = {"exact": 0, "pushdown": 1, "thin": 2}


@dataclass(frozen=True)
class ReuseInfo:
    """How a query result was served from the catalog (for observability)."""

    kind: str
    entry_id: int
    stored_rows: int
    served_rows: int
    thin_rates: tuple[tuple[str, float], ...] = ()
    residual_predicates: int = 0


@dataclass(frozen=True)
class ReuseDecision:
    """A chosen synopsis plus the residual work to serve the query.

    ``design_token`` folds the *query's* full sampling identity
    (design incl. seeds, plus the RNG draw token) into the residual
    thinning seeds: two queries at the same reduced rate but different
    identities (REPEATABLE(5) vs REPEATABLE(6)) get independent
    residual draws instead of collapsing onto one realization, while
    repeats of the same statement stay deterministic.
    """

    synopsis: Synopsis
    kind: str
    residual: tuple[Expr, ...] = field(repr=False, default=())
    thin_rates: tuple[tuple[str, float], ...] = ()
    design_token: int = 0


def design_token_of(canon: CanonicalPlan) -> int:
    """Stable identity of a query's requested sampling design.

    The RNG draw token only participates for RNG-drawn designs —
    hash-keyed designs realize independently of the executor RNG, so
    repeats of the same statement must map to the same token whatever
    ``seed=`` the call carries.
    """
    draw = canon.draw_token if canon.design.rng_drawn() else None
    text = repr((canon.design.exact_key, draw)).encode()
    return int.from_bytes(
        hashlib.blake2b(text, digest_size=8).digest(), "big"
    )


def stored_token_of(syn: Synopsis) -> int:
    """Stable identity of a stored synopsis (its full exact key).

    Deliberately *not* the entry id: the same stored design must thin
    the same way after an eviction-and-repopulate or a process
    restart, so identical requests keep identical answers.
    """
    text = repr(syn.canon.exact_key).encode()
    return int.from_bytes(
        hashlib.blake2b(text, digest_size=8).digest(), "big"
    )


def thin_seed(stored_token: int, relation: str, design_token: int = 0) -> int:
    """Stable per-(stored-design, relation, requested-design) seed."""
    digest = hashlib.blake2b(
        f"synopsis-thin:{stored_token}:{relation}:{design_token}".encode(),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big") & (2**63 - 1)


def _decide(canon: CanonicalPlan, syn: Synopsis) -> ReuseDecision | None:
    """Can this synopsis serve this query?  (Pure; no catalog state.)"""
    stored = syn.canon
    if not stored.pred_keys <= canon.pred_keys:
        return None  # the stored sample is *more* filtered: unusable
    residual = tuple(
        pr for pr in canon.predicates if pr.key() not in stored.pred_keys
    )
    same_design = stored.design.exact_key == canon.design.exact_key
    if same_design and stored.design.rng_drawn():
        # RNG-drawn designs realize through the executor stream: only
        # the same stream position is the same request.
        same_design = stored.draw_token == canon.draw_token
    if same_design:
        kind = "exact" if not residual else "pushdown"
        return ReuseDecision(synopsis=syn, kind=kind, residual=residual)
    # Rate subsumption: the query's rates must be freely choosable
    # (Bernoulli family) and dominated by the stored rates everywhere.
    if not canon.design.bernoulli_only():
        return None
    thin: list[tuple[str, float]] = []
    for rel in sorted(
        stored.design.sampled_relations | canon.design.sampled_relations
    ):
        want = canon.design.rate_of(rel)
        have = syn.canon.design.rate_of(rel)
        if want > have + RATE_TOL:
            return None  # stored sample is too thin on this dimension
        if have <= 0.0:
            return None
        ratio = min(1.0, want / have)
        if ratio < 1.0 - RATE_TOL:
            thin.append((rel, ratio))
    if not thin:
        # Same rates but a different identity (different REPEATABLE
        # seed or an independent RNG draw): the user asked for a
        # *different realization* at this rate, and serving the stored
        # one would silently correlate replicates.  Reuse only ever
        # swaps realizations alongside a genuine rate reduction.
        return None
    return ReuseDecision(
        synopsis=syn,
        kind="thin",
        residual=residual,
        thin_rates=tuple(thin),
        design_token=design_token_of(canon),
    )


def choose(
    canon: CanonicalPlan,
    candidates: list[Synopsis],
    *,
    required_columns: frozenset[str] = frozenset(),
) -> ReuseDecision | None:
    """Pick the best usable synopsis: exact > pushdown > thin, then
    fewest residual operations, then the smallest stored sample."""
    best: ReuseDecision | None = None
    best_rank: tuple | None = None
    for syn in candidates:
        if not required_columns <= syn.columns:
            continue
        decision = _decide(canon, syn)
        if decision is None:
            continue
        rank = (
            _KIND_RANK[decision.kind],
            len(decision.residual) + len(decision.thin_rates),
            syn.n_rows,
            syn.entry_id,
        )
        if best_rank is None or rank < best_rank:
            best, best_rank = decision, rank
    return best


def thinned_params(
    stored: GUSParams, thin_rates: tuple[tuple[str, float], ...]
) -> GUSParams:
    """Rescale stored GUS coefficients for residual Bernoulli thinning.

    The thinned sample's process is the stored process *compacted*
    (Proposition 8) with one independent lineage-keyed Bernoulli per
    thinned relation — composed across relations (Proposition 9) and
    lifted onto the stored schema (Proposition 4).
    """
    if not thin_rates:
        return stored
    residual: GUSParams | None = None
    for rel, ratio in thin_rates:
        g = bernoulli_gus(rel, ratio)
        residual = g if residual is None else compose_gus(residual, g)
    assert residual is not None
    return compact_gus(lift_gus(residual, stored.schema), stored)


def materialize(
    decision: ReuseDecision,
    columns: frozenset[str] | None = None,
) -> tuple[Table, GUSParams, p.PlanNode, ReuseInfo]:
    """Serve a query's sample from a stored synopsis.

    Narrows the stored sample to ``columns`` (lineage always survives;
    a column no earlier query read is gathered from its base table here
    and kept in the synopsis, every other one is shared as is), then
    applies the residual predicates and the residual thinning filters,
    and returns the served sample, its (rescaled) GUS parameters, a
    clean plan for EXPLAIN purposes, and the :class:`ReuseInfo` trace.
    ``columns`` must cover whatever the residual predicates read — the
    ``required_columns`` the decision was chosen under do.  Narrowing
    first means every filter gathers the columns the estimate reads and
    nothing else; the rows, their order and the lineage are those of
    the full-width filter.  ``None`` serves every stored column and
    reads only what the residual predicates read.  The stored synopsis
    is never modified beyond holding the columns read so far.
    """
    syn = decision.synopsis
    sample = syn.sample
    if columns is not None:
        sample = sample.select_columns(
            [name for name in sample.columns if name in columns]
        )
    clean = syn.clean_plan
    for pred in decision.residual:
        mask = np.asarray(pred.eval(sample), dtype=bool)
        sample = sample.filter(mask)
        clean = p.Select(clean, pred)
    stored_token = stored_token_of(syn)
    for rel, ratio in decision.thin_rates:
        filt = LineageHashBernoulli(
            ratio,
            seed=thin_seed(stored_token, rel, decision.design_token),
        )
        sample = sample.filter(filt.keep(sample.lineage[rel]))
    params = thinned_params(syn.params, decision.thin_rates)
    info = ReuseInfo(
        kind=decision.kind,
        entry_id=syn.entry_id,
        stored_rows=syn.n_rows,
        served_rows=sample.n_rows,
        thin_rates=decision.thin_rates,
        residual_predicates=len(decision.residual),
    )
    return sample, params, clean, info


class ReuseMatcher:
    """Catalog-backed matcher: probe, account, and serve."""

    def __init__(self, catalog: SynopsisCatalog) -> None:
        self.catalog = catalog

    def peek(
        self,
        canon: CanonicalPlan,
        *,
        required_columns: frozenset[str] = frozenset(),
    ) -> ReuseDecision | None:
        """Non-accounting probe (used by the optimizer's cost scoring)."""
        return choose(
            canon,
            self.catalog.candidates(canon),
            required_columns=required_columns,
        )

    def match(
        self,
        canon: CanonicalPlan,
        *,
        required_columns: frozenset[str] = frozenset(),
    ) -> ReuseDecision | None:
        """Accounting probe: records the hit or miss in catalog stats."""
        decision = self.peek(canon, required_columns=required_columns)
        if decision is None:
            self.catalog.record_miss()
        else:
            self.catalog.record_hit(decision.synopsis, decision.kind)
        return decision

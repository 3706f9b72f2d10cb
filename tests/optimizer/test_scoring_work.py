"""What budget scoring pays for, counted, and what its reuse flag means.

Scoring a candidate is Theorem 1 (a Möbius transform and a dot
product) plus a cost walk; what depends only on the join order — the
order's plan, its canonical core, the catalog read and the residual
predicates of each stored synopsis — is paid once per order, not once
per candidate.  Counts, not timings, so the tests hold on any machine.

A candidate is marked ``reused`` when the catalog would serve its first
attempt: the attempt ``optimize`` executes runs hash-keyed filters
(``reusable_methods``) on ``db.rng(seed)``, so that is the design the
scorer matches.
"""

from __future__ import annotations

import collections

import pytest

import repro.store
from repro.data.tpch import tpch_database
from repro.optimizer import ErrorBudget
from repro.optimizer.candidates import (
    QuerySkeleton,
    decompose,
    join_orders,
    reusable_methods,
)
from repro.optimizer.chooser import ORDER_LIMIT
from repro.store import ReuseMatcher, canonicalize, matcher
from repro.store.catalog import SynopsisCatalog
from repro.store.fingerprint import draw_token_of

JOIN3 = (
    "SELECT SUM(l_extendedprice) AS v FROM lineitem TABLESAMPLE "
    "(10 PERCENT), orders TABLESAMPLE (50 PERCENT), customer TABLESAMPLE "
    "(50 PERCENT) WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey "
    "AND c_acctbal > 0.0"
)
JOIN2 = (
    "SELECT SUM(l_extendedprice) AS v FROM lineitem TABLESAMPLE "
    "(5 PERCENT), orders WHERE l_orderkey = o_orderkey AND o_orderdate < 1500"
)
SINGLE = "SELECT SUM(l_extendedprice) AS v FROM lineitem TABLESAMPLE (5 PERCENT)"


def _orders(optimizer, plan) -> list[tuple[str, ...]]:
    skeleton = decompose(plan, optimizer._column_owner(plan))
    return join_orders(skeleton, limit=ORDER_LIMIT)


def test_scoring_pays_per_join_order_not_per_candidate(monkeypatch):
    db = tpch_database(0.5, seed=42)
    db.attach_catalog()
    db.sql(
        "SELECT COUNT(*) AS n FROM lineitem TABLESAMPLE (40 PERCENT), orders "
        "TABLESAMPLE (80 PERCENT), customer TABLESAMPLE (80 PERCENT) WHERE "
        "l_orderkey = o_orderkey AND o_custkey = c_custkey",
        seed=101,
    )
    calls: collections.Counter[str] = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        repro.store, "canonicalize", counted("canonicalize", canonicalize)
    )
    monkeypatch.setattr(
        SynopsisCatalog,
        "candidates",
        counted("candidates", SynopsisCatalog.candidates),
    )
    monkeypatch.setattr(
        QuerySkeleton, "build", counted("build", QuerySkeleton.build)
    )
    monkeypatch.setattr(
        matcher,
        "design_token_of",
        counted("design_token_of", matcher.design_token_of),
    )
    choose = matcher.choose

    def counted_choose(*args, **kwargs):
        decision = choose(*args, **kwargs)
        if decision is not None and decision.kind == "thin":
            calls["thin_chosen"] += 1
        return decision

    monkeypatch.setattr(matcher, "choose", counted_choose)

    optimizer = db.optimizer()
    plan = db.plan_sql(JOIN3)
    orders = _orders(optimizer, plan)
    at_pilot: dict[str, int] = {}
    report = optimizer.report(
        plan,
        ErrorBudget.from_percent(15.0, 0.95),
        seed=3,
        on_pilot=lambda *_: at_pilot.update(calls),
    )
    scoring = {name: calls[name] - at_pilot.get(name, 0) for name in calls}

    assert len(orders) > 1
    assert len(report.scored) * len(orders) > 500  # ~960 candidates
    assert any(sc.reused for sc in report.scored)
    assert scoring["canonicalize"] == len(orders)
    assert scoring["candidates"] == len(orders)
    assert scoring["build"] <= 2 * len(orders)
    assert calls["design_token_of"] <= calls["thin_chosen"]


def _first_attempt_served(db, optimizer, sc, seed) -> int | None:
    """Stored rows of the synopsis that would serve ``sc``'s first
    attempt, or ``None`` when the catalog would not serve it."""
    candidate = sc.candidate
    executable = candidate.skeleton.build(
        candidate.order, reusable_methods(candidate.methods, seed)
    )
    canon = canonicalize(
        executable.child, db.sizes(), draw_token=draw_token_of(db.rng(seed))
    )
    if canon is None:
        return None
    decision = ReuseMatcher(db.synopses).peek(canon)
    return None if decision is None else decision.synopsis.n_rows


@pytest.mark.parametrize("text", [SINGLE, JOIN2])
@pytest.mark.parametrize("seed", [7, 8])
def test_reused_means_the_first_attempt_is_served(text, seed):
    """A plain statement at the report's own seed stores an RNG-drawn
    sample whose design the as-written candidate shares on paper; its
    first attempt runs hash-keyed filters, which that sample does not
    serve exactly."""
    db = tpch_database(0.5, seed=1)
    db.attach_catalog()
    db.sql(text, seed=7)
    optimizer = db.optimizer()
    report = optimizer.report(
        db.plan_sql(text), ErrorBudget.from_percent(50.0, 0.95), seed=seed
    )
    assert any(sc.reused for sc in report.scored)
    for sc in report.scored:
        served = _first_attempt_served(db, optimizer, sc, seed)
        assert sc.reused == (served is not None), sc.name
        if served is not None:
            assert sc.cost.rows_scanned == served, sc.name


def test_chosen_cached_candidate_is_served_as_scored():
    db = tpch_database(0.5, seed=1)
    db.attach_catalog()
    db.sql(SINGLE, seed=7)
    result = db.optimizer().optimize(
        db.plan_sql(SINGLE), ErrorBudget.from_percent(50.0, 0.95), seed=7
    )
    chosen = result.report.chosen
    assert chosen.reused
    reuse = result.attempts and result.result.reuse
    assert reuse is not None
    assert reuse.stored_rows == chosen.cost.rows_scanned

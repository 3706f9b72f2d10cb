"""Budget-report rankings, pinned to their bits.

``SamplingPlanOptimizer.report`` scores every (method assignment × join
order) candidate: a Theorem 1 prediction from the pilot, a cost-model
walk, and — with a synopsis catalog attached — a reuse discount when a
stored sample would serve the candidate.  The digests below cover every
scored candidate (name, join order, predicted half-width, cost rows and
seconds, feasibility, reuse), the chosen and naive candidates and the
pilot size, for five statement shapes at two seeds, with and without a
catalog.  The catalog is loaded first by plain statements: RNG-drawn
samples at seeds no report uses (thinning sources) and coordinated
samples without the reports' filters (pushdown sources for the
coordinated candidates).  The optimizer prices candidates with the
database's own cost model, whose per-row constants are fixed, so the
digests hold on any machine.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.data.tpch import tpch_database
from repro.optimizer import ErrorBudget
from repro.relational.plan import Aggregate, AggSpec, Join, Scan, TableSample
from repro.sampling import CoordinatedBernoulli

#: name → (SQL text, budget percent).
STATEMENTS = {
    "single": (
        "SELECT SUM(l_extendedprice) AS v FROM lineitem TABLESAMPLE "
        "(10 PERCENT) WHERE l_quantity < 30",
        10.0,
    ),
    "join2": (
        "SELECT SUM(l_extendedprice) AS v FROM lineitem TABLESAMPLE "
        "(10 PERCENT), orders TABLESAMPLE (50 PERCENT) WHERE "
        "l_orderkey = o_orderkey AND o_orderdate < 1200",
        10.0,
    ),
    "join3": (
        "SELECT SUM(l_extendedprice) AS v, COUNT(*) AS n FROM lineitem "
        "TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (50 PERCENT), "
        "customer TABLESAMPLE (50 PERCENT) WHERE l_orderkey = o_orderkey "
        "AND o_custkey = c_custkey AND c_acctbal > 0.0",
        15.0,
    ),
    "system": (
        "SELECT SUM(l_extendedprice) AS v FROM lineitem TABLESAMPLE "
        "(SYSTEM (10 PERCENT, 100))",
        10.0,
    ),
    "rows": (
        "SELECT SUM(l_quantity) AS v FROM lineitem TABLESAMPLE (2000 ROWS)",
        10.0,
    ),
}

#: The report seeds; plain loading statements use seeds 101 and up.
SEEDS = (3, 11)

#: Plain statements that load the catalog: RNG-drawn, unfiltered or
#: less filtered, at rates above most of the ladder.
LOADING = (
    "SELECT SUM(l_extendedprice) AS v FROM lineitem TABLESAMPLE (80 PERCENT)",
    "SELECT SUM(l_extendedprice) AS v FROM lineitem TABLESAMPLE "
    "(40 PERCENT), orders TABLESAMPLE (80 PERCENT) WHERE "
    "l_orderkey = o_orderkey",
    "SELECT COUNT(*) AS n FROM lineitem TABLESAMPLE (40 PERCENT), "
    "orders TABLESAMPLE (80 PERCENT), customer TABLESAMPLE (80 PERCENT) "
    "WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey",
)

PINNED = {
    "off": {
        "single@3": "78d1408b6b41b405",
        "join2@3": "3144a7ee55b8380f",
        "join3@3": "ae68691cf32c2cf0",
        "system@3": "23668126ed117d96",
        "rows@3": "5f9547a60f733386",
        "single@11": "4f31d72e4d2eaf6b",
        "join2@11": "7930c4b780531e00",
        "join3@11": "b9489153e50ce815",
        "system@11": "7ed16f2adfca3d63",
        "rows@11": "a33d6e8e59cd0e7c",
    },
    "on": {
        "single@3": "0891f235f24796bf",
        "join2@3": "a8ea72c337cec9e8",
        "join3@3": "c71318b4e6e9ac2d",
        "system@3": "9599a666d96573e7",
        "rows@3": "ac1a68fd7b4f700c",
        "single@11": "34fa1af49e1a49cc",
        "join2@11": "5ebff637646dc018",
        "join3@11": "0b84994e72aa17a2",
        "system@11": "8680ea02914f5078",
        "rows@11": "ef4eec735a8d1a20",
    },
}


def _coordinated(relations: tuple[str, ...], rate: float, salt: int):
    """A coordinated sample of ``relations`` joined left-deep, unfiltered:
    the design the coordinated candidates at seed ``salt`` execute."""
    leaves = [
        TableSample(Scan(rel), CoordinatedBernoulli(rate, namespace=rel, salt=salt))
        for rel in relations
    ]
    keys = {
        ("lineitem", "orders"): ("l_orderkey", "o_orderkey"),
        ("orders", "customer"): ("o_custkey", "c_custkey"),
    }
    tree = leaves[0]
    for prev, (rel, leaf) in zip(relations, zip(relations[1:], leaves[1:])):
        left_key, right_key = keys[(prev, rel)]
        tree = Join(tree, leaf, [left_key], [right_key])
    return Aggregate(tree, [AggSpec("count", None, "n")])


def _load(db) -> None:
    # Coordinated first: a later RNG-drawn sample at higher rates would
    # otherwise serve them by thinning instead of storing them.
    for salt in SEEDS:
        for relations in (
            ("lineitem",),
            ("lineitem", "orders"),
            ("lineitem", "orders", "customer"),
        ):
            db.estimate(_coordinated(relations, 0.4, salt), seed=120 + salt)
    for position, text in enumerate(LOADING):
        db.sql(text, seed=101 + position)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _candidate_bytes(sc) -> bytes:
    return b"|".join(
        [
            sc.name.encode(),
            ",".join(sc.candidate.order).encode(),
            _bits(sc.predicted_relative_half_width),
            _bits(sc.cost.rows_scanned),
            _bits(sc.cost.rows_joined),
            _bits(sc.cost.seconds),
            bytes([sc.feasible, sc.reused]),
        ]
    )


def _digest(report) -> str:
    h = hashlib.sha256()
    for sc in report.scored:
        h.update(_candidate_bytes(sc))
        h.update(b"\n")
    h.update(b"chosen:" + _candidate_bytes(report.chosen))
    h.update(
        b"naive:"
        + (b"-" if report.naive is None else _candidate_bytes(report.naive))
    )
    h.update(str(report.pilot_rows).encode())
    return h.hexdigest()[:16]


def _reports(catalog: bool) -> dict[str, str]:
    db = tpch_database(0.5, seed=42)
    if catalog:
        db.attach_catalog()
        _load(db)
    optimizer = db.optimizer()
    got = {}
    for seed in SEEDS:
        for name, (text, percent) in STATEMENTS.items():
            report = optimizer.report(
                db.plan_sql(text),
                ErrorBudget.from_percent(percent, 0.95),
                seed=seed,
            )
            got[f"{name}@{seed}"] = _digest(report)
    return got


@pytest.mark.parametrize("catalog", ["off", "on"])
def test_report_ranks_every_candidate_as_pinned(catalog) -> None:
    assert _reports(catalog == "on") == PINNED[catalog]

"""Statement streams: what each workload sends, generated from ``--seed``.

The program under test only ever sees SQL text plus one integer seed per
request.  The *multiset* of (class, shape, rate) in a round is fixed per
workload — class shares are exact counts, not draws — so latency and
interval-width distributions barely move with the seed; ``--seed`` picks
the order, the per-request seeds and the pushdown constants.

A round is one pass over a workload's stream.  Ad hoc rounds replay the
same requests (nothing caches them); served rounds keep the texts and
re-draw the request seeds per round, because a replayed (text, seed)
pair would be answered by the result cache instead of the layer the
class is meant to exercise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

WORKLOADS = ("adhoc_inram", "adhoc_mmap", "served_reuse", "served_churn")

#: Requests between two writes on ``served_churn``.
CHURN_SEGMENT = 20

#: Rate every statement family is stored at (percent); ``reuse`` requests
#: ask for strictly less, ``miss`` requests for exactly this.
FAMILY_RATE = 20.0


@dataclass(frozen=True)
class Request:
    """One request of a stream.

    ``exact_key`` is the statement with every sampling and version
    clause removed: the oracle computes one exact answer per (key,
    table state).  ``budget`` is the relative half-width a ``budget``
    request must realize.  On ``served_churn``, ``segment`` numbers the
    write interval of the round the request belongs to (it runs after
    ``segment + 1`` writes of that round) and ``state_back`` says how
    many writes before that state the scanned contents were frozen
    (0 = the live table, 1 = the snapshot the latest write froze).
    """

    cls: str
    text: str
    seed: int
    exact_key: str
    budget: float | None = None
    progressive: bool = False
    segment: int = 0
    state_back: int = 0


def _sql(
    select: str,
    tables: list[tuple[str, float | None]],
    where: list[str] = (),
    group_by: str = "",
    suffix: str = "",
) -> tuple[str, str]:
    """(sampled text, sampling-free key) of one statement."""

    def render(sampled: bool) -> str:
        froms = ", ".join(
            f"{name} TABLESAMPLE ({rate:g} PERCENT)"
            if sampled and rate is not None
            else name
            for name, rate in tables
        )
        text = f"SELECT {select} FROM {froms}"
        if where:
            text += " WHERE " + " AND ".join(where)
        if group_by:
            text += f" GROUP BY {group_by}"
        return text

    return render(True) + suffix, render(False)


def _cycle(items: list, n: int) -> list:
    return [items[i % len(items)] for i in range(n)]


# -- ad hoc ----------------------------------------------------------------

_SCALAR_AGGS = (
    "SUM(l_extendedprice) AS v",
    "COUNT(*) AS v",
    "AVG(l_quantity) AS v",
)
_SCALAR_FILTERS = ("l_discount > 0.05", "l_shipdate < 1200", "l_quantity > 25")
_RATES = (5.0, 6.0, 7.5, 9.0, 10.0, 12.5, 15.0, 17.5, 20.0)
_Q1 = (
    "l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
    "SUM(l_extendedprice) AS sum_price, AVG(l_discount) AS avg_disc, "
    "COUNT(*) AS n"
)


def scalar_requests(n: int, range_keys: tuple[int, ...] = ()) -> list[Request]:
    """Single-table aggregates; every second one filtered.

    With ``range_keys`` the filter is an ``l_orderkey <`` range, which
    colstore block statistics can prune (``adhoc_mmap``).
    """
    out = []
    for i in range(n):
        agg = _SCALAR_AGGS[i % len(_SCALAR_AGGS)]
        rate = _RATES[(i // len(_SCALAR_AGGS)) % len(_RATES)]
        where = []
        if i % 2:
            where = (
                [f"l_orderkey < {range_keys[(i // 2) % len(range_keys)]}"]
                if range_keys
                else [_SCALAR_FILTERS[(i // 2) % len(_SCALAR_FILTERS)]]
            )
        text, key = _sql(agg, [("lineitem", rate)], where)
        out.append(Request("scalar", text, 0, key))
    return out


def join_requests(n: int) -> list[Request]:
    shapes = []
    for rate in _RATES:
        shapes.append(
            _sql(
                "SUM(l_extendedprice) AS v",
                [("lineitem", rate), ("orders", 50.0)],
                ["l_orderkey = o_orderkey"],
            )
        )
        shapes.append(
            _sql(
                "SUM(l_extendedprice) AS v, COUNT(*) AS n",
                [("lineitem", rate), ("orders", None), ("customer", None)],
                [
                    "l_orderkey = o_orderkey",
                    "o_custkey = c_custkey",
                    "c_acctbal > 0.0",
                ],
            )
        )
    return [Request("join", t, 0, k) for t, k in _cycle(shapes, n)]


def grouped_requests(n: int) -> list[Request]:
    shapes = [
        _sql(
            _Q1,
            [("lineitem", rate)],
            ["l_shipdate <= 2400"],
            "l_returnflag, l_linestatus",
        )
        for rate in _RATES
    ]
    return [Request("grouped", t, 0, k) for t, k in _cycle(shapes, n)]


def budget_requests(n: int, progressive: bool = False) -> list[Request]:
    out = []
    for percent in _cycle([1.0, 1.5, 2.0], n):
        text, key = _sql(
            "SUM(l_extendedprice) AS v",
            [("lineitem", 5.0)],
            suffix=f" WITHIN {percent:g} % CONFIDENCE 0.95",
        )
        out.append(
            Request(
                "budget", text, 0, key,
                budget=percent / 100.0, progressive=progressive,
            )
        )
    return out


def _versiondiff_requests(n: int, rng: random.Random) -> list[Request]:
    out = []
    for rate in _cycle(list(_RATES), n):
        seed = rng.randrange(1, 2**31)
        key = "SELECT SUM(l_extendedprice) AS v FROM lineitem MINUS AT VERSION 1"
        text = f"{key} TABLESAMPLE ({rate:g} PERCENT) REPEATABLE ({seed})"
        out.append(Request("versiondiff", text, seed, key))
    return out


def _seeded(requests: list[Request], draws: random.Random) -> list[Request]:
    """Give every request without a pinned seed a fresh one."""
    return [
        r if r.seed else replace(r, seed=draws.randrange(1, 2**31))
        for r in requests
    ]


#: Requests per class in one ad hoc round.
ADHOC_MIX = {
    "adhoc_inram": {"scalar": 25, "join": 30, "grouped": 25,
                    "budget": 10, "versiondiff": 10},
    "adhoc_mmap": {"scalar": 35, "join": 35, "grouped": 30},
}


def adhoc_round(
    workload: str, seed: int, n_orders: int, scale_down: int = 1
) -> list[Request]:
    """The round every ad hoc round replays.

    ``n_orders`` sizes the ``l_orderkey <`` range predicates of
    ``adhoc_mmap``; ``scale_down`` divides the class counts (smoke
    tests).
    """
    rng = random.Random(f"{workload}:{seed}")
    range_keys = (n_orders // 8, n_orders // 4) if workload == "adhoc_mmap" else ()
    build = {
        "scalar": lambda n: scalar_requests(n, range_keys),
        "join": join_requests,
        "grouped": grouped_requests,
        "budget": budget_requests,
        "versiondiff": lambda n: _versiondiff_requests(n, rng),
    }
    requests = [
        request
        for cls, count in ADHOC_MIX[workload].items()
        for request in build[cls](max(1, count // scale_down))
    ]
    rng.shuffle(requests)
    return _seeded(requests, rng)


# -- served ----------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """A statement family: one relational core stored once at 20 %.

    ``seed`` is the seed the family is pre-issued with; a ``pushdown``
    request must carry the same one (same design, more predicates).
    ``fixed_filters`` come from a small set so joins need few exact
    answers; ``unique_filters`` are templates filled with a constant
    that never repeats within a run, used by single-table pushdowns
    (cheap to answer exactly).
    """

    name: str
    tables: tuple[tuple[str, bool], ...]
    join: tuple[str, ...]
    aggs: tuple[str, ...]
    fixed_filters: tuple[str, ...]
    unique_filters: tuple[tuple[str, int, int], ...] = ()
    seed: int = 0

    def sql(self, agg: str, rate: float, filters: list[str]) -> tuple[str, str]:
        tables = [(n, rate if sampled else None) for n, sampled in self.tables]
        return _sql(agg, tables, list(self.join) + filters)


FAMILIES = (
    Family(
        "lineitem",
        (("lineitem", True),),
        (),
        (
            "SUM(l_extendedprice) AS v",
            "AVG(l_quantity) AS v",
            "COUNT(*) AS v",
            "SUM(l_extendedprice * (1.0 - l_discount)) AS v",
        ),
        ("l_quantity > 25", "l_discount > 0.05"),
        (("l_shipdate < {}", 600, 2400),),
        seed=1101,
    ),
    Family(
        "orders",
        (("orders", True),),
        (),
        ("SUM(o_totalprice) AS v", "AVG(o_totalprice) AS v", "COUNT(*) AS v"),
        ("o_totalprice > 8000.0",),
        (("o_orderdate < {}", 600, 2300),),
        seed=1102,
    ),
    Family(
        "lineitem_orders",
        (("lineitem", True), ("orders", False)),
        ("l_orderkey = o_orderkey",),
        ("SUM(l_extendedprice) AS v", "COUNT(*) AS v"),
        ("o_orderdate < 1200", "l_quantity > 25"),
        seed=1103,
    ),
    Family(
        "orders_customer",
        (("orders", True), ("customer", False)),
        ("o_custkey = c_custkey",),
        ("SUM(o_totalprice) AS v",),
        ("c_acctbal > 0.0",),
        seed=1104,
    ),
)

#: Families whose every relation survives a ``lineitem`` write.
_STABLE = tuple(f for f in FAMILIES if all(n != "lineitem" for n, _ in f.tables))
_LINEITEM = FAMILIES[0]

_REUSE_RATES = (2.0, 3.0, 5.0, 8.0, 12.0, 15.0, 19.0)


def family_statements() -> list[Request]:
    """Set-up's pre-issue: every family once at :data:`FAMILY_RATE`."""
    out = []
    for fam in FAMILIES:
        text, key = fam.sql(fam.aggs[0], FAMILY_RATE, [])
        out.append(Request("family", text, fam.seed, key))
    return out


def _thin(fam: Family, i: int, with_filter: bool) -> Request:
    agg = fam.aggs[i % len(fam.aggs)]
    rate = _REUSE_RATES[i % len(_REUSE_RATES)]
    filters = (
        [fam.fixed_filters[i % len(fam.fixed_filters)]] if with_filter else []
    )
    text, key = fam.sql(agg, rate, filters)
    return Request("reuse", text, 0, key)


def _pushdown(fam: Family, i: int, rng: random.Random, used: set) -> Request:
    template, lo, hi = fam.unique_filters[i % len(fam.unique_filters)]
    while True:
        constant = rng.randrange(lo, hi)
        if (fam.name, constant) not in used:
            used.add((fam.name, constant))
            break
    agg = fam.aggs[i % len(fam.aggs)]
    text, key = fam.sql(agg, FAMILY_RATE, [template.format(constant)])
    return Request("reuse", text, fam.seed, key)


def _miss(fam: Family, i: int) -> Request:
    text, key = fam.sql(fam.aggs[i % len(fam.aggs)], FAMILY_RATE, [])
    return Request("miss", text, 0, key)


def reuse_round(seed: int, round_index: int, used: set, scale_down: int = 1):
    """One ``served_reuse`` round: repeat 10 %, reuse 60 %, budget 10 %,
    miss 20 % (see README for why budget/miss differ from 15/15).

    The layout — which shape sits at which position, which earlier
    request a repeat copies — depends on ``seed`` alone, so position
    ``j`` costs the same in every round; request seeds and pushdown
    constants are re-drawn per round.
    """
    layout = random.Random(f"served_reuse:{seed}")
    draws = random.Random(f"served_reuse:{seed}:{round_index}")
    n = {"repeat": 20, "thin": 60, "thin_filter": 40, "pushdown": 20,
         "budget": 20, "miss": 40}
    n = {k: max(1, v // scale_down) for k, v in n.items()}
    fams = FAMILIES
    requests = [_thin(fams[i % 4], i, False) for i in range(n["thin"])]
    requests += [_thin(fams[i % 4], i, True) for i in range(n["thin_filter"])]
    requests += [
        _pushdown(fams[i % 2], i, draws, used) for i in range(n["pushdown"])
    ]
    requests += budget_requests(n["budget"], progressive=True)
    requests += [_miss(fams[i % 4], i) for i in range(n["miss"])]
    layout.shuffle(requests)
    requests = _seeded(requests, draws)
    # Repeats copy an earlier final-mode request of the same round that
    # is at most 100 requests back, so the result cache still holds it.
    step = max(2, (len(requests) + n["repeat"]) // n["repeat"])
    for k in range(n["repeat"]):
        at = min(len(requests), step * (k + 1) - 1)
        back = [r for r in requests[max(0, at - 100):at] if not r.progressive]
        source = back[layout.randrange(len(back))]
        requests.insert(at, replace(source, cls="repeat"))
    return requests


def churn_round(seed: int, round_index: int, writes: int, versions_before: int,
                scale_down: int = 1) -> list[Request]:
    """One ``served_churn`` round: ``writes`` segments of 20 requests.

    Each segment follows one ``refresh_table("lineitem", ...)``, which
    froze snapshot ``versions_before + segment + 1`` and invalidated
    every live ``lineitem`` synopsis.  It opens with two misses that
    re-store what the rest of the segment reuses — the ``lineitem``
    family and a 20 % scan of the new snapshot — followed, shuffled, by
    the remaining misses (fresh seeds at the stored rate never reuse)
    and the reuses: thinner ``lineitem`` variants, variants of the
    families the write did not touch, and thinner ``AT VERSION`` scans.
    Misses are 40 % of a segment, reuses 60 %.  As in
    :func:`reuse_round`, the layout depends on ``seed`` alone and the
    request seeds are re-drawn per round.
    """
    layout = random.Random(f"served_churn:{seed}")
    draws = random.Random(f"served_churn:{seed}:{round_index}")
    per = max(5, CHURN_SEGMENT // scale_down)
    n_miss = per * 2 // 5

    def snapshot_scan(cls: str, rate: float, version: int) -> Request:
        key = "SELECT SUM(l_extendedprice) AS v FROM lineitem"
        text = f"{key} AT VERSION {version} TABLESAMPLE ({rate:g} PERCENT)"
        return Request(cls, text, 0, key, state_back=1)

    out: list[Request] = []
    for seg in range(writes):
        version = versions_before + seg + 1
        openers = [
            _miss(_LINEITEM, seg),
            snapshot_scan("miss", FAMILY_RATE, version),
        ]
        body = [_miss(_LINEITEM, seg + i) for i in range(1, n_miss - 1)]
        for i in range(per - n_miss):
            if i % 3 == 0:
                body.append(_thin(_LINEITEM, seg + i, i % 2 == 1))
            elif i % 3 == 1:
                body.append(_thin(_STABLE[i % len(_STABLE)], seg + i, False))
            else:
                rate = _REUSE_RATES[(seg + i) % len(_REUSE_RATES)]
                body.append(snapshot_scan("reuse", rate, version))
        layout.shuffle(body)
        out += [
            replace(r, seed=draws.randrange(1, 2**31), segment=seg)
            for r in openers + body
        ]
    return out

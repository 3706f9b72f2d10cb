"""One route to a sample.

Rows reach the SBox one way, whoever asks: the pipeline's chunks, or a
synopsis catalog's stored sample (hit or miss) handed over as rows and
folded like any other sample.  So a version difference reads each
side's rows through :meth:`SBox.sample` and estimates no side, a
sub-sampled query is stored and served by the catalog like any other,
and ``EXPLAIN ANALYZE`` runs exactly what the plain statement runs.

The digests were taken at the commit before the sides stopped being
estimated; they cover values, raw variances, matched keys and each
side's reuse kind, with and without a catalog, at one chunk and on
default-size chunks, for two seeds run twice each.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.core.sbox as sbox_module
from repro.core.subsample import SubsampleSpec
from repro.data.tpch import tpch_database
from repro.errors import SQLError

_DIFF = "FROM lineitem {versions} TABLESAMPLE ({rate} PERCENT) REPEATABLE ({seed})"

#: name → a version-difference statement.
STATEMENTS = {
    "scalar": (
        "SELECT SUM(l_extendedprice) AS s, COUNT(*) AS n "
        + _DIFF.format(versions="MINUS AT VERSION 1", rate=10, seed=3)
    ),
    "grouped_where": (
        "SELECT l_returnflag, SUM(l_extendedprice) AS s, COUNT(*) AS n "
        + _DIFF.format(versions="MINUS AT VERSION 1", rate=20, seed=5)
        + " WHERE l_quantity > 10 GROUP BY l_returnflag"
    ),
    "exact": (
        "SELECT SUM(l_extendedprice) AS s FROM lineitem MINUS AT VERSION 1 "
        "WHERE l_discount > 0.05"
    ),
    "grouped_having": (
        "SELECT l_returnflag, l_linestatus, "
        "QUANTILE(SUM(l_extendedprice), 0.9) AS hi, COUNT(*) AS n "
        + _DIFF.format(versions="AT VERSION 2 MINUS AT VERSION 1", rate=30, seed=9)
        + " GROUP BY l_returnflag, l_linestatus HAVING n > 0"
    ),
}

#: name → digest over (catalog off/on) × (chunk_size default/997) ×
#: seeds 1, 2, each run twice.
PINNED = {
    "scalar": "08ac9d6c502cd958",
    "grouped_where": "4d57f923c8ede3eb",
    "exact": "a4a2aa78cbbf31e7",
    "grouped_having": "102c5517175272ca",
}

_SUB = "lineitem TABLESAMPLE (30 PERCENT) REPEATABLE (11)"

#: name → a sub-sampled statement served from the catalog on repeat.
SUBSAMPLED = {
    "sum_avg": f"SELECT SUM(l_extendedprice) AS s, AVG(l_quantity) AS m FROM {_SUB}",
    "grouped": (
        "SELECT l_returnflag, SUM(l_quantity) AS q, AVG(l_tax) AS t "
        f"FROM {_SUB} GROUP BY l_returnflag"
    ),
    "join": (
        f"SELECT SUM(l_extendedprice) AS s, COUNT(*) AS n FROM {_SUB}, "
        "orders TABLESAMPLE (50 PERCENT) REPEATABLE (3) "
        "WHERE l_orderkey = o_orderkey"
    ),
}


def _versioned(catalog: bool):
    """``lineitem`` at versions 1 (original), 2 and live (both repriced)."""
    db = tpch_database(0.5, seed=42)
    if catalog:
        db.attach_catalog()
    lineitem = db.table("lineitem")
    price = lineitem.column("l_extendedprice").copy()
    price[::7] = np.round(price[::7] * 1.1, 2)
    db.update_table("lineitem", lineitem.with_columns({"l_extendedprice": price}))
    db.snapshot("lineitem")
    return db


def _digest(results) -> str:
    h = hashlib.sha256()
    for result in results:
        for alias, est in result.estimates.items():
            h.update(alias.encode())
            h.update(np.asarray(result.values[alias], dtype=np.float64).tobytes())
            h.update(np.asarray(est.variance_raw, dtype=np.float64).tobytes())
        for key in getattr(result, "keys", {}).values():
            h.update(repr(key.tolist()).encode())
        h.update(str(result.n_matched).encode())
        for side in ("hi", "lo"):
            info = result.reuse.get(side)
            h.update(str(None if info is None else info.kind).encode())
    return h.hexdigest()[:16]


def _diff_digest(name: str) -> str:
    results = []
    for catalog in (False, True):
        for chunk_size in (None, 997):
            db = _versioned(catalog)
            for seed in (1, 2):
                for _ in range(2):
                    results.append(
                        db.sql(
                            STATEMENTS[name], seed=seed, chunk_size=chunk_size
                        )
                    )
    return _digest(results)


@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_version_differences_keep_their_pinned_digests(name):
    assert _diff_digest(name) == PINNED[name]


def test_a_version_difference_estimates_no_side(monkeypatch):
    calls = []
    for name in ("estimate_from_moments", "grouped_estimates_from_moments"):
        finish = getattr(sbox_module, name)

        def counted(*args, _finish=finish, _name=name, **kwargs):
            calls.append(_name)
            return _finish(*args, **kwargs)

        monkeypatch.setattr(sbox_module, name, counted)
    for catalog in (False, True):
        db = _versioned(catalog)
        for text in STATEMENTS.values():
            for _ in range(2):
                db.sql(text, seed=1)
    assert calls == []
    # The counters are live: a plain estimate goes through them.
    db.sql("SELECT SUM(l_tax) AS t FROM lineitem TABLESAMPLE (10 PERCENT)")
    assert calls == ["estimate_from_moments"]


def _answer(result) -> tuple:
    """Every number and key a sub-sampled answer is made of."""
    estimates = result.estimates
    return (
        [(k, v.tolist()) for k, v in getattr(result, "keys", {}).items()],
        [(a, np.asarray(v).tolist()) for a, v in result.values.items()],
        [(a, np.asarray(e.variance_raw).tolist()) for a, e in estimates.items()],
        [(a, e.extras["n_subsample"]) for a, e in estimates.items()],
    )


@pytest.mark.parametrize("name", sorted(SUBSAMPLED))
def test_a_subsampled_query_is_stored_then_served(name):
    text, spec = SUBSAMPLED[name], SubsampleSpec(rate=0.5)
    plain = tpch_database(0.5, seed=42)
    expected = _answer(plain.sql(text, seed=4, subsample=spec))
    db = tpch_database(0.5, seed=42)
    db.attach_catalog()
    first = db.sql(text, seed=4, subsample=spec)
    assert first.reuse is None
    assert len(db.synopses) == 1
    repeat = db.sql(text, seed=4, subsample=spec)
    assert repeat.reuse is not None and repeat.reuse.kind == "exact"
    assert _answer(first) == expected
    assert _answer(repeat) == expected


def _spans(report, name: str) -> int:
    return len(report.trace.find(name))


def test_explain_analyze_of_a_difference_shows_each_side():
    text = "EXPLAIN ANALYZE " + STATEMENTS["scalar"]
    plain = _versioned(False).sql(text, seed=1)
    assert _spans(plain, "draw") == 2
    assert _spans(plain, "store.probe") == 0
    db = _versioned(True)
    first = db.sql(text, seed=1)
    assert (_spans(first, "store.probe"), _spans(first, "store.put")) == (2, 2)
    assert _spans(first, "draw") == 2
    repeat = db.sql(text, seed=1)
    assert (_spans(repeat, "store.probe"), _spans(repeat, "store.serve")) == (2, 2)
    assert _spans(repeat, "draw") == 0
    assert {side: info.kind for side, info in repeat.result.reuse.items()} == {
        "hi": "exact",
        "lo": "exact",
    }


@pytest.mark.parametrize("prefix", ["", "EXPLAIN ANALYZE "])
def test_both_forms_refuse_a_subsampled_difference(prefix):
    db = _versioned(False)
    with pytest.raises(SQLError, match="version-difference"):
        db.sql(
            prefix + STATEMENTS["scalar"], seed=1, subsample=SubsampleSpec(rate=0.5)
        )

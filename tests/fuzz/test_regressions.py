"""Regression tests distilled from differential-fuzzer counterexamples.

Each statement below is the shrunk form of a query the fuzzer flagged
while the corresponding bug was live, replayed with the seed it was
found under.  The full check battery (exact oracle, determinism,
catalog reuse, sequential statistical acceptance) must stay green.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fuzz import CheckContext, check_statement
from repro.fuzz.checker import MANY_CHUNK_ROWS


@pytest.fixture(scope="module")
def ctx() -> CheckContext:
    return CheckContext()


def test_wor_sampling_of_empty_table(ctx):
    """Shrunk by the fuzzer (campaign seed 0, query seed 84).

    ``n ROWS`` without-replacement sampling of a 0-row table raised
    ``ReproError: population 0 must be positive`` instead of keeping
    the (vacuously complete) empty table with certainty.
    """
    statement = "SELECT COUNT(v_val) AS a0\nFROM void TABLESAMPLE (200 ROWS)"
    assert check_statement(ctx, statement, seed=84, statistical=True) == []


def test_wor_empty_table_estimate_is_exact_zero(ctx):
    # The fixed semantics: an empty table is smaller than any requested
    # size, so the whole (empty) table is kept — an identity sample
    # whose estimates are exact.
    result = ctx.db.sql(
        "SELECT SUM(v_val) AS s, COUNT(*) AS n\n"
        "FROM void TABLESAMPLE (5 ROWS)",
        seed=3,
    )
    assert result.estimates["s"].value == 0.0
    assert result.estimates["s"].variance_raw == 0.0
    assert result.estimates["n"].value == 0.0


def test_block_sampled_tiny_table_is_unbiased(ctx):
    """Shrunk by the fuzzer (campaign seed 0, query seed 918).

    A single-block table under SYSTEM percent sampling produced a
    false bias rejection while the checker conditioned its drift test
    on non-empty draws: the all-or-nothing estimate is unbiased only
    across *all* trials, empty ones included.
    """
    statement = (
        "SELECT SUM(t_val) AS a0\n"
        "FROM tiny TABLESAMPLE (SYSTEM (20 PERCENT, 16))"
    )
    assert check_statement(ctx, statement, seed=918, statistical=True) == []


def test_exponent_form_rate_literal_round_trips(ctx):
    """Shrunk by the fuzzer (campaign seed 0, query seed 84).

    Degradation-produced rates print in exponent form (``1e-05``); the
    lexer must accept every literal the printer emits, and the design
    is too sparse for any statistical test — the checker must abstain,
    not reject on the all-empty trials.
    """
    statement = "SELECT SUM(f_flag) AS a0\nFROM fact TABLESAMPLE (1e-05 PERCENT)"
    assert check_statement(ctx, statement, seed=84, statistical=True) == []


def test_dominant_tuple_join_is_not_flagged_as_bias(ctx):
    """Shrunk by the fuzzer (campaign seed 0, query seed 1098).

    Five WOR rows joined against a one-row dimension subset: the
    estimator's mean is carried by a ~1 %-probability draw, so any
    finite-trial mean test would reject it; the design gate must
    exclude it instead.
    """
    statement = (
        "SELECT SUM(f_val) AS a2\n"
        "FROM fact TABLESAMPLE (5 ROWS), tiny\n"
        "WHERE f_key = t_key AND t_val > 12.5"
    )
    assert check_statement(ctx, statement, seed=1098, statistical=True) == []


def test_join_selectivity_shrunk_sample_not_flagged_for_coverage(ctx):
    """Shrunk by the fuzzer (campaign seed 0, query seed 3852).

    Fifty WOR rows joined to the 3-row ``tiny`` table leave ~10
    surviving rows — back inside the tail-blind-σ̂ regime the a-priori
    row gate cannot see (it only knows per-table draw sizes), so the
    per-trial surviving-sample gate must abstain.
    """
    statement = (
        "SELECT SUM(f_val) AS a1\n"
        "FROM fact TABLESAMPLE (50 ROWS), tiny\n"
        "WHERE f_key = t_key"
    )
    assert check_statement(ctx, statement, seed=3852, statistical=True) == []


def test_few_block_designs_not_flagged_for_coverage(ctx):
    """Shrunk by the fuzzer (campaign seed 0, query seed 924).

    Two kept blocks of a near-constant aggregate produce zero-width
    intervals beside the truth (the few-PSU variance blind spot); the
    coverage gate must exclude such designs.
    """
    statement = (
        "SELECT COUNT(*) AS a1\n"
        "FROM fact TABLESAMPLE (SYSTEM (2 BLOCKS, 64))"
    )
    assert check_statement(ctx, statement, seed=924, statistical=True) == []


def test_quantile_sigma_noise_not_flagged_as_nondeterminism(ctx):
    """Shrunk by the fuzzer (campaign seed 0, query seed 8547).

    A quantile shifts the estimate by ``z·σ̂``; the join makes this
    aggregate's true variance ~0, so σ̂ is summation-cancellation noise
    and serial vs chunked (different summation orders) land 5e-9 apart
    — beyond SERIAL_CHUNKED_RTOL on the value, but exactly the √ε·σ
    slack quantile aliases are granted.  The storage-backend comparison
    at one chunking must remain bit-exact.
    """
    statement = (
        "SELECT QUANTILE(AVG(d_weight), 0.95) AS a0\n"
        "FROM fact TABLESAMPLE (SYSTEM (5 PERCENT, 16)), dim\n"
        "WHERE f_key = d_key"
    )
    assert check_statement(ctx, statement, seed=8547, statistical=True) == []
    assert (
        ctx.db.sql(statement, seed=8547, chunk_size=MANY_CHUNK_ROWS).values["a0"]
        == ctx.mmap_db.sql(statement, seed=8547, chunk_size=MANY_CHUNK_ROWS).values["a0"]
    )


def test_sum_carried_by_a_few_rows_is_not_a_coverage_counterexample(ctx):
    """Found by the fuzzer (campaign seed 0, query 1284).

    12 of the 400 fact rows carry ``SUM(f_val * f_flag)``; a 10 % draw
    keeps ~40 rows but about one of the 12, so σ̂ is tail-blind and the
    correct estimator's Chebyshev-95 coverage is 0.70 — inside the
    SPRT's indifference region.  The checker rejected 13/23 while it
    gated trials on kept *rows*; the Kish effective size of the
    aggregate's input over the kept sample is what has to clear
    ``COVERAGE_MIN_ROWS``.
    """
    statement = "SELECT SUM(f_val * f_flag) AS a0\nFROM fact TABLESAMPLE (10 PERCENT)"
    assert check_statement(ctx, statement, seed=1284, statistical=True) == []


def test_grouped_having_drops_nan_groups(ctx):
    """HAVING over NaN estimates must drop the group, never let IEEE
    NaN truthiness decide.  QUANTILE over singleton groups is NaN, and
    ``NOT (NaN > 1000)`` evaluates truthy — before the fix every such
    group leaked through with a NaN answer."""
    statement = (
        "SELECT QUANTILE(SUM(t_val), 0.5) AS q\n"
        "FROM tiny TABLESAMPLE (50 PERCENT)\n"
        "GROUP BY t_key\n"
        "HAVING NOT (q > 1000)"
    )
    for seed in range(8):
        result = ctx.db.sql(statement, seed=seed)
        values = np.asarray(result.values["q"])
        assert not np.isnan(values).any()


def test_grouped_having_nan_policy_matches_both_polarities(ctx):
    # The policy is "drop", not "whatever comparison direction says":
    # the same NaN group must vanish under > and its negation alike.
    for having in ("HAVING q > 0", "HAVING NOT (q > 0)"):
        statement = (
            "SELECT QUANTILE(SUM(t_val), 0.9) AS q\n"
            "FROM tiny TABLESAMPLE (90 PERCENT)\n"
            "GROUP BY t_key\n" + having
        )
        for seed in range(8):
            result = ctx.db.sql(statement, seed=seed)
            assert not np.isnan(np.asarray(result.values["q"])).any()

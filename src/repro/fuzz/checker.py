"""Three-way differential checks for one generated statement.

Every statement is checked against independent evidence:

1. **round-trip** — ``parse ∘ print`` is a fixed point and the planner
   accepts the statement (printer/lexer/parser/planner agreement);
2. **exact oracle** — the estimator on the sampling-stripped statement
   (every sampler at rate 1) must reproduce the exact executor's
   answer, group set included;
3. **determinism** — the same statement + seed must agree across one
   chunk vs many small chunks (:data:`MANY_CHUNK_ROWS`; a merge of
   many chunks may differ from one fold in the last ulp when lineage
   keys collide, so that comparison gets a 1e-12 relative tolerance),
   across the in-RAM and memory-mapped columnar storage backends
   (bit-identical: same bytes, different page source), and across a
   synopsis catalog miss → hit;
4. **statistical** — unbiasedness and CI coverage over re-randomized
   trials, decided by the sequential tests in
   :mod:`repro.stats.sequential` instead of a fixed trial count.

Each check returns :class:`CheckFailure` records; an empty list means
the statement survived everything it was eligible for.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import EstimationError, ReproError
from repro.fuzz.generator import build_fuzz_tables, install_fuzz_versions
from repro.relational.aggregates import aggregate_input_vector
from repro.relational.database import Database
from repro.relational.table import Table
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse
from repro.sql.printer import query_to_sql
from repro.stats.sequential import BernoulliSPRT, SequentialBiasGuard

__all__ = [
    "CheckContext",
    "CheckFailure",
    "check_statement",
    "oracle_statement",
    "reseeded_statement",
]

#: Rows per chunk of the checker's one-chunk runs: more than any table
#: holds.
ONE_CHUNK_ROWS = sys.maxsize

#: Rows per chunk of its many-chunk runs: the fuzz ``fact`` table (400
#: rows) folds as 58 chunks and ``dim`` (60) as 9, so a sample's rows of
#: one lineage key land in several chunks and the merge is exercised.
MANY_CHUNK_ROWS = 7

#: Relative tolerance for one-chunk vs many-chunk point estimates:
#: merged moment state adds per-chunk partial sums of a lineage key, so
#: join fanout can move the last float ulp (measured ~1e-16 relative).
SERIAL_CHUNKED_RTOL = 1e-12

#: Tolerance for estimator-at-rate-1 vs the exact executor: the same
#: sums evaluated through two code paths.
ORACLE_RTOL = 1e-9

#: Extra absolute slack, scaled by ``max(1, |value|)``, for *quantile*
#: aliases in the one-chunk vs many-chunk comparison only.  A quantile
#: shifts the point estimate by ``z·σ̂``; when the true variance is ~0,
#: σ̂ is pure summation-cancellation noise of order ``√ε·scale·√n`` —
#: and one fold and a merge of several sum moments in different
#: orders, so their noise differs (measured: variances 1.7e-15 vs
#: 1.4e-15 around a true 0, quantiles 5e-9 apart).  The storage-backend
#: comparison shares one summation order and stays bit-exact.
QUANTILE_SIGMA_ATOL = 1e-6

#: SPRT hypotheses for the CI-coverage test.  Coverage is measured on
#: Chebyshev intervals, whose *nominal* guarantee holds only when the
#: variance estimate itself is honest; on heavy-tailed data at small
#: sample sizes σ̂ is noisy, so realized coverage sits well below the
#: nominal level even for a correct estimator.  The indifference region
#: is therefore wide: only coverage collapsing toward a coin flip is
#: treated as evidence of a broken interval.
COVERAGE_P_PASS = 0.90
COVERAGE_P_FAIL = 0.50

#: Reseeded trials the statistical check runs before it gives up on a
#: verdict.
MAX_TRIALS = 60

#: Coverage is only assessed for designs expected to draw at least this
#: many rows (tuple-level sampling).  Below it, σ̂ is estimated from a
#: handful of draws that usually miss the heavy tail entirely, and no
#: interval built from σ̂ (normal or Chebyshev) can honestly cover —
#: measured coverage of the *correct* estimator at a 1 % rate on the
#: fuzz fact table is ~0.26.  Applied three times: a priori to each
#: table's expected draw; per trial to the sample actually *surviving*
#: predicates and joins (selectivity the a-priori gate cannot see); and
#: per trial to the Kish effective size ``(Σ|f|)² / Σf²`` of each
#: aggregate's input over that sample.  Rows are not evidence when a
#: few of them carry the sum: ``SUM(f_val * f_flag)`` is carried by 12
#: of the 400 fact rows, a 10 % draw keeps 40 rows but about one of the
#: 12, and Chebyshev-95 coverage of the correct estimator is 0.70 —
#: inside the SPRT's indifference region, so the verdict was a coin
#: flip (the subset-sum regime Szegedy–Thorup bound).
COVERAGE_MIN_ROWS = 32

#: Block designs are gated on expected *kept blocks* instead: with one
#: or two primary units the between-block variance is invisible to σ̂
#: (both kept blocks full → zero-width interval beside the truth), the
#: classic few-PSU limitation of survey variance estimation.
COVERAGE_MIN_BLOCKS = 8

#: The drift (unbiasedness) guard needs each trial's draw to see a
#: non-trivial fraction of every sampled table.  At tiny fractions the
#: estimator's mean is carried by rare draws — at 10⁻⁷ every trial is
#: empty and every estimate is 0; with 5 of 400 rows the one dominant
#: tuple appears in ~1 % of trials — so any finite-trial mean test
#: would reject an unbiased estimator.  Bias bugs that exist at all
#: rates (a forgotten ``1/a``, a wrong pair probability) are caught in
#: the eligible regime; deterministic ones by the rate-1 oracle.
DRIFT_MIN_FRACTION = 0.2

#: ``min_n`` for the drift guard: with an inclusion fraction ≥ 0.2 the
#: probability that 30 trials all miss a mean-carrying tuple is
#: ``0.8³⁰ ≈ 10⁻³``, keeping rare-event false rejections negligible.
DRIFT_MIN_N = 30


@dataclass(frozen=True)
class CheckFailure:
    """One check that a statement failed."""

    kind: str  # 'roundtrip' | 'plan' | 'oracle' | 'determinism'
    #           | 'reuse' | 'statistical'
    statement: str
    seed: int
    detail: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"[{self.kind}] seed={self.seed}: {self.detail}\n{self.statement}"


# -- statement surgery --------------------------------------------------------


def _strip_query(query: ast.SelectQuery) -> ast.SelectQuery:
    """Sampling-free, budget-free, quantile-unwrapped twin of a query.

    ``QUANTILE(agg, q)`` unwraps to its aggregate: the exact executor
    evaluates it as the plain aggregate, and at rate 1 the estimator's
    quantile collapses onto the point value anyway (NaN for singleton
    groups) — the underlying aggregate is the comparable quantity.
    """
    items = tuple(
        replace(item, expression=item.expression.aggregate)
        if isinstance(item.expression, ast.QuantileCall)
        else item
        for item in query.items
    )
    tables = tuple(replace(ref, sample=None) for ref in query.tables)
    return replace(
        query,
        items=items,
        tables=tables,
        budget=None,
        explain_sampling=False,
        explain_analyze=False,
    )


def oracle_statement(statement: str) -> str:
    """The exact-comparable form of a statement (see :func:`_strip_query`)."""
    return query_to_sql(_strip_query(parse(statement)))


def reseeded_statement(statement: str, trial: int) -> str:
    """Rewrite every ``REPEATABLE`` seed to a trial-specific value.

    ``REPEATABLE (s)`` pins the per-tuple hash draws, so statistical
    trials must re-randomize it; non-repeatable clauses re-randomize
    through the engine seed alone.
    """
    query = parse(statement)
    tables = []
    for i, ref in enumerate(query.tables):
        sample = ref.sample
        if sample is not None and sample.repeatable_seed is not None:
            fresh = (
                sample.repeatable_seed + 104729 * (trial + 1) + 7919 * i
            ) % 1_000_003
            ref = replace(ref, sample=replace(sample, repeatable_seed=fresh))
        tables.append(ref)
    return query_to_sql(replace(query, tables=tuple(tables)))


def _is_sampled(query: ast.SelectQuery) -> bool:
    return any(ref.sample is not None for ref in query.tables)


# -- result fingerprints ------------------------------------------------------


def _scalar(value) -> float:
    return float(value)


def _key_item(value):
    """A hashable python value from one group-key cell.

    Numeric cells unbox through ``.item()``; object-array cells
    (dictionary-encoded strings, None) already are python values.
    """
    return value.item() if isinstance(value, np.generic) else value


def _values_close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if a == b:
        return True
    if rtol == 0.0 and atol == 0.0:
        return False
    scale = max(abs(a), abs(b))
    return abs(a - b) <= rtol * scale + atol * max(1.0, scale)


def fingerprint(result):
    """A comparable view of any query result.

    Ungrouped and budget results reduce to ``{alias: float}``; grouped
    results to ``{group-key tuple: {alias: float}}`` so comparisons are
    insensitive to group ordering across engines.
    """
    inner = getattr(result, "result", None)
    if inner is not None:  # OptimizedResult
        result = inner
    keys = getattr(result, "keys", None)
    if keys is None:
        return {alias: _scalar(v) for alias, v in result.values.items()}
    names = list(keys)
    cols = [np.asarray(keys[n]) for n in names]
    n_groups = cols[0].shape[0] if cols else 0
    out: dict[tuple, dict[str, float]] = {}
    for g in range(n_groups):
        key = tuple(_key_item(c[g]) for c in cols)
        out[key] = {
            alias: _scalar(v[g]) for alias, v in result.values.items()
        }
    return out


def _table_fingerprint(table: Table, group_keys: tuple[str, ...]):
    """Fingerprint of an exact-executor output table."""
    aliases = [c for c in table.columns if c not in group_keys]
    if not group_keys:
        return {a: _scalar(table.column(a)[0]) for a in aliases}
    key_cols = [table.column(k) for k in group_keys]
    out: dict[tuple, dict[str, float]] = {}
    for g in range(table.n_rows):
        key = tuple(_key_item(c[g]) for c in key_cols)
        out[key] = {a: _scalar(table.column(a)[g]) for a in aliases}
    return out


def diff_fingerprints(
    a, b, rtol: float, sigma_slack_aliases: frozenset = frozenset()
) -> str | None:
    """First difference between two fingerprints, or ``None``.

    Aliases in ``sigma_slack_aliases`` (quantile outputs) additionally
    tolerate :data:`QUANTILE_SIGMA_ATOL`; see the constant's rationale.
    """
    if set(a) != set(b):
        missing = sorted(set(a) ^ set(b), key=repr)
        return f"key sets differ: {missing[:4]}"
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, dict):
            inner = diff_fingerprints(va, vb, rtol, sigma_slack_aliases)
            if inner is not None:
                return f"group {key!r}: {inner}"
        else:
            atol = (
                QUANTILE_SIGMA_ATOL if key in sigma_slack_aliases else 0.0
            )
            if not _values_close(va, vb, rtol, atol):
                return f"{key!r}: {va!r} vs {vb!r} (rtol={rtol:g})"
    return None


def _is_degenerate_exact(exact, group_keys: tuple[str, ...]) -> bool:
    """Is the exact answer itself undefined-ish (NaN, or no groups)?"""
    if group_keys:
        return not exact
    return any(math.isnan(v) for v in exact.values())


def _outcome(fn, *args, **kwargs):
    """Run an engine call, capturing an engine error as a value.

    The engine deliberately *refuses* some degenerate estimates (an AVG
    over an empty sample, block designs whose pair probabilities
    vanish) instead of emitting silent infinities.  A refusal is then a
    defined outcome every engine must agree on — the differential
    checks compare outcomes, not just answers.
    """
    try:
        return ("ok", fingerprint(fn(*args, **kwargs)))
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))


def diff_outcomes(
    a, b, rtol: float, sigma_slack_aliases: frozenset = frozenset()
) -> str | None:
    """First difference between two engine outcomes, or ``None``."""
    if a[0] != b[0]:
        return f"one engine answered, the other raised: {a!r} vs {b!r}"
    if a[0] == "error":
        if a[1:] != b[1:]:
            return f"different errors: {a[1:]} vs {b[1:]}"
        return None
    return diff_fingerprints(a[1], b[1], rtol, sigma_slack_aliases)


# -- the check context --------------------------------------------------------


class CheckContext:
    """Shared state for checking many statements against one schema.

    Holds the fuzz tables, a persistent plain :class:`Database`
    (keeping its cost model's join-key distinct counts warm for budget
    queries) and its memory-mapped twin; catalog databases are built
    fresh per reuse check so one statement's synopses never serve
    another's.  Every database grows the same deterministic ``fact``
    version history (:func:`install_fuzz_versions`), so generated
    ``AT VERSION`` pins and coordinated version differences check
    exactly like any other statement — including the exact oracle,
    which nets the two sides at rate 1.
    """

    def __init__(self) -> None:
        self.tables = {
            name: Table(name, cols)
            for name, cols in build_fuzz_tables().items()
        }
        self.db = Database.from_tables(self.tables)
        self._install_versions(self.db)
        # The mmap twin: the same tables persisted to the columnar
        # layout once and memory-mapped back, so the determinism check
        # can difference the storage backends.  The directory object is
        # held for the context's lifetime (mapped files must outlive
        # every query).
        import os
        import tempfile

        self._mmap_dir = tempfile.TemporaryDirectory(prefix="repro-fuzz-mmap-")
        self.mmap_db = Database()
        for name, table in self.tables.items():
            self.mmap_db.register(
                name, table.persist(os.path.join(self._mmap_dir.name, name))
            )
        self._install_versions(self.mmap_db)

    def _install_versions(self, db: Database) -> None:
        """Grow the fact table's snapshot history on one database.

        The mutations are deterministic in the fact contents, so every
        database a check compares (plain, mmap twin, catalog rebuilds)
        carries a bit-identical version chain and versioned statements
        stay differential.
        """
        if "fact" in self.tables:
            install_fuzz_versions(db)

    def fresh_db(self, *, catalog: bool = False) -> Database:
        db = Database.from_tables(self.tables, catalog=catalog)
        self._install_versions(db)
        return db

    # -- individual checks -------------------------------------------------

    def check_roundtrip(self, statement: str, seed: int) -> list[CheckFailure]:
        """``parse ∘ print`` fixed point + planner acceptance."""
        try:
            first = parse(statement)
            printed = query_to_sql(first)
            second = parse(printed)
        except ReproError as exc:
            return [
                CheckFailure("roundtrip", statement, seed, f"parse error: {exc}")
            ]
        if first != second:
            return [
                CheckFailure(
                    "roundtrip",
                    statement,
                    seed,
                    f"AST changed across print/parse:\n{printed}",
                )
            ]
        try:
            self.db.plan_sql(statement)
        except ReproError as exc:
            return [
                CheckFailure("plan", statement, seed, f"planner rejected: {exc}")
            ]
        return []

    def check_oracle(self, statement: str, seed: int) -> list[CheckFailure]:
        """Estimator at rate 1 vs the exact executor.

        An :class:`EstimationError` refusal at rate 1 is accepted only
        where exactness has nothing definite to say either — the exact
        answer is NaN (AVG over no rows) or has no groups at all; a
        refusal of a well-defined exact answer is a failure.
        """
        stripped = oracle_statement(statement)
        query = parse(stripped)
        group_keys = tuple(c.name for c in query.group_by)
        try:
            exact = _table_fingerprint(
                self.db.sql_exact(stripped), group_keys
            )
        except ReproError as exc:
            return [
                CheckFailure(
                    "oracle", statement, seed, f"exact executor error: {exc}"
                )
            ]
        try:
            estimated = fingerprint(self.db.sql(stripped, seed=seed))
        except EstimationError as exc:
            if _is_degenerate_exact(exact, group_keys):
                return []
            return [
                CheckFailure(
                    "oracle",
                    statement,
                    seed,
                    f"estimator(rate=1) refused a well-defined exact "
                    f"answer: {exc}",
                )
            ]
        except ReproError as exc:
            return [
                CheckFailure(
                    "oracle", statement, seed, f"execution error: {exc}"
                )
            ]
        detail = diff_fingerprints(estimated, exact, ORACLE_RTOL)
        if detail is not None:
            return [
                CheckFailure(
                    "oracle",
                    statement,
                    seed,
                    f"estimator(rate=1) != exact: {detail}",
                )
            ]
        return []

    def budget_plans(self, statement: str, seed: int) -> bool:
        """Whether the optimizer answers a ``WITHIN`` statement (one
        chunk) rather than refusing it."""
        outcome = _outcome(
            self.db.sql, statement, seed=seed, chunk_size=ONE_CHUNK_ROWS
        )
        return outcome[0] == "ok"

    def check_determinism(self, statement: str, seed: int) -> list[CheckFailure]:
        """One chunk vs many chunks vs the mmap backend agreement."""
        query = parse(statement)
        quantile_aliases = frozenset(
            item.alias
            for item in query.items
            if isinstance(item.expression, ast.QuantileCall)
        )
        one_chunk = _outcome(self.db.sql, statement, seed=seed, chunk_size=ONE_CHUNK_ROWS)
        many = _outcome(self.db.sql, statement, seed=seed, chunk_size=MANY_CHUNK_ROWS)
        failures = []
        detail = diff_outcomes(one_chunk, many, SERIAL_CHUNKED_RTOL, quantile_aliases)
        if detail is not None:
            failures.append(
                CheckFailure(
                    "determinism",
                    statement,
                    seed,
                    f"one chunk vs many chunks disagree: {detail}",
                )
            )
        # Every statement, a budget statement included (its cost model
        # times nothing, so the design it picks depends on the data
        # alone), must be bit-identical across storage backends.  A
        # budget statement's pilot and attempts run at the chunking
        # asked for, so both comparisons above and below reach it.
        mmap_many = _outcome(self.mmap_db.sql, statement, seed=seed, chunk_size=MANY_CHUNK_ROWS)
        detail = diff_outcomes(many, mmap_many, 0.0)
        if detail is not None:
            failures.append(
                CheckFailure(
                    "determinism",
                    statement,
                    seed,
                    f"mmap backend vs in-RAM not bit-identical: {detail}",
                )
            )
        return failures

    def check_reuse(self, statement: str, seed: int) -> list[CheckFailure]:
        """Catalog miss, then hit, vs a catalog-free run — all equal.

        Bit-equality is pinned to one chunk (:data:`ONE_CHUNK_ROWS`): the
        catalog populates and serves from the *materialized* sample —
        one fold over all of it — while a catalog-free run over many
        chunks merges per-chunk folds: the same sample bits summed in a
        different order.  Many-chunk execution gets its own catalog
        comparison below, at the tolerance the one-vs-many determinism
        check uses.
        """
        query = parse(statement)
        if query.budget is not None:
            return []  # the optimizer owns its own sampling design
        one_chunk = {"seed": seed, "chunk_size": ONE_CHUNK_ROWS}
        plain = _outcome(self.fresh_db().sql, statement, **one_chunk)
        with_catalog = self.fresh_db(catalog=True)
        miss = _outcome(with_catalog.sql, statement, **one_chunk)
        hit = _outcome(with_catalog.sql, statement, **one_chunk)
        failures = []
        detail = diff_outcomes(plain, miss, 0.0)
        if detail is not None:
            failures.append(
                CheckFailure(
                    "reuse",
                    statement,
                    seed,
                    f"catalog miss differs from catalog-free run: {detail}",
                )
            )
        detail = diff_outcomes(miss, hit, 0.0)
        if detail is not None:
            failures.append(
                CheckFailure(
                    "reuse",
                    statement,
                    seed,
                    f"catalog hit differs from miss: {detail}",
                )
            )
        quantile_aliases = frozenset(
            item.alias
            for item in query.items
            if isinstance(item.expression, ast.QuantileCall)
        )
        many = {"seed": seed, "chunk_size": MANY_CHUNK_ROWS}
        chunked = _outcome(self.fresh_db().sql, statement, **many)
        chunked_miss = _outcome(self.fresh_db(catalog=True).sql, statement, **many)
        detail = diff_outcomes(chunked, chunked_miss, SERIAL_CHUNKED_RTOL, quantile_aliases)
        if detail is not None:
            failures.append(
                CheckFailure(
                    "reuse",
                    statement,
                    seed,
                    f"chunked catalog miss vs catalog-free run beyond "
                    f"fold tolerance: {detail}",
                )
            )
        return failures

    def _design_gates(self, query: ast.SelectQuery) -> tuple[bool, bool]:
        """``(drift eligible, coverage eligible)`` for a sampling design.

        Both are static properties of the statement against the fuzz
        table sizes; see :data:`DRIFT_MIN_FRACTION`,
        :data:`COVERAGE_MIN_ROWS` and :data:`COVERAGE_MIN_BLOCKS` for
        the regimes they encode.  A clause keeping the whole table
        (``fraction >= 1``) is always coverage-eligible: the estimate
        is exact, so its interval trivially covers.
        """
        drift_ok = coverage_ok = True
        for ref in query.tables:
            sample = ref.sample
            if sample is None:
                continue
            n_rows = self.tables[ref.name].n_rows
            if sample.kind == "percent":
                fraction = sample.amount / 100.0
                units = fraction * n_rows
                minimum = COVERAGE_MIN_ROWS
            elif sample.kind == "rows":
                fraction = (
                    min(sample.amount / n_rows, 1.0) if n_rows else 1.0
                )
                units = min(sample.amount, n_rows)
                minimum = COVERAGE_MIN_ROWS
            else:  # block designs: units are kept blocks
                total = -(-n_rows // sample.rows_per_block)
                if sample.kind == "system_percent":
                    fraction = sample.amount / 100.0
                    units = fraction * total
                else:
                    fraction = (
                        min(sample.amount / total, 1.0) if total else 1.0
                    )
                    units = min(sample.amount, total)
                minimum = COVERAGE_MIN_BLOCKS
            drift_ok = drift_ok and fraction >= DRIFT_MIN_FRACTION
            coverage_ok = coverage_ok and (
                fraction >= 1.0 or units >= minimum
            )
        return drift_ok, coverage_ok

    def check_statistical(self, statement: str, seed: int) -> list[CheckFailure]:
        """Sequential unbiasedness + CI-coverage test over trials.

        Only ungrouped, non-budget, sampled statements are eligible
        (grouped coverage is checked per group by the dedicated suites;
        budget queries verify their own realized widths).  Trials
        re-randomize both the engine seed and any ``REPEATABLE``
        clauses.

        The drift guard feeds on **every** completed trial: a SUM over
        an empty draw estimates 0, and those zeros are exactly what
        balances the lucky draws in expectation — conditioning on
        "the sample was non-trivial" would make a perfectly unbiased
        estimator look biased.  When a trial is *refused* outright (an
        AVG over an empty draw raises instead of completing), that
        conditioning is unavoidable, so any drift verdict the
        surviving trials produced is discarded.  Each test only runs on designs where
        its inference is sound (:meth:`_design_gates`): the drift guard
        needs every draw to see a real fraction of its tables, coverage
        needs enough rows (or blocks, for block designs) behind σ̂.
        Coverage uses the distribution-free Chebyshev form, since
        intervals built from a tail-blind σ̂ legitimately under-cover
        at small sample sizes — a property of variance estimation, not
        an estimator bug.
        """
        query = parse(statement)
        if (
            query.group_by
            or query.budget is not None
            or not _is_sampled(query)
        ):
            return []
        drift_ok, coverage_ok = self._design_gates(query)
        if not (drift_ok or coverage_ok):
            return []  # no sound statistical test for this design
        try:
            truth = _table_fingerprint(
                self.db.sql_exact(oracle_statement(statement)), ()
            )
        except ReproError:
            return []  # check_oracle owns reporting execution problems
        coverage = {
            alias: BernoulliSPRT(COVERAGE_P_PASS, COVERAGE_P_FAIL)
            for alias in truth
        } if coverage_ok else {}
        drift = {
            alias: SequentialBiasGuard(min_n=DRIFT_MIN_N) for alias in truth
        } if drift_ok else {}
        refused = 0
        for trial in range(MAX_TRIALS):
            if all(
                test.decision != "undecided"
                for tests in (coverage, drift)
                for test in tests.values()
            ):
                break
            trial_stmt = reseeded_statement(statement, trial)
            try:
                result = self.db.sql(
                    trial_stmt, seed=seed + 7919 * (trial + 1)
                )
            except EstimationError:
                refused += 1
                continue  # refused trial (e.g. empty sample): no evidence
            except ReproError as exc:
                return [
                    CheckFailure(
                        "statistical",
                        statement,
                        seed,
                        f"trial {trial} execution error: {exc}",
                    )
                ]
            for alias, expected in truth.items():
                if math.isnan(expected):
                    continue
                est = result.estimates[alias]
                if drift_ok:
                    drift[alias].observe(est.value - expected)
                # Subset-sum (version-difference) estimates report how
                # many sampled keys actually changed: the netted g is 0
                # everywhere else, so only those keys inform σ̂ and the
                # effective sample size is their count, not n_sample.
                n_effective = min(
                    est.extras.get("nonzero", est.n_sample),
                    _kish_rows(result, alias),
                )
                if not coverage_ok or n_effective < COVERAGE_MIN_ROWS:
                    # The a-priori gate sees per-table draw sizes only;
                    # join and predicate selectivity can shrink the
                    # *surviving* sample back into the tail-blind-σ̂
                    # regime (50 WOR rows joined to a 3-row dimension
                    # leave ~10), and so can a few rows carrying the
                    # sum, so the observed sample gates each trial.
                    continue
                ci = est.ci(0.95, method="chebyshev")
                if not (math.isfinite(ci.lo) and math.isfinite(ci.hi)):
                    continue
                coverage[alias].observe(ci.lo <= expected <= ci.hi)
        failures = []
        for alias, test in coverage.items():
            if test.decision == "reject":
                failures.append(
                    CheckFailure(
                        "statistical",
                        statement,
                        seed,
                        f"CI coverage for {alias!r} rejected by SPRT: "
                        f"{test.hits}/{test.n} hits (LLR {test.llr:.2f})",
                    )
                )
        for alias, guard in drift.items():
            if refused:
                # Refused trials (an AVG over an empty draw raises)
                # were dropped, conditioning the surviving trials on a
                # non-empty sample — and conditional on non-emptiness
                # even a perfectly unbiased HT estimator reads high (on
                # a 3-row table at a 25 % rate the conditional mean of
                # ``COUNT(*)/p`` is 5.2, not 3).  No sound drift
                # verdict exists for this statement; abstain.
                break
            if guard.decision == "reject":
                v = guard.verdict()
                failures.append(
                    CheckFailure(
                        "statistical",
                        statement,
                        seed,
                        f"mean error for {alias!r} drifts from 0: "
                        f"self-normalized t = {v.statistic:.2f} after "
                        f"{v.n} trials",
                    )
                )
        return failures


def _kish_rows(result, alias: str) -> float:
    """Kish effective size of one aggregate's input over the kept sample.

    ``(Σ|f|)² / Σf²`` counts the rows that actually inform σ̂: n for a
    constant ``f``, ~1 when one row carries the sum, 0 for an all-zero
    draw.  An AVG is gauged by its numerator.  Results without a kept
    sample (version differences gate on ``extras["nonzero"]``) are not
    constrained.
    """
    sample = getattr(result, "sample", None)
    if sample is None:
        return math.inf
    spec = next(s for s in result.plan.specs if s.alias == alias)
    if spec.kind == "avg":
        f = np.asarray(spec.expr.eval(sample), dtype=np.float64)
    else:
        f = aggregate_input_vector(sample, spec)
    squares = float(np.sum(f * f))
    return float(np.sum(np.abs(f))) ** 2 / squares if squares > 0.0 else 0.0


def check_statement(
    ctx: CheckContext,
    statement: str,
    seed: int,
    *,
    statistical: bool = False,
) -> list[CheckFailure]:
    """Run every eligible check; empty list = statement survived."""
    failures = ctx.check_roundtrip(statement, seed)
    if failures:
        return failures  # nothing downstream is meaningful
    failures.extend(ctx.check_oracle(statement, seed))
    failures.extend(ctx.check_determinism(statement, seed))
    failures.extend(ctx.check_reuse(statement, seed))
    if statistical:
        failures.extend(ctx.check_statistical(statement, seed))
    return failures

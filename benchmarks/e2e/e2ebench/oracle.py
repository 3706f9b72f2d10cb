"""Answers, exact answers, and the rules that decide an operation failed.

An answer is flattened to ``{(group, alias): (estimate, half_width)}``
with ``half_width`` the 95 % interval's, whatever the front door: result
objects for ad hoc calls, the wire payload's ``values`` plus the
``[lo, hi]`` the response text prints for served ones.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

LEVEL = 0.95
_Z95 = 1.959963984540054

#: How far an estimate may lie from the exact answer, in 95 % half-widths,
#: before the operation counts as failed: 5 estimated sigma for result
#: objects, 3 half-widths for served text (whose bounds carry 6 digits).
ADHOC_TOLERANCE = 5.0 / _Z95
SERVED_TOLERANCE = 3.0

#: Slack on budget checks of served answers (interval bounds are printed
#: with 6 significant digits).
_TEXT_SLACK = 1.01

_INTERVAL = re.compile(
    r"^(\w+) = (\S+)\s+\[(\S+), (\S+)\] @", re.MULTILINE
)

Answer = dict[tuple[tuple, str], tuple[float, float]]


def answer_of(result) -> Answer:
    """Flatten an engine result object (scalar, grouped, budget, diff)."""
    inner = getattr(result, "result", result)  # OptimizedResult wraps one
    out: Answer = {}
    keys = getattr(inner, "keys", None)
    if isinstance(keys, dict):  # grouped
        groups = list(zip(*(col.tolist() for col in keys.values())))
        for alias, est in inner.estimates.items():
            lo, hi = est.ci_bounds(LEVEL)
            half = ((hi - lo) / 2.0).tolist()
            for group, value, hw in zip(groups, est.values.tolist(), half):
                out[(group, alias)] = (value, hw)
        return out
    for alias, est in inner.estimates.items():
        ci = est.ci(LEVEL)
        out[((), alias)] = (float(est.value), (ci.hi - ci.lo) / 2.0)
    return out


def answer_of_payload(payload: dict) -> Answer:
    """Flatten a terminal wire payload (ungrouped statements only)."""
    values = payload.get("values") or {}
    out: Answer = {}
    for alias, _value, lo, hi in _INTERVAL.findall(payload.get("text", "")):
        if alias in values:
            out[((), alias)] = (
                float(values[alias]), (float(hi) - float(lo)) / 2.0
            )
    return out


def exact_of(table) -> dict[tuple[tuple, str], float]:
    """Flatten ``Database.sql_exact``'s table the same way.

    Columns that are not float aggregates are the GROUP BY keys.
    """
    names = list(table.schema.names)
    columns = {n: table.column(n).tolist() for n in names}
    key_names = [n for n in names if table.column(n).dtype.kind in "OUS"]
    out = {}
    for row in range(table.n_rows):
        group = tuple(columns[k][row] for k in key_names)
        for n in names:
            if n not in key_names:
                out[(group, n)] = float(columns[n][row])
    return out


@dataclass
class Verdict:
    """Failure accounting of one run.

    Coverage weighs operations, not intervals: a Q1-style answer holds
    twelve intervals cut from one sample, and counting each would let
    twenty grouped requests outvote the other eighty.  ``covered`` sums,
    over the ``distinct`` independent operations judged, the share of
    the operation's intervals that contain the exact answer.  Only
    answers computed from a fresh draw are independent: everything the
    catalog serves from one stored sample errs together with that
    sample, so its hit rate says how lucky the stored draw was, not how
    well intervals are calibrated (it is still reported, as
    ``covered_reused`` of ``reused``).
    """

    attempted: int = 0
    failed: int = 0
    covered: float = 0.0
    distinct: int = 0
    covered_reused: float = 0.0
    reused: int = 0
    rel_halfwidths: list[float] = field(default_factory=list)
    z_scores: list[float] = field(default_factory=list)
    reasons: dict[str, int] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def coverage(self) -> float:
        return self.covered / self.distinct if self.distinct else 1.0

    @property
    def coverage_floor(self) -> float:
        """Below this the run is invalid.

        0.90, unless so few distinct operations were judged that a
        well-calibrated engine would dip under 0.90 by chance: then six
        binomial standard errors under the nominal 0.95.
        """
        if not self.distinct:
            return 0.0
        sigma = math.sqrt(LEVEL * (1.0 - LEVEL) / self.distinct)
        return min(0.90, LEVEL - 6.0 * sigma)


def judge(
    verdict: Verdict,
    *,
    error: str | None,
    answer: Answer,
    exact: dict | None,
    tolerance: float,
    budget: float | None = None,
    from_text: bool = False,
    replay: bool = False,
    fresh_draw: bool = True,
) -> None:
    """Count one operation; see the failure rules in README.md.

    ``replay`` marks an operation already judged in an earlier round
    (ad hoc rounds replay one stream): it is checked again but adds
    nothing to the coverage and interval-width statistics.
    ``fresh_draw`` is false for answers served from stored samples or
    caches.
    """
    verdict.attempted += 1
    if error is not None:
        verdict.fail(error)
        return
    if not answer:
        verdict.fail("no-interval")
        return
    reason = None
    inside = judged = 0
    for cell, (value, half) in answer.items():
        if not (math.isfinite(value) and math.isfinite(half)):
            reason = reason or "non-finite"
            continue
        truth = exact.get(cell) if exact is not None else None
        if truth is None:
            reason = reason or "no-exact-answer"
            continue
        judged += 1
        inside += abs(value - truth) <= half
        if not replay:
            if value != 0.0:
                verdict.rel_halfwidths.append(half / abs(value))
            if half > 0.0:
                verdict.z_scores.append((value - truth) / half * _Z95)
        if abs(value - truth) > tolerance * half:
            reason = reason or "off-oracle"
        if budget is not None and value != 0.0:
            slack = _TEXT_SLACK if from_text else 1.0 + 1e-12
            if half / abs(value) > budget * slack:
                reason = reason or "over-budget"
    if judged and not replay:
        if fresh_draw:
            verdict.distinct += 1
            verdict.covered += inside / judged
        else:
            verdict.reused += 1
            verdict.covered_reused += inside / judged
    if reason is not None:
        verdict.fail(reason)

"""Admission control: shed accuracy before shedding requests.

The policy engine is the paper's Section 8 load shedder
(:class:`~repro.apps.load_shedding.LoadShedder`): the keep-rate for a
window of arrivals is ``capacity / arrivals`` (clamped below).  Here
the "tuples" are requests and the shedder's rate is reinterpreted the
way the sampling algebra invites — instead of dropping a fraction of
*queries*, degrade each admitted query to a fraction of its *data*:

* below capacity → **admit** unchanged;
* over capacity with queue room → **degrade**: rewrite the statement's
  ``TABLESAMPLE`` fractions down by the shed rate and widen its
  ``WITHIN`` budget by the same factor, so the query costs roughly
  ``rate`` of its original work but still returns a statistically valid
  (wider) interval.  A statement with nothing to degrade is admitted
  as-is;
* queue full → **reject**: the request's terminal response is an
  error payload with code ``rejected`` (HTTP answers it with 503), the
  only outright shed.

The rewrite is a pure AST transformation round-tripped through
:func:`~repro.sql.printer.query_to_sql`, so a degraded statement is a
first-class statement: cacheable, catalog-matchable (lower rates thin
out of stored synopses), and bit-reproducible.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace

from repro.apps.load_shedding import LoadShedder
from repro.errors import SQLError

#: Never degrade a statement's sampling below this fraction of its
#: requested rates — past that the answer is noise, not an estimate.
MIN_RATE = 0.25

#: Ceiling for a widened ``WITHIN`` budget: the grammar requires the
#: percentage to stay strictly below 100, and an interval wider than
#: this is vacuous anyway.  Widening saturates here instead of
#: producing unparseable statements.
MAX_BUDGET_PERCENT = 95.0

#: How many recently issued degraded statement texts the controller
#: remembers so a degraded statement that loops back through admission
#: is admitted unchanged instead of being degraded again.
DEGRADED_MEMORY = 256

#: Arrival window the capacity is measured against (seconds).
WINDOW_SECONDS = 1.0


@dataclass(frozen=True)
class AdmissionDecision:
    """What the controller decided for one arriving request.

    ``statement`` is the (possibly rewritten) text to execute; ``rate``
    the data fraction it was degraded to (1.0 = untouched).
    """

    action: str  # 'admit' | 'degrade' | 'reject'
    statement: str
    rate: float = 1.0
    reason: str = ""

    @property
    def admitted(self) -> bool:
        return self.action != "reject"


def degrade_statement(statement: str, rate: float) -> str | None:
    """Rewrite a statement to ``rate`` of its sampled data, or ``None``.

    Scales every ``TABLESAMPLE`` percent/rows amount by ``rate`` and
    widens any ``WITHIN p %`` budget to ``p / rate`` (half-width scales
    like ``1/√n``, so ``1/rate`` is a conservative widening), saturating
    at :data:`MAX_BUDGET_PERCENT` so the result always re-parses and a
    budget already at the cap is never widened (or narrowed) further.
    Returns ``None`` when the statement has no degradable clause —
    unparsable text also returns ``None`` so the engine proper reports
    the error.
    """
    from repro.sql.parser import parse
    from repro.sql.printer import query_to_sql

    try:
        query = parse(statement)
    except SQLError:
        return None
    changed = False
    tables = []
    for ref in query.tables:
        sample = ref.sample
        if sample is not None and sample.kind in (
            "percent",
            "system_percent",
        ):
            sample = replace(sample, amount=sample.amount * rate)
            changed = True
        elif sample is not None and sample.kind == "rows":
            sample = replace(
                sample, amount=max(1.0, round(sample.amount * rate))
            )
            changed = True
        tables.append(replace(ref, sample=sample))
    budget = query.budget
    if budget is not None:
        widened = min(budget.percent / rate, MAX_BUDGET_PERCENT)
        if widened > budget.percent:
            budget = replace(budget, percent=widened)
            changed = True
    if not changed:
        return None
    return query_to_sql(
        replace(query, tables=tuple(tables), budget=budget)
    )


class AdmissionController:
    """Thread-safe request gate in front of the engine thread.

    ``capacity`` is the sustainable requests per
    :data:`WINDOW_SECONDS`; ``queue_limit`` bounds how many admitted
    requests may be waiting for the engine before arrivals are rejected
    outright.  A degraded statement keeps at least :data:`MIN_RATE` of
    its requested data.  ``clock`` lets a test drive the window.
    Callers bracket execution with :meth:`decide` / :meth:`release` so
    the controller tracks queue depth; a shed request never holds a
    slot.  ``decisions`` counts arrivals by action.
    """

    def __init__(
        self,
        capacity: float = 16.0,
        queue_limit: int = 32,
        *,
        clock=time.monotonic,
    ) -> None:
        self.shedder = LoadShedder(capacity, min_rate=MIN_RATE)
        self.queue_limit = int(queue_limit)
        self._clock = clock
        self._lock = threading.Lock()
        self._window_start = clock()
        self._window_arrivals = 0
        self._queued = 0
        #: Recently issued degraded texts (LRU): a degraded statement
        #: that comes back through admission — retries, progressive
        #: refinement re-submission — is admitted unchanged rather than
        #: compounding another round of degradation on top.
        self._degraded_texts: OrderedDict[str, None] = OrderedDict()
        #: Totals by action (the benchmark reads them).
        self.decisions: dict[str, int] = {
            "admit": 0,
            "degrade": 0,
            "reject": 0,
        }

    def _remember_degraded(self, text: str) -> None:
        self._degraded_texts[text] = None
        self._degraded_texts.move_to_end(text)
        while len(self._degraded_texts) > DEGRADED_MEMORY:
            self._degraded_texts.popitem(last=False)

    def _arrive(self) -> int:
        now = self._clock()
        if now - self._window_start >= WINDOW_SECONDS:
            self._window_start = now
            self._window_arrivals = 0
        self._window_arrivals += 1
        return self._window_arrivals

    def decide(self, statement: str) -> AdmissionDecision:
        """Admit, degrade, or reject one arriving statement."""
        with self._lock:
            arrivals = self._arrive()
            if self._queued >= self.queue_limit:
                self.decisions["reject"] += 1
                return AdmissionDecision(
                    "reject",
                    statement,
                    rate=0.0,
                    reason=(
                        f"queue full ({self._queued}/{self.queue_limit})"
                    ),
                )
            rate = self.shedder.rate_for(arrivals)
            if rate < 1.0 and statement not in self._degraded_texts:
                rewritten = degrade_statement(statement, rate)
                if rewritten is not None:
                    self._remember_degraded(rewritten)
                    self.decisions["degrade"] += 1
                    self._queued += 1
                    return AdmissionDecision(
                        "degrade",
                        rewritten,
                        rate=rate,
                        reason=(
                            f"overload: {arrivals} arrivals in window, "
                            f"degraded to {rate:.0%} of requested data"
                        ),
                    )
            self.decisions["admit"] += 1
            self._queued += 1
            return AdmissionDecision("admit", statement)

    def release(self) -> None:
        """An admitted request left the queue (finished or aborted)."""
        with self._lock:
            self._queued = max(0, self._queued - 1)

    @property
    def queued(self) -> int:
        with self._lock:
            return self._queued

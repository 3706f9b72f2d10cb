"""The paper's Section 8 applications, built on the core algebra.

* :mod:`repro.apps.robustness`    — "database as a sample": sensitivity
  of query results to random tuple loss;
* :mod:`repro.apps.advisor`       — predict the variance of alternative
  sampling strategies from one observed sample;
* :mod:`repro.apps.load_shedding` — stream load shedding with
  error-aware sampling rates, including the multi-stream join case the
  paper highlights as newly analysable.

Section 8's cardinality estimate needs no module of its own: a sampled
``COUNT(*)`` through :meth:`repro.relational.database.Database.estimate`
is the intermediate-result size, and its ``ci`` is Theorem 1's interval.
"""

from repro.apps.advisor import (
    AdvisorReport,
    StrategyOutcome,
    advise,
)
from repro.apps.load_shedding import (
    LoadShedder,
    StreamJoinShedder,
    combine_independent,
)
from repro.apps.robustness import RobustnessReport, robustness_report

__all__ = [
    "robustness_report",
    "RobustnessReport",
    "advise",
    "AdvisorReport",
    "StrategyOutcome",
    "LoadShedder",
    "StreamJoinShedder",
    "combine_independent",
]

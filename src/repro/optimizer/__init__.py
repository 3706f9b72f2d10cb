"""Cost-based sampling-plan optimizer (error-budget queries).

The subsystem that turns an accuracy target into the cheapest sampling
plan that meets it, built on the paper's central observation that one
pilot execution prices *every* candidate sampling design:

* :mod:`repro.optimizer.budget` — the ``WITHIN p % CONFIDENCE c``
  accuracy contract;
* :mod:`repro.optimizer.candidates` — SOA-equivalent plan variants
  (sampling families × rate ladder × join orders);
* :mod:`repro.optimizer.cost` — cardinality cost model at fixed
  per-row constants;
* :mod:`repro.optimizer.predictor` — pilot-sample variance prediction
  (shared with the Section 8 advisor);
* :mod:`repro.optimizer.chooser` — the optimizer proper, with the
  adaptive rate-escalation loop.
"""

from repro.optimizer.budget import ErrorBudget
from repro.optimizer.candidates import (
    Assignment,
    PlanCandidate,
    QuerySkeleton,
    decompose,
    enumerate_assignments,
    escalate_methods,
    join_orders,
    max_rate,
    reusable_methods,
)
from repro.optimizer.cost import CostEstimate, CostModel
from repro.optimizer.predictor import (
    VariancePredictor,
    combined_gus,
    pilot_moments,
)
from repro.optimizer.chooser import (
    AttemptRecord,
    OptimizedResult,
    OptimizerReport,
    SamplingPlanOptimizer,
    ScoredCandidate,
)

__all__ = [
    "Assignment",
    "ErrorBudget",
    "PlanCandidate",
    "QuerySkeleton",
    "decompose",
    "enumerate_assignments",
    "escalate_methods",
    "join_orders",
    "max_rate",
    "reusable_methods",
    "CostEstimate",
    "CostModel",
    "VariancePredictor",
    "combined_gus",
    "pilot_moments",
    "AttemptRecord",
    "OptimizedResult",
    "OptimizerReport",
    "SamplingPlanOptimizer",
    "ScoredCandidate",
]

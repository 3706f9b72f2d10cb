"""Sampling operators: the executable side of ``TABLESAMPLE``.

Each method implements two duties:

* **execution** — draw the kept positions of a base table, block by
  block (plus their lineage ids under the method's sampling unit, which
  is what makes block sampling analysable), and
* **analysis** — report its GUS parameters ``G(a, b̄)`` so the rewriter
  can fold it into the plan's single top quasi-operator.

With-replacement sampling is provided for the online-aggregation-style
baseline but deliberately refuses GUS conversion: it is not a filter
(paper, Section 9).
"""

from repro.sampling.base import SamplingMethod
from repro.sampling.bernoulli import Bernoulli
from repro.sampling.block import BlockBernoulli, BlockWithoutReplacement
from repro.sampling.composed import BiDimensionalBernoulli
from repro.sampling.coordinated import CoordinatedBernoulli, coordination_seed
from repro.sampling.pseudorandom import LineageHashBernoulli, hash01
from repro.sampling.registry import (
    FamilySpec,
    family,
    family_names,
    make_family_method,
    register_family,
    relation_seed,
    sql_sample_tags,
)
from repro.sampling.with_replacement import WithReplacement
from repro.sampling.without_replacement import WithoutReplacement

__all__ = [
    "SamplingMethod",
    "Bernoulli",
    "WithoutReplacement",
    "WithReplacement",
    "BlockBernoulli",
    "BlockWithoutReplacement",
    "CoordinatedBernoulli",
    "LineageHashBernoulli",
    "BiDimensionalBernoulli",
    "FamilySpec",
    "coordination_seed",
    "family",
    "family_names",
    "hash01",
    "make_family_method",
    "register_family",
    "relation_seed",
    "sql_sample_tags",
]

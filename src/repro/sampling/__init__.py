"""Sampling operators: the executable side of ``TABLESAMPLE``.

Each method implements two duties:

* **execution** — draw the kept positions of a base table, block by
  block (plus their lineage ids under the method's sampling unit, which
  is what makes block sampling analysable), and
* **analysis** — report its GUS parameters ``G(a, b̄)`` so the rewriter
  can fold it into the plan's single top quasi-operator.

Sampling with replacement has no method here: it is not a randomized
filter and has no GUS (paper, Section 9).

The methods are a fixed set, and this package imports no layer above
it: the optimizer instantiates them through its family table
(:data:`repro.optimizer.candidates.FAMILIES`) and the fuzzer spells
them through its ``TABLESAMPLE`` clause forms
(:data:`repro.fuzz.generator.SAMPLE_TAG_WEIGHTS`).
"""

from repro.sampling.base import SamplingMethod
from repro.sampling.bernoulli import Bernoulli
from repro.sampling.block import BlockBernoulli, BlockWithoutReplacement
from repro.sampling.composed import BiDimensionalBernoulli
from repro.sampling.coordinated import CoordinatedBernoulli, coordination_seed
from repro.sampling.pseudorandom import LineageHashBernoulli, hash01
from repro.sampling.without_replacement import WithoutReplacement

__all__ = [
    "SamplingMethod",
    "Bernoulli",
    "WithoutReplacement",
    "BlockBernoulli",
    "BlockWithoutReplacement",
    "CoordinatedBernoulli",
    "LineageHashBernoulli",
    "BiDimensionalBernoulli",
    "coordination_seed",
    "hash01",
]

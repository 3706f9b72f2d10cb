"""Random-query differential fuzzing with sequential acceptance.

The fuzzer generates seeded random queries over the full SQL surface
(joins × sampling families/rates/seeds × GROUP BY/HAVING × ``WITHIN``
budgets × snapshot pins and coordinated version differences × catalog
reuse), checks each one three ways — exact-executor oracle,
one-chunk/many-chunk/storage-backend determinism, and
statistical unbiasedness + CI coverage via a sequential
probability-ratio test — and greedily shrinks any failure to a minimal
statement + seed with a ready-to-paste regression test.

Entry points: :func:`run_fuzz` (library / ``repro fuzz`` CLI) and
:func:`check_statement` (one statement, all checks — what regression
tests call).
"""

from repro.fuzz.checker import (
    CheckContext,
    CheckFailure,
    check_statement,
    oracle_statement,
)
from repro.fuzz.generator import (
    QueryGenerator,
    build_fuzz_tables,
    install_fuzz_versions,
)
from repro.fuzz.runner import FuzzReport, run_fuzz
from repro.fuzz.shrink import ReproCase, shrink_failure

__all__ = [
    "CheckContext",
    "CheckFailure",
    "FuzzReport",
    "QueryGenerator",
    "ReproCase",
    "build_fuzz_tables",
    "check_statement",
    "install_fuzz_versions",
    "oracle_statement",
    "run_fuzz",
    "shrink_failure",
]

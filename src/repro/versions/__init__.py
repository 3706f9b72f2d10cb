"""Table snapshots and coordinated cross-version estimation.

This package is the time-travel layer on top of the relational core:

* :mod:`repro.versions.snapshots` — version naming and the per-base
  snapshot registry behind ``Database.snapshot`` /
  ``Database.update_table`` / ``db.table(name, version=n)``;
* :mod:`repro.versions.plan` — the :class:`VersionDiff` plan node
  produced by the SQL planner for
  ``FROM t AT VERSION 2 MINUS AT VERSION 1`` change aggregates;
* :mod:`repro.versions.engine` — the coordinated difference estimator
  driver (per-side sampled scans through the SBox, so every side is
  served from the synopsis catalog keyed by ``(table, version)``, then
  the subset-sum estimators of :mod:`repro.core.estimator` over the
  matched per-key deltas).

Snapshots are copy-on-write: a snapshot shares every column array (or
every colstore column file, for mmap tables) with the table it froze,
so taking one is O(1) in data volume.  Coordination keys are the row
lineage ids, which update/append mutations in the style of
:meth:`~repro.relational.table.Table.with_columns` keep stable.

The estimation-side names are imported lazily so that the relational
core (``Database`` imports :mod:`repro.versions.snapshots`) never pays
for — or cyclically depends on — the SBox stack.
"""

from repro.versions.snapshots import (
    SnapshotRegistry,
    base_name,
    split_versioned_name,
    versioned_name,
)

__all__ = [
    "GroupedVersionDiffResult",
    "SnapshotRegistry",
    "VersionDiff",
    "VersionDiffResult",
    "base_name",
    "estimate_version_diff",
    "exact_version_diff",
    "split_versioned_name",
    "versioned_name",
]

_LAZY = {
    "VersionDiff": "repro.versions.plan",
    "GroupedVersionDiffResult": "repro.versions.engine",
    "VersionDiffResult": "repro.versions.engine",
    "estimate_version_diff": "repro.versions.engine",
    "exact_version_diff": "repro.versions.engine",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

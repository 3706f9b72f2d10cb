"""Plan cost model: cardinalities times fixed per-row constants.

Candidates are compared on a simple but honest model of this engine's
executor: every base table is scanned in full (Bernoulli/WOR filters
still read every row), every intermediate row costs one unit of
row-processing work, and joins pay for both inputs plus the output
they materialize.  Cardinalities flow bottom-up — sampling scales rows
by the method's first-order inclusion probability ``a``, equi-joins use
the classic ``|L|·|R| / max(ndv(k_L), ndv(k_R))`` uniform-containment
estimate with distinct counts measured on the actual base tables, per
join key, on first use (:class:`ColumnNdv`): a key resolves to the
table its side of the join scans, so a snapshot never prices the live
table or the other way round.

Two fixed constants turn row counts into predicted seconds: the per-row
cost of a scan/filter pass and of a join.  Nothing is timed, so a
candidate's cost — and with it the plan a ``WITHIN`` statement picks —
is a function of the data and the statement alone, the same on every
machine and every storage backend.  :meth:`CostModel.calibrate` builds
a catalog's model: table sizes now, join-key distinct counts on first
use.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from repro.errors import PlanError
from repro.relational import plan as p
from repro.relational.table import Table
from repro.versions.snapshots import VERSION_SEP

#: Predicted seconds per row of a scan or filter pass.
SCAN_SECONDS_PER_ROW = 5e-9

#: Predicted seconds per row a join touches (both inputs and output).
JOIN_SECONDS_PER_ROW = 3e-8

#: Selectivity charged per residual (non-join) predicate.
SELECTIVITY = 1.0 / 3.0


@dataclass(frozen=True)
class CostEstimate:
    """Predicted work for one candidate plan."""

    rows_scanned: float
    rows_joined: float
    seconds: float

    @property
    def rows_total(self) -> float:
        return self.rows_scanned + self.rows_joined


def distinct_count(table: Table, column: str) -> int:
    """Distinct values of a column; a string column counts the codes
    present in its dictionary encoding (``None`` is one value)."""
    pair = table.columns.encoded(column)
    if pair is None:
        return int(np.unique(np.asarray(table.columns[column])).size)
    return int(np.count_nonzero(np.bincount(pair[0])))


class ColumnNdv(Mapping[str, int]):
    """Distinct-value counts of base-table columns, measured on first use.

    ``ndv[column]`` counts the column of the live table holding it (a
    ``name@vN`` snapshot only when no live table does); :meth:`of`
    counts one named table's.  Each count is kept.
    """

    def __init__(self, tables: Mapping[str, Table]) -> None:
        self._tables = dict(
            sorted(tables.items(), key=lambda item: VERSION_SEP in item[0])
        )
        self._counts: dict[tuple[str, str], int] = {}

    def of(self, table: str, column: str) -> int:
        key = (table, column)
        if key not in self._counts:
            self._counts[key] = distinct_count(self._tables[table], column)
        return self._counts[key]

    def owner(self, column: str, tables: Iterable[str]) -> str | None:
        """The first of ``tables`` that holds ``column``."""
        for name in tables:
            if name in self._tables and column in self._tables[name].columns:
                return name
        return None

    def __getitem__(self, column: str) -> int:
        table = self.owner(column, self._tables)
        if table is None:
            raise KeyError(column)
        return self.of(table, column)

    def __contains__(self, column: object) -> bool:
        return self.owner(column, self._tables) is not None

    def __iter__(self) -> Iterator[str]:
        return iter(
            dict.fromkeys(c for t in self._tables.values() for c in t.columns)
        )

    def __len__(self) -> int:
        return sum(1 for _ in self)


class CostModel:
    """Cardinality estimates priced at fixed per-row constants."""

    def __init__(
        self, table_sizes: Mapping[str, int], column_ndv: Mapping[str, int]
    ) -> None:
        self.table_sizes = dict(table_sizes)
        self.column_ndv = column_ndv  # not copied: a ColumnNdv is lazy

    @classmethod
    def calibrate(cls, tables: Mapping[str, Table]) -> "CostModel":
        """The model of a catalog: its table sizes, read now, and its
        join-key distinct counts, measured when a plan first asks.

        No column is read here.
        """
        return cls(
            {name: t.n_rows for name, t in tables.items()}, ColumnNdv(tables)
        )

    # -- estimation ------------------------------------------------------

    def estimate(
        self, plan: p.PlanNode, rates: Mapping[str, float] | None = None
    ) -> CostEstimate:
        """Walk the plan bottom-up, accumulating predicted work.

        ``rates`` (relation → first-order inclusion rate ``a``) prices
        each ``TableSample`` of a named relation at that rate instead of
        its own method's, so one plan per join order prices every
        method assignment over it; take the rates at
        ``self.table_sizes``, as the walk does.
        """
        state = {"scanned": 0.0, "joined": 0.0}
        self._rows(plan, state, rates or {})
        seconds = (
            state["scanned"] * SCAN_SECONDS_PER_ROW
            + state["joined"] * JOIN_SECONDS_PER_ROW
        )
        return CostEstimate(state["scanned"], state["joined"], seconds)

    def reuse_estimate(self, stored_rows: float) -> CostEstimate:
        """Cost of serving a query from a stored synopsis.

        Reuse pays one vectorized pass over the stored sample (residual
        predicate masks and/or lineage-hash thinning) — no base-table
        scan, no join.  This is what makes cached candidates
        near-zero-cost in the plan ranking.
        """
        rows = max(0.0, float(stored_rows))
        return CostEstimate(
            rows_scanned=rows,
            rows_joined=0.0,
            seconds=rows * SCAN_SECONDS_PER_ROW,
        )

    def _rows(
        self,
        node: p.PlanNode,
        state: dict[str, float],
        rates: Mapping[str, float],
    ) -> float:
        if isinstance(node, p.Scan):
            n = float(self.table_sizes.get(node.table_name, 0))
            state["scanned"] += n
            return n
        if isinstance(node, p.TableSample):
            n = self._rows(node.child, state, rates)
            name = node.child.table_name
            a = rates.get(name)
            if a is None:
                a = node.method.gus(name, self.table_sizes.get(name, 0)).a
            state["scanned"] += n  # the filter pass touches every row
            return n * a
        if isinstance(node, p.LineageSample):
            n = self._rows(node.child, state, rates)
            state["scanned"] += n
            return n * node.sampler.gus().a
        if isinstance(node, p.Select):
            n = self._rows(node.child, state, rates)
            state["scanned"] += n
            return n * SELECTIVITY
        if isinstance(node, p.Project):
            n = self._rows(node.child, state, rates)
            state["scanned"] += n
            return n
        if isinstance(node, p.Aggregate):
            n = self._rows(node.child, state, rates)
            state["scanned"] += n
            return 1.0
        if isinstance(node, p.Join):
            left = self._rows(node.left, state, rates)
            right = self._rows(node.right, state, rates)
            out = left * right / max(
                1.0,
                *(self._ndv(node.left, k) for k in node.left_keys),
                *(self._ndv(node.right, k) for k in node.right_keys),
            )
            state["joined"] += left + right + out
            return out
        if isinstance(node, p.CrossProduct):
            left = self._rows(node.left, state, rates)
            right = self._rows(node.right, state, rates)
            out = left * right
            state["joined"] += left + right + out
            return out
        if isinstance(node, (p.Union, p.Intersect)):
            left = self._rows(node.left, state, rates)
            right = self._rows(node.right, state, rates)
            state["joined"] += left + right
            return left + right if isinstance(node, p.Union) else min(left, right)
        raise PlanError(f"cost model cannot walk {type(node).__name__}")

    def _ndv(self, side: p.PlanNode, key: str) -> float:
        """ndv of ``key`` in the table ``side`` scans it from."""
        ndv = self.column_ndv
        if isinstance(ndv, ColumnNdv):
            scans = (
                n.table_name for n in p.walk(side) if isinstance(n, p.Scan)
            )
            table = ndv.owner(key, scans)
            if table is not None:
                return float(ndv.of(table, key))
        return float(ndv.get(key, 1))

"""Plan cost model, calibrated per database with micro-probes.

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

Two machine-specific constants turn row counts into predicted seconds:
the per-row cost of a vectorized scan/filter pass and of a sort-based
join probe.  Calibration times two micro-probes **once per database**
(:meth:`CostModel.calibrate`), so cost rankings reflect the hardware the
query will actually run on; it records table sizes and reads no column.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from repro.errors import PlanError
from repro.obs.metrics import REGISTRY
from repro.relational import plan as p
from repro.relational.executor import join_indices
from repro.relational.table import Table
from repro.versions.snapshots import VERSION_SEP

#: Rows used by each calibration micro-probe.
PROBE_ROWS = 65_536

#: Selectivity charged per residual (non-join) predicate.
DEFAULT_SELECTIVITY = 1.0 / 3.0


@dataclass(frozen=True)
class CostEstimate:
    """Predicted work for one candidate plan.

    ``build_rows_max`` is the largest join build input the plan
    materializes — one build shared by every probe task, so it bounds
    the resident build state at any chunking.
    """

    rows_scanned: float
    rows_joined: float
    seconds: float
    build_rows_max: float = 0.0

    @property
    def rows_total(self) -> float:
        return self.rows_scanned + self.rows_joined

    def describe(self) -> str:
        return (
            f"{self.rows_total:,.0f} rows "
            f"(~{self.seconds * 1e3:.2f} ms predicted)"
        )


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
    """Cardinality + calibrated-constant cost estimates for plans."""

    def __init__(
        self,
        table_sizes: Mapping[str, int],
        column_ndv: Mapping[str, int],
        *,
        scan_seconds_per_row: float = 5e-9,
        join_seconds_per_row: float = 3e-8,
        selectivity: float = DEFAULT_SELECTIVITY,
    ) -> None:
        self.table_sizes = dict(table_sizes)
        self.column_ndv = column_ndv  # not copied: a ColumnNdv is lazy
        self.scan_seconds_per_row = float(scan_seconds_per_row)
        self.join_seconds_per_row = float(join_seconds_per_row)
        self.selectivity = float(selectivity)

    # -- calibration -----------------------------------------------------

    @classmethod
    def calibrate(
        cls,
        tables: Mapping[str, Table],
        *,
        probe_rows: int = PROBE_ROWS,
        repeats: int = 3,
    ) -> "CostModel":
        """Measure per-row constants and record table sizes.

        The scan probe times a vectorized compare-and-filter pass; the
        join probe times :func:`~repro.relational.executor.join_indices`
        on foreign-key-shaped data.  Taking the best of ``repeats``
        keeps scheduler noise out of the constants.  No column is read:
        join-key distinct counts are measured when a plan first asks.
        """
        t_calibrate = time.perf_counter()
        values = np.linspace(0.0, 1.0, probe_rows)
        keys = np.arange(probe_rows, dtype=np.int64) % (probe_rows // 8)

        def best(fn) -> float:
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        scan_s = best(lambda: values[values > 0.5]) / probe_rows
        right = keys[: probe_rows // 4]
        join_s = best(lambda: join_indices(keys, right))
        # Charge the constant per touched row: both inputs plus the
        # output the probe actually emits (measured, not assumed — the
        # key repetition factor makes the output much larger than the
        # right side).
        out_rows = int(join_indices(keys, right)[0].size)
        join_rows = probe_rows + right.size + out_rows
        REGISTRY.gauge("repro_cost_scan_seconds_per_row").set(
            max(scan_s, 1e-12)
        )
        REGISTRY.gauge("repro_cost_join_seconds_per_row").set(
            max(join_s / join_rows, 1e-12)
        )
        REGISTRY.histogram(
            "repro_optimizer_seconds", stage="calibrate"
        ).observe(time.perf_counter() - t_calibrate)
        return cls(
            {name: t.n_rows for name, t in tables.items()},
            ColumnNdv(tables),
            scan_seconds_per_row=max(scan_s, 1e-12),
            join_seconds_per_row=max(join_s / join_rows, 1e-12),
        )

    # -- estimation ------------------------------------------------------

    def estimate(self, plan: p.PlanNode) -> CostEstimate:
        """Walk the plan bottom-up, accumulating predicted work."""
        state = {"scanned": 0.0, "joined": 0.0, "build_max": 0.0}
        self._rows(plan, state)
        seconds = (
            state["scanned"] * self.scan_seconds_per_row
            + state["joined"] * self.join_seconds_per_row
        )
        return CostEstimate(
            state["scanned"],
            state["joined"],
            seconds,
            build_rows_max=state["build_max"],
        )

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
            seconds=rows * self.scan_seconds_per_row,
        )

    def _rows(self, node: p.PlanNode, state: dict[str, float]) -> float:
        if isinstance(node, p.Scan):
            n = float(self.table_sizes.get(node.table_name, 0))
            state["scanned"] += n
            return n
        if isinstance(node, p.TableSample):
            n = self._rows(node.child, state)
            a = node.method.gus(
                node.child.table_name,
                self.table_sizes.get(node.child.table_name, 0),
            ).a
            state["scanned"] += n  # the filter pass touches every row
            return n * a
        if isinstance(node, p.LineageSample):
            n = self._rows(node.child, state)
            state["scanned"] += n
            return n * node.sampler.gus().a
        if isinstance(node, p.Select):
            n = self._rows(node.child, state)
            state["scanned"] += n
            return n * self.selectivity
        if isinstance(node, p.Project):
            n = self._rows(node.child, state)
            state["scanned"] += n
            return n
        if isinstance(node, p.Aggregate):
            n = self._rows(node.child, state)
            state["scanned"] += n
            return 1.0
        if isinstance(node, p.Join):
            left = self._rows(node.left, state)
            right = self._rows(node.right, state)
            out = left * right / max(
                1.0,
                *(self._ndv(node.left, k) for k in node.left_keys),
                *(self._ndv(node.right, k) for k in node.right_keys),
            )
            state["joined"] += left + right + out
            # The pipeline materializes the left side as its hash-
            # partitioned build; the probe side streams.
            state["build_max"] = max(state["build_max"], left)
            return out
        if isinstance(node, p.CrossProduct):
            left = self._rows(node.left, state)
            right = self._rows(node.right, state)
            out = left * right
            state["joined"] += left + right + out
            # Cross products stream the left side and hold the right.
            state["build_max"] = max(state["build_max"], right)
            return out
        if isinstance(node, (p.Union, p.Intersect)):
            left = self._rows(node.left, state)
            right = self._rows(node.right, state)
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

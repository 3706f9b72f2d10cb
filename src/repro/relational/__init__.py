"""A small columnar relational engine with lineage tracking.

This substrate provides what the paper assumes of its host database:
tables, selection/projection/join/set operators, SUM-like aggregates,
``TABLESAMPLE`` execution, and — crucially — *lineage*: every result row
carries the ids of the base-relation tuples it derives from, which is
the only extra information the SBox estimator needs (Section 6.2).

Storage is columnar over numpy arrays, so 10⁵–10⁶-row experiments run
in milliseconds without native code.
"""

from repro.relational.database import Database
from repro.relational.expressions import (
    BinOp,
    Col,
    Comparison,
    Expr,
    Lit,
    and_,
    col,
    lit,
)
from repro.relational.plan import (
    Aggregate,
    AggSpec,
    CrossProduct,
    GroupAggregate,
    GUSNode,
    Intersect,
    Join,
    LineageSample,
    PlanNode,
    Project,
    Scan,
    Select,
    TableSample,
    Union,
)
from repro.relational.schema import Column, ColumnType, Schema
from repro.relational.table import Table

__all__ = [
    "Database",
    "Table",
    "Schema",
    "Column",
    "ColumnType",
    "Expr",
    "Col",
    "Lit",
    "BinOp",
    "Comparison",
    "col",
    "lit",
    "and_",
    "PlanNode",
    "Scan",
    "Select",
    "Project",
    "Join",
    "CrossProduct",
    "Union",
    "Intersect",
    "TableSample",
    "LineageSample",
    "GUSNode",
    "Aggregate",
    "GroupAggregate",
    "AggSpec",
]

"""Schemas: typed, ordered column sets with unique names.

Column names are treated as globally meaningful (TPC-H style prefixes —
``l_orderkey``, ``o_orderkey`` — keep them unique across tables), which
lets expressions reference columns without alias resolution machinery.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import SchemaError


class ColumnType(enum.Enum):
    """The value domains the engine supports."""

    INT64 = "int64"
    FLOAT64 = "float64"
    BOOL = "bool"
    STRING = "string"

    @classmethod
    def from_dtype(cls, dtype: np.dtype) -> "ColumnType":
        """Map a numpy dtype to the closest engine type."""
        kind = np.dtype(dtype).kind
        if kind in "iu":
            return cls.INT64
        if kind == "f":
            return cls.FLOAT64
        if kind == "b":
            return cls.BOOL
        if kind in "UOS":
            return cls.STRING
        raise SchemaError(f"unsupported numpy dtype {dtype!r}")

    @property
    def numeric(self) -> bool:
        return self in (ColumnType.INT64, ColumnType.FLOAT64)


class Column:
    """A named, typed column."""

    __slots__ = ("name", "type")

    def __init__(self, name: str, type: ColumnType) -> None:
        if not name or not isinstance(name, str):
            raise SchemaError(f"invalid column name {name!r}")
        self.name = name
        self.type = type

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Column)
            and self.name == other.name
            and self.type == other.type
        )

    def __hash__(self) -> int:
        return hash((self.name, self.type))

    def __repr__(self) -> str:
        return f"Column({self.name!r}, {self.type.value})"


class Schema:
    """An ordered collection of uniquely-named columns."""

    __slots__ = ("columns", "_by_name")

    def __init__(self, columns: Iterable[Column]) -> None:
        cols = tuple(columns)
        names = [c.name for c in cols]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise SchemaError(f"duplicate column names {sorted(dupes)}")
        self.columns = cols
        self._by_name = {c.name: c for c in cols}

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r}; available: {list(self.names)}"
            ) from None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __repr__(self) -> str:
        inner = ", ".join(f"{c.name}: {c.type.value}" for c in self.columns)
        return f"Schema({inner})"

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join/cross product; names must stay unique."""
        return Schema(self.columns + other.columns)

    def project(self, names: Iterable[str]) -> "Schema":
        """Schema restricted to the given columns, in the given order."""
        return Schema(self[name] for name in names)

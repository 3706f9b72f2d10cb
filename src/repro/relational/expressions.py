"""Scalar and boolean expressions, evaluated column-at-a-time.

Expressions form the ``f`` in the paper's SUM-like aggregates
``A_f(S) = Σ_{t∈S} f(t)`` as well as selection predicates.  They are
immutable trees supporting Python operator overloading::

    revenue = col("l_discount") * (lit(1.0) - col("l_tax"))
    pred = (col("l_extendedprice") > 100.0) & (col("l_tax") <= 0.05)

Every expression exposes a structural ``key()`` used for plan
fingerprinting (the rewriter must recognise "the same expression" to
apply the union/intersection rules).
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.errors import SchemaError
from repro.relational.table import Table

_ARITH: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

_COMPARE: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Expr:
    """Base expression node."""

    def eval(self, table: Table) -> np.ndarray:
        raise NotImplementedError

    def columns_used(self) -> frozenset[str]:
        raise NotImplementedError

    def key(self) -> tuple:
        """Structural identity for fingerprinting."""
        raise NotImplementedError

    # -- operator sugar ----------------------------------------------------

    def _coerce(self, other: Any) -> "Expr":
        return other if isinstance(other, Expr) else Lit(other)

    def __add__(self, other: Any) -> "Expr":
        return BinOp("+", self, self._coerce(other))

    def __radd__(self, other: Any) -> "Expr":
        return BinOp("+", self._coerce(other), self)

    def __sub__(self, other: Any) -> "Expr":
        return BinOp("-", self, self._coerce(other))

    def __rsub__(self, other: Any) -> "Expr":
        return BinOp("-", self._coerce(other), self)

    def __mul__(self, other: Any) -> "Expr":
        return BinOp("*", self, self._coerce(other))

    def __rmul__(self, other: Any) -> "Expr":
        return BinOp("*", self._coerce(other), self)

    def __truediv__(self, other: Any) -> "Expr":
        return BinOp("/", self, self._coerce(other))

    def __rtruediv__(self, other: Any) -> "Expr":
        return BinOp("/", self._coerce(other), self)

    def __lt__(self, other: Any) -> "Expr":
        return Comparison("<", self, self._coerce(other))

    def __le__(self, other: Any) -> "Expr":
        return Comparison("<=", self, self._coerce(other))

    def __gt__(self, other: Any) -> "Expr":
        return Comparison(">", self, self._coerce(other))

    def __ge__(self, other: Any) -> "Expr":
        return Comparison(">=", self, self._coerce(other))

    def eq(self, other: Any) -> "Expr":
        """SQL ``=`` (named method: Python ``==`` is kept for identity)."""
        return Comparison("=", self, self._coerce(other))

    def ne(self, other: Any) -> "Expr":
        return Comparison("!=", self, self._coerce(other))

    def __and__(self, other: "Expr") -> "Expr":
        return And(self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return Or(self, other)

    def __invert__(self) -> "Expr":
        return Not(self)


class Col(Expr):
    """A column reference."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def eval(self, table: Table) -> np.ndarray:
        return table.column(self.name)

    def columns_used(self) -> frozenset[str]:
        return frozenset([self.name])

    def key(self) -> tuple:
        return ("col", self.name)

    def __repr__(self) -> str:
        return self.name


class Lit(Expr):
    """A literal constant, broadcast over the table."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def eval(self, table: Table) -> np.ndarray:
        return np.full(table.n_rows, self.value)

    def columns_used(self) -> frozenset[str]:
        return frozenset()

    def key(self) -> tuple:
        return ("lit", self.value)

    def __repr__(self) -> str:
        return repr(self.value)


class BinOp(Expr):
    """Arithmetic: ``+ - * /``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _ARITH:
            raise SchemaError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, table: Table) -> np.ndarray:
        return _ARITH[self.op](self.left.eval(table), self.right.eval(table))

    def columns_used(self) -> frozenset[str]:
        return self.left.columns_used() | self.right.columns_used()

    def key(self) -> tuple:
        return ("bin", self.op, self.left.key(), self.right.key())

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Comparison(Expr):
    """Comparison producing a boolean column."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _COMPARE:
            raise SchemaError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, table: Table) -> np.ndarray:
        out = _COMPARE[self.op](self.left.eval(table), self.right.eval(table))
        return np.asarray(out, dtype=bool)

    def columns_used(self) -> frozenset[str]:
        return self.left.columns_used() | self.right.columns_used()

    def key(self) -> tuple:
        return ("cmp", self.op, self.left.key(), self.right.key())

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class And(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left = left
        self.right = right

    def eval(self, table: Table) -> np.ndarray:
        return self.left.eval(table) & self.right.eval(table)

    def columns_used(self) -> frozenset[str]:
        return self.left.columns_used() | self.right.columns_used()

    def key(self) -> tuple:
        return ("and", self.left.key(), self.right.key())

    def __repr__(self) -> str:
        return f"({self.left!r} AND {self.right!r})"


class Or(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left = left
        self.right = right

    def eval(self, table: Table) -> np.ndarray:
        return self.left.eval(table) | self.right.eval(table)

    def columns_used(self) -> frozenset[str]:
        return self.left.columns_used() | self.right.columns_used()

    def key(self) -> tuple:
        return ("or", self.left.key(), self.right.key())

    def __repr__(self) -> str:
        return f"({self.left!r} OR {self.right!r})"


class Not(Expr):
    __slots__ = ("child",)

    def __init__(self, child: Expr) -> None:
        self.child = child

    def eval(self, table: Table) -> np.ndarray:
        return ~self.child.eval(table)

    def columns_used(self) -> frozenset[str]:
        return self.child.columns_used()

    def key(self) -> tuple:
        return ("not", self.child.key())

    def __repr__(self) -> str:
        return f"(NOT {self.child!r})"


# -- convenience builders ---------------------------------------------------


def col(name: str) -> Col:
    """Column reference builder."""
    return Col(name)


def lit(value: Any) -> Lit:
    """Literal builder."""
    return Lit(value)


def and_(*exprs: Expr) -> Expr:
    """Conjunction of one or more predicates."""
    if not exprs:
        raise SchemaError("and_() needs at least one predicate")
    acc = exprs[0]
    for e in exprs[1:]:
        acc = And(acc, e)
    return acc

"""Expression evaluation tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational.expressions import (
    And,
    BinOp,
    Comparison,
    Not,
    Or,
    and_,
    col,
    lit,
)
from repro.relational.table import Table


@pytest.fixture
def table():
    return Table(
        "t",
        {
            "a": np.array([1.0, 2.0, 3.0, 4.0]),
            "b": np.array([4.0, 3.0, 2.0, 1.0]),
            "s": np.array(["x", "y", "x", "z"]),
        },
    )


class TestArithmetic:
    def test_operators(self, table):
        np.testing.assert_allclose(
            (col("a") + col("b")).eval(table), [5, 5, 5, 5]
        )
        np.testing.assert_allclose((col("a") - 1).eval(table), [0, 1, 2, 3])
        np.testing.assert_allclose((2 * col("a")).eval(table), [2, 4, 6, 8])
        np.testing.assert_allclose(
            (col("a") / col("b")).eval(table), [0.25, 2 / 3, 1.5, 4.0]
        )
        np.testing.assert_allclose((1 - col("a")).eval(table), [0, -1, -2, -3])
        np.testing.assert_allclose(
            (1 / col("a")).eval(table), [1, 0.5, 1 / 3, 0.25]
        )

    def test_paper_revenue_expression(self, table):
        expr = col("a") * (lit(1.0) - col("b") / 10.0)
        np.testing.assert_allclose(
            expr.eval(table), [1 * 0.6, 2 * 0.7, 3 * 0.8, 4 * 0.9]
        )

    def test_unknown_operator_rejected(self):
        with pytest.raises(SchemaError):
            BinOp("%", col("a"), col("b"))

    def test_columns_used(self):
        expr = col("a") * (lit(1.0) - col("b"))
        assert expr.columns_used() == {"a", "b"}
        assert lit(5).columns_used() == frozenset()


class TestComparisons:
    def test_all_operators(self, table):
        assert (col("a") > 2).eval(table).tolist() == [False, False, True, True]
        assert (col("a") >= 2).eval(table).tolist() == [False, True, True, True]
        assert (col("a") < 2).eval(table).tolist() == [True, False, False, False]
        assert (col("a") <= 2).eval(table).tolist() == [True, True, False, False]
        assert col("a").eq(2).eval(table).tolist() == [False, True, False, False]
        assert col("a").ne(2).eval(table).tolist() == [True, False, True, True]

    def test_string_equality(self, table):
        assert col("s").eq("x").eval(table).tolist() == [
            True,
            False,
            True,
            False,
        ]

    def test_unknown_comparison_rejected(self):
        with pytest.raises(SchemaError):
            Comparison("~", col("a"), col("b"))


class TestBoolean:
    def test_and_or_not(self, table):
        both = And(col("a") > 1, col("b") > 1)
        assert both.eval(table).tolist() == [False, True, True, False]
        either = Or(col("a") > 3, col("b") > 3)
        assert either.eval(table).tolist() == [True, False, False, True]
        assert Not(col("a") > 2).eval(table).tolist() == [
            True,
            True,
            False,
            False,
        ]

    def test_operator_sugar(self, table):
        sugar = (col("a") > 1) & (col("b") > 1)
        assert sugar.eval(table).tolist() == [False, True, True, False]
        sugar_or = (col("a") > 3) | (col("b") > 3)
        assert sugar_or.eval(table).tolist() == [True, False, False, True]
        inverted = ~(col("a") > 2)
        assert inverted.eval(table).tolist() == [True, True, False, False]

    def test_varargs_builders(self, table):
        three = and_(col("a") > 0, col("b") > 0, col("a") < 4)
        assert three.eval(table).tolist() == [True, True, True, False]
        two = (col("a") < 2) | (col("b") < 2)
        assert two.eval(table).tolist() == [True, False, False, True]
        assert (~(col("a") > 0)).eval(table).tolist() == [False] * 4

    def test_empty_builders_rejected(self):
        with pytest.raises(SchemaError):
            and_()


class TestStructuralKeys:
    def test_equal_expressions_share_keys(self):
        e1 = col("a") * (lit(1.0) - col("b"))
        e2 = col("a") * (lit(1.0) - col("b"))
        assert e1.key() == e2.key()

    def test_different_expressions_differ(self):
        assert (col("a") + 1).key() != (col("a") + 2).key()
        assert (col("a") + 1).key() != (col("a") - 1).key()
        assert and_(col("a") > 1, col("b") > 1).key() != (
            (col("a") > 1) | (col("b") > 1)
        ).key()

    def test_repr_is_readable(self):
        expr = (col("a") > 1) & ~(col("b").eq(2))
        text = repr(expr)
        assert "a" in text and "AND" in text and "NOT" in text

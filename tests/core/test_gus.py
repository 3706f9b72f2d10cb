"""Tests for GUS parameter objects and the paper's Figure 1 / Example 2."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.gus import (
    GUSParams,
    bernoulli_gus,
    identity_gus,
    null_gus,
    without_replacement_gus,
)
from repro.core.lattice import SubsetLattice
from repro.errors import LatticeError, ReproError


class TestFigure1:
    """Paper Figure 1: GUS parameters of known sampling methods."""

    def test_bernoulli_row(self):
        g = bernoulli_gus("r", 0.3)
        assert g.a == pytest.approx(0.3)
        assert g.b_of([]) == pytest.approx(0.09)
        assert g.b_of(["r"]) == pytest.approx(0.3)

    def test_wor_row(self):
        g = without_replacement_gus("r", 10, 100)
        assert g.a == pytest.approx(0.1)
        assert g.b_of([]) == pytest.approx(10 * 9 / (100 * 99))
        assert g.b_of(["r"]) == pytest.approx(0.1)

    def test_example_2_bernoulli_on_lineitem(self):
        """Paper Example 2: B(0.1) has a=0.1, b_∅=0.01, b_l=0.1."""
        g = bernoulli_gus("l", 0.1)
        assert g.a == pytest.approx(0.1)
        assert g.b_of([]) == pytest.approx(0.01)
        assert g.b_of(["l"]) == pytest.approx(0.1)

    def test_example_2_wor_on_orders(self):
        """Paper Example 2: WOR(1000, 150000) has a=6.667e-3,
        b_∅=4.44e-5, b_o=6.667e-3."""
        g = without_replacement_gus("o", 1000, 150_000)
        assert g.a == pytest.approx(6.667e-3, rel=1e-3)
        assert g.b_of([]) == pytest.approx(4.44e-5, rel=1e-2)
        assert g.b_of(["o"]) == pytest.approx(6.667e-3, rel=1e-3)


class TestValidation:
    def test_b_full_must_equal_a(self):
        with pytest.raises(ReproError, match="b_L"):
            GUSParams.from_mapping(
                ["r"], 0.5, {frozenset(): 0.25, frozenset(["r"]): 0.4}
            )

    def test_out_of_range_a_rejected(self):
        with pytest.raises(ReproError, match="not a probability"):
            GUSParams.from_mapping(
                ["r"], 1.5, {frozenset(): 1.0, frozenset(["r"]): 1.5}
            )

    def test_out_of_range_b_rejected(self):
        with pytest.raises(ReproError, match="b_T"):
            GUSParams.from_mapping(
                ["r"], 0.5, {frozenset(): -0.2, frozenset(["r"]): 0.5}
            )

    def test_incomplete_mapping_rejected(self):
        with pytest.raises(LatticeError, match="entries"):
            GUSParams.from_mapping(["r"], 0.5, {frozenset(["r"]): 0.5})

    def test_validate_false_allows_inconsistent(self):
        g = GUSParams.from_mapping(
            ["r"],
            0.5,
            {frozenset(): 0.9, frozenset(["r"]): 0.1},
            validate=False,
        )
        assert g.a == 0.5

    def test_bernoulli_rate_range(self):
        with pytest.raises(ReproError):
            bernoulli_gus("r", 1.2)

    def test_wor_size_range(self):
        with pytest.raises(ReproError):
            without_replacement_gus("r", 11, 10)
        with pytest.raises(ReproError):
            without_replacement_gus("r", 1, 0)

    def test_wor_single_tuple_population(self):
        g = without_replacement_gus("r", 1, 1)
        assert g.a == pytest.approx(1.0)


class TestAccessors:
    def test_b_items_covers_lattice(self):
        g = bernoulli_gus("r", 0.5)
        items = g.b_items()
        assert set(items) == {frozenset(), frozenset(["r"])}

    def test_b_is_read_only(self):
        g = bernoulli_gus("r", 0.5)
        with pytest.raises(ValueError):
            g.b[0] = 0.0

    @pytest.mark.parametrize("name", ["a", "b", "lattice"])
    def test_attributes_cannot_be_reassigned(self, name):
        """A memoized instance is shared: no caller may rebind a part."""
        g = bernoulli_gus("r", 0.5)
        before = getattr(g, name)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(g, name, before)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(g, name)
        assert getattr(g, name) is before

    def test_bernoulli_gus_is_memoized(self):
        assert bernoulli_gus("r", 0.25) is bernoulli_gus("r", 0.25)
        assert bernoulli_gus("r", 0.25) is not bernoulli_gus("s", 0.25)
        assert bernoulli_gus("r", 0.25) is not bernoulli_gus("r", 0.5)

    def test_pickle_round_trip(self):
        g = without_replacement_gus("r", 3, 10)
        back = pickle.loads(pickle.dumps(g))
        assert back.approx_equal(g, tol=0.0)
        assert not back.b.flags.writeable

    def test_approx_equal(self):
        g1 = bernoulli_gus("r", 0.5)
        g2 = GUSParams.from_mapping(
            ["r"], 0.5, {frozenset(): 0.25, frozenset(["r"]): 0.5}
        )
        assert g1.approx_equal(g2)
        assert not g1.approx_equal(bernoulli_gus("r", 0.6))
        assert not g1.approx_equal(bernoulli_gus("s", 0.5))

    def test_repr_mentions_schema(self):
        assert "r" in repr(bernoulli_gus("r", 0.5))

    def test_c_vector_bernoulli_closed_form(self):
        """c_∅ = p², c_R = p − p² — the classic Bernoulli decomposition."""
        p = 0.37
        c = bernoulli_gus("r", p).c_vector()
        assert c[0] == pytest.approx(p * p)
        assert c[1] == pytest.approx(p - p * p)

    def test_c_vector_wor_closed_form(self):
        n, pop = 7, 23
        g = without_replacement_gus("r", n, pop)
        c = g.c_vector()
        b_empty = n * (n - 1) / (pop * (pop - 1))
        assert c[0] == pytest.approx(b_empty)
        assert c[1] == pytest.approx(n / pop - b_empty)


class TestDistinguishedElements:
    def test_identity(self):
        g = identity_gus(["a", "b"])
        assert g.a == 1.0
        assert np.all(g.b == 1.0)

    def test_null(self):
        g = null_gus(["a"])
        assert g.a == 0.0
        assert np.all(g.b == 0.0)


class TestInactiveDims:
    def test_unsampled_dimension_detected(self):
        lat = SubsetLattice(["l", "c"])
        # Bernoulli(0.5) on l, identity on c: b does not depend on c.
        b = np.empty(4)
        ml, mc = lat.mask_of(["l"]), lat.mask_of(["c"])
        b[0] = 0.25
        b[ml] = 0.5
        b[mc] = 0.25
        b[ml | mc] = 0.5
        g = GUSParams(lat, 0.5, b)
        assert g.inactive_dims() == {"c"}

    def test_projection_reduces_lattice(self):
        lat = SubsetLattice(["l", "c"])
        ml, mc = lat.mask_of(["l"]), lat.mask_of(["c"])
        b = np.empty(4)
        b[0] = 0.25
        b[ml] = 0.5
        b[mc] = 0.25
        b[ml | mc] = 0.5
        g = GUSParams(lat, 0.5, b).project_out_inactive()
        assert g.schema == {"l"}
        assert g.approx_equal(bernoulli_gus("l", 0.5))

    def test_a_gap_of_exactly_tol_is_inactive(self):
        lat = SubsetLattice(["l", "c"])
        ml, mc = lat.mask_of(["l"]), lat.mask_of(["c"])
        tol = 2.0**-30
        b = np.empty(4)
        b[0] = 0.25
        b[ml] = 0.5
        b[mc] = 0.25 + tol  # 0.25 + tol − 0.25 is tol exactly
        b[ml | mc] = 0.5
        g = GUSParams(lat, 0.5, b)
        assert g.inactive_dims(tol) == {"c"}
        assert g.inactive_dims(np.nextafter(tol, 0.0)) == frozenset()
        # The same decisions as ``np.allclose`` with ``rtol=0``.
        lo = np.array([0, ml])
        assert np.allclose(b[lo], b[lo | mc], rtol=0, atol=tol)
        assert not np.allclose(b[lo], b[lo | mc], rtol=0, atol=np.nextafter(tol, 0.0))

    def test_nan_is_never_inactive(self):
        lat = SubsetLattice(["l", "c"])
        # b_∅ and b_{c} are both NaN: equal bits, yet not close.
        g = GUSParams(lat, 0.5, [np.nan, np.nan, 0.5, 0.5], validate=False)
        assert g.inactive_dims() == frozenset()
        assert not np.allclose([np.nan], [np.nan], rtol=0, atol=1e-12)

    def test_fully_active_is_returned_unchanged(self):
        g = bernoulli_gus("l", 0.5)
        assert g.project_out_inactive() is g

    def test_identity_gus_projects_to_empty_schema(self):
        g = identity_gus(["a", "b"]).project_out_inactive()
        assert g.schema == frozenset()
        assert g.a == 1.0

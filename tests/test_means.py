import math
import random

import pytest
from hypothesis import given, strategies as st

from hhaudit.core import DomainError, Interval, PreconditionError
from hhaudit.exprlang import parse
from hhaudit.hh_bounds import abs_half_check, first_order_bounds
from hhaudit.means import (
    arithmetic_mean,
    generalized_log_mean,
    geometric_mean,
    logarithmic_mean,
    means_proposition_check,
)
from conftest import draw_narrow_interval


class TestMeanValues:
    def test_arithmetic(self):
        assert arithmetic_mean(2.0, 8.0) == 5.0

    def test_geometric(self):
        assert geometric_mean(2.0, 8.0) == 4.0

    def test_logarithmic(self):
        assert math.isclose(logarithmic_mean(1.0, math.e), math.e - 1.0, rel_tol=1e-14)

    def test_l1_equals_arithmetic(self):
        rng = random.Random(8)
        for _ in range(50):
            a = rng.uniform(0.1, 5.0)
            b = a + rng.uniform(0.1, 5.0)
            assert math.isclose(generalized_log_mean(1, a, b), arithmetic_mean(a, b), rel_tol=1e-14)

    def test_l_minus2_equals_geometric(self):
        assert math.isclose(generalized_log_mean(-2, 2.0, 8.0), 4.0, rel_tol=1e-13)

    @given(a=st.floats(0.01, 100.0), w=st.floats(0.01, 100.0))
    def test_classical_ordering(self, a, w):
        b = a + w
        g, l, am = geometric_mean(a, b), logarithmic_mean(a, b), arithmetic_mean(a, b)
        assert g <= l * (1 + 1e-12)
        assert l <= am * (1 + 1e-12)

    def test_classical_ordering_1000_random_pairs(self):
        rng = random.Random(424242)
        for _ in range(1000):
            a = rng.uniform(1e-3, 50.0)
            b = a + rng.uniform(1e-3, 50.0)
            g, l, am = geometric_mean(a, b), logarithmic_mean(a, b), arithmetic_mean(a, b)
            assert g <= l * (1 + 1e-12) <= am * (1 + 1e-12) ** 2

    def test_rejects_bad_pairs(self):
        with pytest.raises(DomainError):
            arithmetic_mean(-1.0, 2.0)
        with pytest.raises(DomainError):
            arithmetic_mean(2.0, 2.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            generalized_log_mean(0, 2.0, 8.0)
        with pytest.raises(ValueError):
            generalized_log_mean(-1, 2.0, 8.0)


class TestPropositionValues:
    def test_p1_first_display_example(self):
        first, _ = means_proposition_check("P1", 1.0, 2.0, q=1.0, n=2)
        assert abs(first.lhs - 29.0 / 12.0) <= 1e-12
        assert abs(first.rhs - 13.0 / 4.0) <= 1e-12
        assert first.satisfied and first.fragile

    def test_p3_first_display_example(self):
        first, _ = means_proposition_check("P3", 1.0, 2.0, q=1.0)
        assert abs(first.lhs - abs(2.0 / 3.0 - 2.0 * math.log(2.0))) <= 1e-12
        assert abs(first.rhs - 1.2) <= 1e-12
        assert first.satisfied

    def test_p2_domain_guard(self):
        with pytest.raises(PreconditionError, match="3a - b"):
            means_proposition_check("P2", 1.0, 4.0)

    def test_p1_negative_order_needs_narrow_interval(self):
        with pytest.raises(PreconditionError):
            means_proposition_check("P1", 1.0, 4.0, n=-2)

    def test_rejects_unknown_prop(self):
        with pytest.raises(ValueError):
            means_proposition_check("P4", 1.0, 2.0)


class TestAgreementWithDirectBounds:
    """The proposition displays must coincide with running the generic bound
    machinery on the matching power function."""

    CASES = [
        ("P1", "x^2", {"n": 2}),
        ("P1", "x^3", {"n": 3}),
        ("P1", "x^-2", {"n": -2}),
        ("P2", "1/x^2", {}),
        ("P3", "1/x", {}),
    ]

    @pytest.mark.parametrize("prop,fn,extra", CASES)
    def test_second_display_matches_first_order_path(self, prop, fn, extra):
        rng = random.Random(hash((prop, fn)) & 0xFFFF)
        expr = parse(fn)
        for q in (1.0, 1.5, 2.0, 3.0):
            iv = draw_narrow_interval(rng)
            _, second = means_proposition_check(prop, iv.a, iv.b, q=q, **extra)
            fb = first_order_bounds(expr, iv, q)
            assert math.isclose(second.lhs, fb.lhs, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(second.rhs, fb.rhs_min, rel_tol=1e-12, abs_tol=1e-12)

    @pytest.mark.parametrize("prop,fn,extra", CASES)
    def test_first_display_matches_half_value_path(self, prop, fn, extra):
        rng = random.Random(hash((prop, fn, "d1")) & 0xFFFF)
        expr = parse(fn)
        for _ in range(4):
            iv = draw_narrow_interval(rng)
            first, _ = means_proposition_check(prop, iv.a, iv.b, **extra)
            direct = abs_half_check(expr, iv)
            # the display doubles both sides of the half-value bound
            assert math.isclose(first.lhs, 2.0 * direct.lhs, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(first.rhs, 2.0 * direct.rhs, rel_tol=1e-12, abs_tol=1e-12)

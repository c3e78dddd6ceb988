import math
import random

import pytest

from hhaudit.core import PreconditionError
from hhaudit.exprlang import parse
from hhaudit.hh_bounds import Instance
from hhaudit.means import _gen_log_power, means_proposition_check
from conftest import draw_narrow_interval


class TestMeanValues:
    """L_n(a, b)^n, the generalized logarithmic mean that P1 reads, at the orders where it is
    the arithmetic and the geometric mean."""

    def test_l1_equals_arithmetic(self):
        rng = random.Random(8)
        for _ in range(50):
            a = rng.uniform(0.1, 5.0)
            b = a + rng.uniform(0.1, 5.0)
            assert math.isclose(_gen_log_power(1, a, b), 0.5 * (a + b), rel_tol=1e-14)

    def test_l_minus2_equals_geometric(self):
        assert math.isclose(_gen_log_power(-2, 2.0, 8.0), 4.0**-2, rel_tol=1e-13)


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
            lhs, rhs = Instance(expr, iv, q).first_order()
            assert math.isclose(second.lhs, lhs, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(second.rhs, min(rhs["thm2"], rhs.get("thm3", math.inf)), rel_tol=1e-12, abs_tol=1e-12)

    @pytest.mark.parametrize("prop,fn,extra", CASES)
    def test_first_display_matches_half_value_path(self, prop, fn, extra):
        rng = random.Random(hash((prop, fn, "d1")) & 0xFFFF)
        expr = parse(fn)
        for _ in range(4):
            iv = draw_narrow_interval(rng)
            first, _ = means_proposition_check(prop, iv.a, iv.b, **extra)
            direct = Instance(expr, iv).abs_half()
            # the display doubles both sides of the half-value bound
            assert math.isclose(first.lhs, 2.0 * direct.lhs, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(first.rhs, 2.0 * direct.rhs, rel_tol=1e-12, abs_tol=1e-12)

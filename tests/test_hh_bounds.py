import math
import random

import pytest

from hhaudit.core import Interval, PreconditionError
from hhaudit.exprlang import parse
from hhaudit.hh_bounds import (
    K1,
    abs_half_check,
    first_order_bounds,
    hh_classic_check,
    k2_derived_constant,
    k2_printed_constant,
    lemma_identity_residual,
    mean_integral,
    second_order_bounds,
    three_point_check,
)
from conftest import CONVEX_BATTERY, draw_interval


class TestClassicCheck:
    def test_square_on_0_2(self):
        lower, upper = hh_classic_check(parse("x^2"), Interval(0.0, 2.0))
        assert abs(lower.lhs - 1.0) <= 1e-12
        assert abs(lower.rhs - 4.0 / 3.0) <= 1e-12
        assert abs(upper.rhs - 2.0) <= 1e-12
        assert lower.satisfied and upper.satisfied

    def test_affine_is_equality(self):
        lower, upper = hh_classic_check(parse("x"), Interval(0.0, 1.0))
        assert abs(lower.lhs - 0.5) <= 1e-12
        assert abs(lower.rhs - 0.5) <= 1e-12
        assert abs(upper.rhs - 0.5) <= 1e-12

    def test_exponential(self):
        lower, upper = hh_classic_check(parse("exp(x)"), Interval(0.0, 1.0))
        assert abs(lower.lhs - math.exp(0.5)) <= 1e-12
        assert abs(lower.rhs - (math.e - 1.0)) <= 1e-12
        assert abs(upper.rhs - (1.0 + math.e) / 2.0) <= 1e-12

    def test_concave_rejected(self):
        with pytest.raises(PreconditionError, match="convex"):
            hh_classic_check(parse("-(x^2)"), Interval(0.0, 1.0))


class TestLemmaIdentities:
    def test_lemma1_square(self):
        # both sides equal 1/6 on [0, 1]
        assert lemma_identity_residual("lemma1", parse("x^2"), Interval(0.0, 1.0)) < 1e-10

    def test_lemma2_affine(self):
        assert lemma_identity_residual("lemma2", parse("3*x - 1"), Interval(-2.0, 5.0)) < 1e-10

    def test_lemma1_exponential(self):
        assert lemma_identity_residual("lemma1", parse("exp(x)"), Interval(0.0, 1.0)) < 1e-8

    @pytest.mark.parametrize("which", ["lemma1", "lemma2"])
    @pytest.mark.parametrize("fn", ["x^2", "x^3", "exp(x)"])
    def test_smooth_battery_random_intervals(self, which, fn):
        rng = random.Random(hash((which, fn)) & 0xFFFF)
        expr = parse(fn)
        for _ in range(10):
            assert lemma_identity_residual(which, expr, draw_interval(rng)) <= 1e-8

    def test_unknown_lemma(self):
        with pytest.raises(ValueError):
            lemma_identity_residual("lemma3", parse("x"), Interval(0.0, 1.0))


class TestThreePoint:
    def test_square_closed_form(self):
        lower, upper = three_point_check(parse("x^2"), Interval(0.0, 2.0))
        assert abs(lower.lhs - 1.0) <= 1e-12
        assert abs(lower.rhs - 4.0 / 3.0) <= 1e-12
        assert abs(upper.rhs - 3.0) <= 1e-12

    def test_affine_equality(self):
        lower, upper = three_point_check(parse("x"), Interval(0.0, 1.0))
        assert abs(upper.rhs - 0.5) <= 1e-12
        assert abs(upper.lhs - 0.5) <= 1e-12

    def test_exponential(self):
        _, upper = three_point_check(parse("exp(x)"), Interval(0.0, 1.0))
        expected = (2.0 * math.exp(0.5) + math.exp(1.5) + math.exp(-0.5)) / 4.0
        assert abs(upper.rhs - expected) <= 1e-12
        assert abs(upper.lhs - (math.e - 1.0)) <= 1e-12

    def test_battery_always_satisfied(self, battery):
        rng = random.Random(1001)
        for _ in range(100):
            iv = draw_interval(rng)
            for _, expr in battery:
                lower, upper = three_point_check(expr, iv)
                assert lower.satisfied and upper.satisfied


class TestAbsHalf:
    def test_affine_equality(self):
        r = abs_half_check(parse("x"), Interval(0.0, 1.0))
        assert abs(r.lhs - 0.25) <= 1e-12
        assert abs(r.rhs - 0.25) <= 1e-12
        assert r.satisfied and r.fragile

    def test_square(self):
        r = abs_half_check(parse("x^2"), Interval(0.0, 2.0))
        assert abs(r.lhs - 5.0 / 6.0) <= 1e-12
        assert abs(r.rhs - 2.5) <= 1e-12
        assert r.satisfied

    def test_shift_counterexample(self):
        # vertical shift zeroes the right side while the left side grows
        r = abs_half_check(parse("x^2-5"), Interval(0.0, 2.0))
        assert abs(r.lhs - 5.0 / 3.0) <= 1e-12
        assert r.rhs == 0.0
        assert not r.satisfied
        assert r.fragile


class TestFirstOrder:
    def test_square_q1(self):
        fb = first_order_bounds(parse("x^2"), Interval(0.0, 1.0), 1.0)
        assert abs(fb.lhs - 1.0 / 12.0) <= 1e-12
        assert abs(fb.rhs_thm2 - 0.5) <= 1e-12
        assert fb.p is None and fb.rhs_thm3 is None and fb.k2_printed is None
        assert fb.rhs_min == fb.rhs_thm2
        assert fb.k1 == 0.125

    def test_square_q2(self):
        fb = first_order_bounds(parse("x^2"), Interval(0.0, 1.0), 2.0)
        assert abs(fb.rhs_thm3 - math.sqrt(5.0 / 24.0)) <= 1e-12
        assert abs(fb.lhs - 1.0 / 12.0) <= 1e-12
        assert fb.lhs <= fb.rhs_thm3

    def test_affine_zero_lhs(self):
        rng = random.Random(4)
        for _ in range(20):
            fb = first_order_bounds(parse("2*x+3"), draw_interval(rng), 1.0)
            assert fb.lhs <= 1e-12

    def test_rejects_q_below_one(self):
        with pytest.raises(PreconditionError):
            first_order_bounds(parse("x^2"), Interval(0.0, 1.0), 0.5)

    def test_scale_covariance_of_thm2_rhs(self):
        rng = random.Random(5)
        for q in (1.0, 1.5, 2.0, 3.0):
            iv = draw_interval(rng)
            c = rng.uniform(0.5, 4.0)
            base = first_order_bounds(parse("exp(x)"), iv, q)
            scaled = first_order_bounds(parse(f"{c!r}*exp(x)"), iv, q)
            assert math.isclose(scaled.rhs_thm2, c * base.rhs_thm2, rel_tol=1e-13)

    def test_k2_constants_ordering(self):
        # the printed combined constant is looser than the theorem-consistent one
        for i in range(100):
            q = 1.0 + (10.0 - 1.0) * (i + 1) / 100.0
            assert k2_derived_constant(q) <= k2_printed_constant(q) + 1e-15

    def test_thm3_rhs_equals_derived_constant_form(self):
        iv = Interval(0.0, 1.0)
        for q in (1.5, 2.0, 3.0, 7.5):
            fb = first_order_bounds(parse("exp(x)"), iv, q)
            dlo = math.exp(-0.5)
            dhi = math.exp(1.5)
            s_root = (dlo**q + dhi**q) ** (1.0 / q)
            assert math.isclose(fb.rhs_thm3, fb.k2_derived * iv.width * s_root, rel_tol=1e-12)


class TestSecondOrder:
    def test_square_q1(self):
        sb = second_order_bounds(parse("x^2"), Interval(0.0, 1.0), 1.0)
        assert abs(sb.lhs - 5.0 / 12.0) <= 1e-12
        assert abs(sb.rhs_k3 - 2.0 / 3.0) <= 1e-12
        assert sb.rhs_k4 is None and sb.rhs_k5 is None
        assert sb.lhs <= sb.rhs_k3

    def test_k3_equals_k6_at_q1(self):
        # both reduce to (|f''(lo)| + |f''(hi)|)/6 times (b-a)^2
        rng = random.Random(6)
        for _ in range(10):
            sb = second_order_bounds(parse("exp(x)"), draw_interval(rng), 1.0)
            assert math.isclose(sb.rhs_k3, sb.rhs_k6, rel_tol=1e-12)

    def test_affine_zero_everywhere(self):
        sb = second_order_bounds(parse("x"), Interval(0.0, 1.0), 1.0)
        assert sb.lhs <= 1e-12
        assert sb.rhs_k3 <= 1e-12

    def test_exp_q2_all_sides_present(self):
        sb = second_order_bounds(parse("exp(x)"), Interval(0.0, 1.0), 2.0)
        for rhs in (sb.rhs_k3, sb.rhs_k4, sb.rhs_k5, sb.rhs_k6):
            assert rhs is not None and rhs > 0
        assert sb.rhs_min == min(sb.rhs_k3, sb.rhs_k4, sb.rhs_k5, sb.rhs_k6)
        assert sb.lhs <= sb.rhs_min

    def test_k4_gamma_ratio_closed_form(self):
        # |f''| = 2, (b-a)^2 = 4, p = q = 2: K4 = 2 * 4 * (sqrt(pi) G(3) / (2 G(7/2)))^(1/2) * 2
        sb = second_order_bounds(parse("x^2"), Interval(0.0, 2.0), 2.0)
        assert math.isclose(sb.rhs_k4, 16.0 * math.sqrt(8.0 / 15.0), rel_tol=1e-12)


class TestBatterySweep:
    def test_tally_is_complete_and_violations_only_reported(self):
        functions = [parse(t) for t in CONVEX_BATTERY + ("x*log(x)",)]
        rng = random.Random(77)
        tally = {"pass": 0, "fail": 0, "guarded": 0}
        findings = []
        for _ in range(25):
            a = rng.uniform(0.5, 3.0)
            iv = Interval(a, a * rng.uniform(1.2, 2.8))  # keeps x*log(x) in domain
            for expr in functions:
                for q in (1.0, 1.5, 2.0, 3.0):
                    for runner in (first_order_bounds, second_order_bounds):
                        try:
                            result = runner(expr, iv, q)
                        except PreconditionError:
                            tally["guarded"] += 1
                            continue
                        if result.lhs <= result.rhs_min + 1e-12:
                            tally["pass"] += 1
                        else:
                            tally["fail"] += 1
                            findings.append((expr, iv, q, runner.__name__))
        total = tally["pass"] + tally["fail"] + tally["guarded"]
        assert total == 25 * 5 * 4 * 2
        # violations of printed bounds are findings, not test failures
        assert tally["pass"] > 0


def test_mean_integral_matches_closed_form():
    assert math.isclose(mean_integral(parse("x^2"), Interval(0.0, 2.0)), 4.0 / 3.0, rel_tol=1e-12)

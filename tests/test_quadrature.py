import math
import random

import pytest

from hhaudit.core import DomainError, Interval, PreconditionError, ToleranceConfig
from hhaudit.exprlang import parse
from hhaudit.oracle import integrate_ref
from hhaudit.quadrature import (
    Partition,
    adaptive_midpoint,
    midpoint_T2,
    midpoint_error_bound,
    prop4_check,
    trapezoid_T1,
)
from conftest import draw_interval


class TestPartition:
    def test_uniform(self):
        p = Partition.uniform(Interval(0.0, 1.0), 4)
        assert p.points == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert p.panel_count == 4

    def test_bisected(self):
        p = Partition((0.0, 1.0)).bisected()
        assert p.points == (0.0, 0.5, 1.0)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            Partition((0.0, 0.0, 1.0))


class TestCompositeRules:
    def test_t1_square(self):
        assert trapezoid_T1(parse("x^2"), Partition((0.0, 0.5, 1.0))) == 0.375

    def test_t2_square(self):
        assert midpoint_T2(parse("x^2"), Partition((0.0, 0.5, 1.0))) == 0.3125

    def test_affine_exact_both(self):
        f = parse("3*x - 2")
        p = Partition((0.0, 0.3, 1.1, 2.0))
        exact = 3.0 * 2.0**2 / 2.0 - 2.0 * 2.0
        assert math.isclose(trapezoid_T1(f, p), exact, rel_tol=1e-14)
        assert math.isclose(midpoint_T2(f, p), exact, rel_tol=1e-14)

    def test_single_panel_formulas(self):
        f = parse("exp(x)")
        assert math.isclose(trapezoid_T1(f, Partition((0.0, 1.0))), (1.0 + math.e) / 2.0, rel_tol=1e-15)
        assert math.isclose(midpoint_T2(f, Partition((0.0, 1.0))), math.exp(0.5), rel_tol=1e-15)

    def test_bracketing_for_convex(self, battery):
        rng = random.Random(21)
        for _, expr in battery:
            iv = draw_interval(rng)
            p = Partition.uniform(iv, rng.randint(1, 6))
            integral, _ = integrate_ref(expr, iv, 1e-12)
            t1, t2 = trapezoid_T1(expr, p), midpoint_T2(expr, p)
            assert t2 <= integral + 1e-10
            assert integral <= t1 + 1e-10


class TestMidpointErrorBound:
    def test_square_two_panels(self):
        bound = midpoint_error_bound(parse("x^2"), Partition((0.0, 0.5, 1.0)), 1.0)
        assert abs(bound - 5.0 / 32.0) <= 1e-12
        true_err = abs(1.0 / 3.0 - 0.3125)
        assert abs(true_err - 1.0 / 48.0) <= 1e-12
        assert true_err <= bound

    def test_affine(self):
        bound = midpoint_error_bound(parse("2*x"), Partition((0.0, 1.0, 2.0)), 1.0)
        assert math.isclose(bound, 0.125 * 2.0 * (1.0 * 4.0), rel_tol=1e-13)
        assert abs(midpoint_T2(parse("2*x"), Partition((0.0, 1.0, 2.0))) - 4.0) <= 1e-14

    def test_exp_q2_certificate_sound(self):
        f = parse("exp(x)")
        p = Partition((0.0, 1.0))
        bound = midpoint_error_bound(f, p, 2.0)
        true_err = abs((math.e - 1.0) - math.exp(0.5))
        assert abs(true_err - 0.0695605577589169) <= 1e-12
        assert true_err <= bound

    def test_rejects_q_below_one(self):
        with pytest.raises(PreconditionError):
            midpoint_error_bound(parse("x^2"), Partition((0.0, 1.0)), 0.5)

    def test_domain_failure_names_subinterval(self):
        with pytest.raises((DomainError, PreconditionError), match="subinterval 0"):
            midpoint_error_bound(parse("log(x)"), Partition((0.1, 1.0)), 1.0)

    def test_certificate_soundness_battery(self, battery):
        rng = random.Random(31)
        findings = []
        for _, expr in battery:
            for _ in range(5):
                iv = draw_interval(rng)
                p = Partition.uniform(iv, rng.randint(1, 5))
                q = rng.choice((1.0, 1.5, 2.0))
                bound = midpoint_error_bound(expr, p, q)
                integral, _ = integrate_ref(expr, iv, 1e-12)
                if abs(integral - midpoint_T2(expr, p)) > bound:
                    findings.append((expr, iv, q))
        # soundness violations would indict the printed proposition; none expected here
        assert findings == []

    def test_refinement_monotone_for_monotone_derivative(self):
        f = parse("exp(x)")
        p = Partition.uniform(Interval(0.0, 1.0), 1)
        previous = midpoint_error_bound(f, p, 1.0)
        for _ in range(6):
            p = p.bisected()
            current = midpoint_error_bound(f, p, 1.0)
            assert current <= previous + 1e-15
            previous = current


class TestProp4:
    def test_affine_equality(self):
        r = prop4_check(parse("x"), Partition((0.0, 1.0)))
        assert abs(r.lhs - 0.5) <= 1e-12
        assert abs(r.rhs - 0.5) <= 1e-12
        assert r.satisfied and r.fragile

    def test_square(self):
        r = prop4_check(parse("x^2"), Partition((0.0, 2.0)))
        assert abs(r.lhs - 10.0 / 3.0) <= 1e-12
        assert abs(r.rhs - 10.0) <= 1e-12
        assert abs(r.inputs["max_bound"] - 18.0) <= 1e-12
        assert r.satisfied

    def test_shift_counterexample(self):
        r = prop4_check(parse("x^2-5"), Partition((0.0, 2.0)))
        assert abs(r.lhs - 20.0 / 3.0) <= 1e-12
        assert r.rhs == 0.0
        assert not r.satisfied and r.fragile


class TestAdaptiveMidpoint:
    def test_square_certified(self):
        res = adaptive_midpoint(parse("x^2"), Interval(0.0, 1.0), 1e-3, 1.0)
        assert res.certified
        assert res.e2_bound <= 1e-3
        assert abs(res.t2 - 1.0 / 3.0) <= res.e2_bound

    def test_affine_t2_exact(self):
        res = adaptive_midpoint(parse("x"), Interval(0.0, 5.0), 1e-2, 1.0)
        assert abs(res.t2 - 12.5) <= 1e-12

    def test_exp_certified_against_oracle(self):
        res = adaptive_midpoint(parse("exp(x)"), Interval(0.0, 2.0), 1e-4, 1.0)
        assert res.certified and res.e2_bound <= 1e-4
        assert abs(res.t2 - (math.e**2 - 1.0)) <= res.e2_bound
        oracle_value, _ = integrate_ref(parse("exp(x)"), Interval(0.0, 2.0))
        assert abs(oracle_value - (math.e**2 - 1.0)) <= 1e-11

    def test_depth_exhaustion_flagged(self):
        cfg = ToleranceConfig(max_refine_depth=4)
        res = adaptive_midpoint(parse("x^2"), Interval(0.0, 1.0), 1e-9, 1.0, cfg)
        assert not res.certified
        assert res.e2_bound > 1e-9
        assert res.partition.panel_count == 16

    def test_guard_failure_propagates(self):
        with pytest.raises(DomainError):
            adaptive_midpoint(parse("log(x)"), Interval(0.1, 1.0), 1e-4, 1.0)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            adaptive_midpoint(parse("x"), Interval(0.0, 1.0), 0.0, 1.0)

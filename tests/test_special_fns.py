import math
import random

import pytest

from hhaudit.core import (
    ConvergenceError,
    DEFAULT_TOL,
    DomainError,
    PreconditionError,
    ToleranceConfig,
)
from hhaudit.special_fns import (
    SeriesResult,
    bessel_I,
    bessel_K,
    bessel_prop_checks,
    normalized_I_series,
    q_digamma,
    q_digamma_deriv,
    qdigamma_prop_checks,
)
from hhaudit.hh_bounds import _gamma_ratio_power
from conftest import normalized_I_identity

EULER_GAMMA = 0.5772156649015329


class TestBetaGamma:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.5])
    def test_symmetric_beta_display(self, p):
        # thm5's Gamma ratio is 4^p B(p+1, p+1), against mpmath at 40 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.mp.workdps(40):
            exact = 4 ** mpmath.mpf(p) * mpmath.beta(p + 1.0, p + 1.0)
        assert math.isclose(_gamma_ratio_power(p) ** p, float(exact), rel_tol=1e-12)


class TestBesselFirstKind:
    @pytest.mark.parametrize("p", [-0.5, 0.5, 1.0, 2.5])
    def test_value_one_at_zero(self, p):
        assert normalized_I_series(p, 0.0).value == 1.0

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
    def test_half_order_is_sinh(self, x):
        assert math.isclose(normalized_I_series(0.5, x).value, math.sinh(x) / x, rel_tol=1e-10)

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
    def test_minus_half_order_is_cosh(self, x):
        assert math.isclose(normalized_I_series(-0.5, x).value, math.cosh(x), rel_tol=1e-10)

    def test_even_in_x(self):
        assert normalized_I_series(1.2, 2.0).value == normalized_I_series(1.2, -2.0).value

    def test_unnormalized_half_order(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh(x)
        for x in (0.5, 1.0, 3.0):
            expected = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
            sr = bessel_I(0.5, x)
            assert math.isclose(sr.value, expected, rel_tol=1e-10)
            assert sr.tail_bound <= DEFAULT_TOL.abs_tol
            assert sr.terms_used <= DEFAULT_TOL.max_series_terms

    def test_at_zero(self):
        assert bessel_I(0.0, 0.0).value == 1.0
        assert bessel_I(2.0, 0.0).value == 0.0
        with pytest.raises(DomainError):
            bessel_I(-0.5, 0.0)

    def test_rejects_low_order(self):
        with pytest.raises(DomainError):
            normalized_I_series(-1.0, 1.0)

    def test_series_budget_respected(self):
        cfg = ToleranceConfig(max_series_terms=3)
        with pytest.raises(ConvergenceError):
            normalized_I_series(0.5, 8.0, cfg)


class TestBesselSecondKind:
    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
    def test_half_order_closed_form(self, x):
        expected = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        assert math.isclose(bessel_K(0.5, x).value, expected, rel_tol=1e-8)

    def test_order_zero_reference_value(self):
        # frozen from an independent high-precision evaluation of the integral
        assert math.isclose(bessel_K(0.0, 1.0).value, 0.42102443824070834, rel_tol=1e-9)

    def test_decreasing_in_x(self):
        assert bessel_K(1.0, 2.0).value < bessel_K(1.0, 1.0).value

    def test_tail_bound_within_tolerance(self):
        sr = bessel_K(1.5, 2.0)
        assert sr.tail_bound <= DEFAULT_TOL.abs_tol

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            bessel_K(1.0, 0.0)

    def test_tail_search_ends_before_sinh_overflows(self):
        # at x = 1e-310 no T with finite sinh T bounds the tail
        with pytest.raises(ConvergenceError, match=r"not boundable \(p=0.0, x=1e-310\)"):
            bessel_K(0.0, 1e-310)

    def test_a_value_beyond_the_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"beyond the float range \(p=800.0, x=1.0\)"):
            bessel_K(800.0, 1.0)


class TestQDigamma:
    def test_monotone_in_x(self):
        assert q_digamma(0.5, 2.0).value > q_digamma(0.5, 1.0).value

    def test_derivative_signs(self):
        assert q_digamma_deriv(0.5, 1.5, 1).value > 0
        assert q_digamma_deriv(0.5, 1.5, 3).value > 0
        assert q_digamma_deriv(2.0, 1.5, 1).value > 0
        assert q_digamma_deriv(2.0, 1.5, 3).value > 0

    @pytest.mark.parametrize("q", [0.3, 0.7, 1.5, 3.0])
    def test_derivative_positivity_grid(self, q):
        # the convexity facts the slope bounds rest on: psi' and psi''' > 0;
        # small x with q near 1 needs a larger term budget than the default
        cfg = ToleranceConfig(max_series_terms=10_000)
        for x in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
            assert q_digamma_deriv(q, x, 1, cfg).value > 0
            assert q_digamma_deriv(q, x, 3, cfg).value > 0

    def test_classical_limit(self):
        cfg = ToleranceConfig(max_series_terms=500_000)
        # psi(1) = -gamma, psi(2) = 1 - gamma via the harmonic-number identity
        assert abs(q_digamma(0.999, 1.0, cfg).value + EULER_GAMMA) <= 5e-3
        assert abs(q_digamma(0.999, 2.0, cfg).value - (1.0 - EULER_GAMMA)) <= 5e-3

    def test_branches_agree_through_reflection(self):
        # psi_q(x) = psi_{1/q}(x) + (x - 3/2) ln q for q > 1
        for q in (2.0, 3.5):
            for x in (0.7, 1.3, 2.9):
                lhs = q_digamma(q, x).value
                rhs = q_digamma(1.0 / q, x).value + (x - 1.5) * math.log(q)
                assert math.isclose(lhs, rhs, rel_tol=1e-11, abs_tol=1e-11)

    def test_recurrence_below_one(self):
        q, x = 0.5, 1.5
        delta = q_digamma(q, x + 1.0).value - q_digamma(q, x).value
        assert math.isclose(delta, -math.log(q) * q**x / (1.0 - q**x), rel_tol=1e-11)

    def test_recurrence_above_one(self):
        q, x = 2.0, 1.5
        delta = q_digamma(q, x + 1.0).value - q_digamma(q, x).value
        assert math.isclose(delta, math.log(q) / (1.0 - q**-x), rel_tol=1e-11)

    def test_tail_bounds_and_budgets(self):
        for q, x in ((0.5, 1.0), (0.3, 2.0), (2.0, 1.0), (5.0, 0.5)):
            sr = q_digamma(q, x)
            assert sr.tail_bound <= DEFAULT_TOL.abs_tol
            assert sr.terms_used <= DEFAULT_TOL.max_series_terms

    def test_term_cap_raises(self):
        with pytest.raises(ConvergenceError, match="max_series_terms"):
            q_digamma(0.999, 1.0)  # needs tens of thousands of terms

    def test_domain(self):
        with pytest.raises(DomainError):
            q_digamma(1.0, 1.0)
        with pytest.raises(DomainError):
            q_digamma(0.5, 0.0)
        with pytest.raises(ValueError):
            q_digamma_deriv(0.5, 1.0, 2)


class TestBesselPropChecks:
    def test_hyperbolic_bound_values(self):
        reports = {r.label: r for r in bessel_prop_checks(0.5, 1.0, 2.0)}
        r = reports["prop6.i11"]
        assert math.isclose(r.lhs, math.cosh(2.0) - math.cosh(1.0), rel_tol=1e-12)
        expected = (math.sinh(0.5) + math.sinh(2.5) + 2.0 * math.sinh(1.5)) / 4.0
        assert math.isclose(r.rhs, expected, rel_tol=1e-12)
        assert r.satisfied

    def test_reduction_to_hyperbolic_at_minus_half(self):
        reports = {r.label: r for r in bessel_prop_checks(-0.5, 1.0, 2.0)}
        i1, i11 = reports["prop6.i1"], reports["prop6.i11"]
        assert math.isclose(i1.lhs, i11.lhs, rel_tol=1e-10)
        assert math.isclose(i1.rhs, i11.rhs, rel_tol=1e-10)

    def test_derivative_identity_against_mpmath(self):
        # prop6.i1 writes nI_p' as x nI_{p+1} / (2(p+1)); see conftest for the bound
        for p in (-0.5, 0.0, 0.5, 1.0, 2.5):
            for x in (0.1, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0):
                gap, allowed = normalized_I_identity(p, x)
                assert gap <= allowed, (p, x, gap, allowed)

    def test_second_kind_ratio_bound(self):
        reports = {r.label: r for r in bessel_prop_checks(2.0, 1.0, 1.5)}
        assert "prop7.ii" in reports
        assert reports["prop7.ii"].satisfied

    def test_second_kind_check_needs_narrow_interval(self):
        labels = [r.label for r in bessel_prop_checks(2.0, 1.0, 4.0)]
        assert "prop7.ii" not in labels

    def test_wide_interval_still_defined_for_first_kind(self):
        # lo < 0 is fine: the normalized function is even and entire
        reports = {r.label: r for r in bessel_prop_checks(1.0, 1.0, 4.0)}
        assert "prop6.i1" in reports

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            bessel_prop_checks(1.0, 2.0, 1.0)


class TestQDigammaPropChecks:
    @pytest.mark.parametrize("q,a,b", [(0.5, 1.0, 2.0), (2.0, 2.0, 3.0), (0.3, 3.0, 4.0)])
    def test_reports_emitted_and_satisfied(self, q, a, b):
        slope_report, refine_report = qdigamma_prop_checks(q, a, b)
        assert slope_report.label == "prop8" and slope_report.satisfied
        assert refine_report.label == "prop9" and refine_report.satisfied

    def test_wide_interval_rejected(self):
        with pytest.raises(PreconditionError, match="3a - b"):
            qdigamma_prop_checks(0.5, 1.0, 4.0)

    def test_bad_q(self):
        with pytest.raises(DomainError):
            qdigamma_prop_checks(1.0, 1.0, 2.0)


@pytest.mark.parametrize("call, name", [
    (lambda v: normalized_I_series(v, 1.0), "p"),
    (lambda v: normalized_I_series(1.0, v), "x"),
    (lambda v: bessel_I(v, 1.0), "p"),
    (lambda v: bessel_I(1.0, v), "x"),
    (lambda v: bessel_K(v, 1.0), "p"),
    (lambda v: bessel_K(1.0, v), "x"),
    (lambda v: q_digamma(v, 1.0), "q"),
    (lambda v: q_digamma(2.0, v), "x"),
    (lambda v: q_digamma_deriv(0.5, v, 1), "x"),
])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_an_argument_that_is_not_finite_is_a_domain_error_naming_it(call, name, value):
    # a NaN order fails the first-kind order check first, which names it too
    with pytest.raises(DomainError, match=f"{name} = {value!r}"):
        call(value)


def test_series_result_fields():
    sr = SeriesResult(1.0, 3, 1e-15)
    assert (sr.value, sr.terms_used, sr.tail_bound) == (1.0, 3, 1e-15)


def test_series_result_lives_in_core():
    from hhaudit import core, oracle

    assert SeriesResult is core.SeriesResult
    assert isinstance(oracle.integrate_ref(lambda x: 1.0, core.Interval(0.0, 1.0)), SeriesResult)

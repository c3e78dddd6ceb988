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
from conftest import normalized_I_identity, outcome_digest

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

    @pytest.mark.parametrize("p", [-0.5, 0.0, 0.5, 2.5, 10.0, 100.0])
    def test_tail_bound_within_the_relative_target(self, p):
        # the normalized series is at least 1, so tail_bound <= abs_tol |value|, within
        # max(abs_tol, rel_tol |value|) at any size: I_100(300) is 2.9e121, its bound 1.7e47
        for x in (0.1, 1.0, 10.0, 50.0, 300.0):
            sr = bessel_I(p, x)
            assert sr.tail_bound <= DEFAULT_TOL.abs_tol * sr.value
            assert sr.tail_bound <= max(DEFAULT_TOL.abs_tol, DEFAULT_TOL.rel_tol * sr.value)


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
        # at x = 1e-310 the sum reaches t = 710, where cosh overflows, before its tail is bounded
        with pytest.raises(ConvergenceError, match=r"not boundable \(p=0.0, x=1e-310\)"):
            bessel_K(0.0, 1e-310)

    def test_the_node_cap_has_its_own_message(self):
        # at p = x = 1e10 the step is so small that the 2^16-node cap stops the sum long before t = 710
        with pytest.raises(ConvergenceError) as info:
            bessel_K(1e10, 1e10)
        assert str(info.value) == "second-kind sum not converged within 2^16 nodes (p=10000000000.0, x=10000000000.0)"

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


@pytest.mark.parametrize("q, order, want", [
    (0.5, 0, ("0x1.a7e37dbc8f127p-2", 16, "0x1.30d563b7866fap-42")),
    (0.5, 1, ("0x1.c5b9c2e3efa0ep-3", 17, "0x1.5439f33699fcfp-41")),
    (0.5, 3, ("0x1.c3b72d8711dd2p-3", 20, "0x1.da4fcc0c397aap-41")),
    (2.0, 0, ("0x1.1b6af766f5941p+0", 16, "0x1.30d563b7866fap-42")),
    (2.0, 1, ("0x1.d452a0a89f872p-1", 17, "0x1.5439f33699fcfp-41")),
    (2.0, 3, ("0x1.c3b72d8711dd2p-3", 20, "0x1.da4fcc0c397aap-41")),
])
def test_q_digamma_family_bit_for_bit(q, order, want):
    """Value, terms and tail at x = 2.5 on both sides of q = 1, pinned by ``float.hex``: q = 2
    runs the series in 1/q = 0.5, so terms and tails match and only the closed parts differ."""
    sr = q_digamma(q, 2.5) if order == 0 else q_digamma_deriv(q, 2.5, order)
    assert (sr.value.hex(), sr.terms_used, sr.tail_bound.hex()) == want


def test_bessel_K_bit_for_bit():
    """A seeded grid of orders p in [-5, 10] and arguments x in 10^[-3, 2.5], with an overflowing
    value and an unboundable tail: every value, node count, bound and error message, hashed."""
    rng = random.Random(29)
    grid = [(rng.uniform(-5.0, 10.0), 10.0 ** rng.uniform(-3.0, 2.5)) for _ in range(400)]
    grid += [(800.0, 1.0), (0.0, 1e-310)]
    digest = outcome_digest(lambda p=p, x=x: bessel_K(p, x) for p, x in grid)
    assert digest == "72f3681c0222022d79d3c00a0c0b611e211c684cf4e1ce4b8b7f722409abe603"


def test_the_reflected_series_names_its_own_base_at_the_term_cap():
    with pytest.raises(ConvergenceError) as exc:
        q_digamma_deriv(1.01, 0.5, 3, ToleranceConfig(max_series_terms=50))
    assert str(exc.value) == (
        "q-digamma series needs more than 50 terms (q = 0.9900990099009901, x = 0.5); raise max_series_terms"
    )


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

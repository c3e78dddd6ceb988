import math
import random

import pytest
from hypothesis import given, strategies as st

from hhaudit.core import (
    BoundReport,
    DEFAULT_TOL,
    DomainError,
    Interval,
    ToleranceConfig,
    conjugate_exponent,
    extend,
    make_report,
    power_mean,
    sample_convexity,
)
from hhaudit.exprlang import parse


class TestInterval:
    def test_valid(self):
        iv = Interval(0.0, 2.0)
        assert iv.width == 2.0
        assert iv.midpoint == 1.0

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0)])
    def test_rejects_degenerate(self, a, b):
        with pytest.raises(ValueError):
            Interval(a, b)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)


class TestExtend:
    def test_unit_example(self):
        ext = extend(Interval(0.0, 2.0))
        assert (ext.a, ext.b, ext.midpoint) == (-1.0, 3.0, 1.0)

    def test_shifted_example(self):
        ext = extend(Interval(1.0, 2.0))
        assert (ext.a, ext.b, ext.midpoint) == (0.5, 2.5, 1.5)

    def test_width_doubling_1000_random(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            a = rng.uniform(-50.0, 50.0)
            b = a + rng.uniform(1e-3, 20.0)
            ext = extend(Interval(a, b))
            assert math.isclose(ext.b - ext.a, 2.0 * (b - a), rel_tol=1e-13)

    def test_ordering_chain(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rng.uniform(-10, 10)
            b = a + rng.uniform(0.01, 5)
            iv = Interval(a, b)
            ext = extend(iv)
            assert ext.a < a < iv.midpoint < b < ext.b
            assert math.isclose(iv.midpoint, ext.midpoint, rel_tol=1e-12, abs_tol=1e-12)

    @given(
        a=st.floats(-1e4, 1e4),
        w=st.floats(1e-2, 1e3),
        s=st.floats(-1e4, 1e4),
    )
    def test_affine_equivariance(self, a, w, s):
        base = extend(Interval(a, a + w))
        shifted = extend(Interval(a + s, a + w + s))
        scale = max(1.0, abs(a), abs(s), w)
        assert abs(shifted.a - (base.a + s)) <= 1e-12 * scale
        assert abs(shifted.b - (base.b + s)) <= 1e-12 * scale
        assert abs(shifted.midpoint - (base.midpoint + s)) <= 1e-12 * scale

    def test_overflowing_end_is_a_domain_error(self):
        # 3b overflows although b does not; an Interval would refuse the inf with a plain ValueError
        with pytest.raises(DomainError, match=r"widened interval of \[1e\+307, 1\.2e\+308\] overflows"):
            extend(Interval(1e307, 1.2e308))


class TestConjugateExponent:
    def test_self_conjugate(self):
        assert conjugate_exponent(2.0) == 2.0

    def test_three(self):
        assert conjugate_exponent(3.0) == 1.5

    def test_rejects_one(self):
        with pytest.raises(DomainError, match="conjugate undefined"):
            conjugate_exponent(1.0)

    @given(q=st.floats(1.0 + 1e-6, 100.0))
    def test_involution(self, q):
        p = conjugate_exponent(q)
        assert math.isclose(conjugate_exponent(p), q, rel_tol=DEFAULT_TOL.rel_tol)
        assert math.isclose(1.0 / p + 1.0 / q, 1.0, rel_tol=1e-12)


class TestToleranceConfig:
    def test_defaults(self):
        cfg = ToleranceConfig()
        assert cfg.abs_tol == 1e-12
        assert cfg.rel_tol == 1e-10
        assert cfg.max_series_terms == 500

    @pytest.mark.parametrize(
        "kwargs", [{"abs_tol": 0.0}, {"rel_tol": -1.0}, {"max_series_terms": 0}, {"abs_tol": math.inf}]
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            ToleranceConfig(**kwargs)


class TestBoundReport:
    def test_margin_and_satisfied_are_consistent(self):
        rng = random.Random(3)
        for _ in range(200):
            lhs = rng.uniform(-5, 5)
            rhs = rng.uniform(-5, 5)
            r = make_report("case", lhs, rhs, {})
            assert r.margin == rhs - lhs
            assert r.satisfied == (r.margin >= -DEFAULT_TOL.abs_tol)

    def test_tolerance_slack(self):
        assert make_report("edge", 1.0, 1.0 - 1e-13, {}).satisfied
        assert not make_report("edge", 1.0, 1.0 - 1e-9, {}).satisfied

    def test_label_required(self):
        with pytest.raises(ValueError):
            BoundReport("", 0.0, 0.0, 0.0, True, {})

    @pytest.mark.parametrize("lhs, rhs", [(math.nan, 1.0), (0.0, math.nan)])
    def test_undefined_side_is_a_domain_error_naming_the_label(self, lhs, rhs):
        with pytest.raises(DomainError, match="^edge: a side is undefined"):
            make_report("edge", lhs, rhs, {})


class TestPowerMean:
    @pytest.mark.parametrize("q", [1.0, 2.0, 1e3, 1e6])
    def test_edges(self, q):
        for w in (0.5, 1.0 / (q + 2.0), 2.0 / (q + 3.0)):
            for x in (5e-324, 1e-300, 1.0, 3.0, 1e300, 1.7976931348623157e308):
                assert power_mean(q, x, x, w) == x  # u = v gives m exactly: w + fl(1 - w) = 1
            assert power_mean(q, 0.0, 0.0, w) == 0.0
            assert power_mean(q, math.inf, 2.0, w) == power_mean(q, 0.0, math.inf, w) == math.inf
            assert power_mean(q, 0.0, 3.0, w) == 3.0 * (1.0 - w) ** (1.0 / q)


class TestSampleConvexity:
    def test_convex_square(self):
        r = sample_convexity(parse("x^2"), Interval(-1.0, 3.0), 48)
        assert r.satisfied

    def test_concave_square_violates(self):
        r = sample_convexity(parse("-(x^2)"), Interval(-1.0, 3.0), 48)
        assert not r.satisfied
        assert r.lhs > 0

    def test_pole_inside_reports_domain_error(self):
        # the quarter point of [-1, 3] is exactly 0, where 1/x is undefined
        with pytest.raises(DomainError, match="x = 0.0"):
            sample_convexity(parse("1/x"), Interval(-1.0, 3.0), 48)

    def test_a_parsed_function_runs_the_guards_compiled_scan(self, scans):
        # the scan that convexity_guard runs, with f's jet inlined, not the generic one calling f at each point
        r = sample_convexity(parse("exp(x)+x^4"), Interval(1.0, 2.0), 32)
        assert [scan[:5] for scan in scans] == [(0, 1.0, 2.0, 32, 16)]
        assert scans[0].result == (r.lhs, r.inputs["worst_at"])
        assert r.satisfied
        assert (r.lhs.hex(), r.inputs["worst_at"].hex()) == ("-0x1.f230e6e58b200p-8", "0x1.0800000000000p+0")

    def test_accepts_base_interval_and_callables(self):
        r = sample_convexity(lambda x: x * x, Interval(0.0, 1.0), 12)
        assert r.satisfied

    def test_needs_three_pairs(self):
        with pytest.raises(ValueError):
            sample_convexity(parse("x^2"), Interval(0.0, 1.0), 2)

    def test_deterministic_for_fixed_seed(self):
        a = sample_convexity(parse("exp(x)"), Interval(0.0, 1.0), 24)
        b = sample_convexity(parse("exp(x)"), Interval(0.0, 1.0), 24)
        assert a == b

    def test_an_overflowing_average_does_not_pass_a_concave_function(self):
        # f(x) + f(y) overflows to inf here; f(x)/2 + f(y)/2 does not
        r = sample_convexity(parse("1.7e308 - 1e300*x^2"), Interval(1.0, 2.0), 32)
        assert not r.satisfied
        assert r.lhs == 2.4999999500927996e+299

    def test_an_undefined_gap_is_a_domain_error_naming_the_midpoint(self):
        # -x^2 is -inf on the whole interval, so every gap is inf - inf
        with pytest.raises(DomainError) as exc:
            sample_convexity(parse("-x^2"), Interval(1e200, 2e200), 32)
        assert str(exc.value) == "convexity gap undefined (inf - inf) at the midpoint x = 1.03125e+200"

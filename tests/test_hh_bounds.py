import math
import random

import pytest

from hhaudit.core import Interval, PreconditionError
from hhaudit.exprlang import parse
from hhaudit.hh_bounds import (
    K1,
    Instance,
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
        lower, upper = Instance(parse("x^2"), Interval(0.0, 2.0)).classic()
        assert abs(lower.lhs - 1.0) <= 1e-12
        assert abs(lower.rhs - 4.0 / 3.0) <= 1e-12
        assert abs(upper.rhs - 2.0) <= 1e-12
        assert lower.satisfied and upper.satisfied

    def test_affine_is_equality(self):
        lower, upper = Instance(parse("x"), Interval(0.0, 1.0)).classic()
        assert abs(lower.lhs - 0.5) <= 1e-12
        assert abs(lower.rhs - 0.5) <= 1e-12
        assert abs(upper.rhs - 0.5) <= 1e-12

    def test_exponential(self):
        lower, upper = Instance(parse("exp(x)"), Interval(0.0, 1.0)).classic()
        assert abs(lower.lhs - math.exp(0.5)) <= 1e-12
        assert abs(lower.rhs - (math.e - 1.0)) <= 1e-12
        assert abs(upper.rhs - (1.0 + math.e) / 2.0) <= 1e-12

    def test_concave_rejected(self):
        with pytest.raises(PreconditionError, match="convex"):
            Instance(parse("-(x^2)"), Interval(0.0, 1.0)).classic()


class TestLemmaIdentities:
    def test_lemma1_square(self):
        # both sides equal 1/6 on [0, 1]
        assert Instance(parse("x^2"), Interval(0.0, 1.0)).lemma_residual("lemma1") < 1e-10

    def test_lemma2_affine(self):
        assert Instance(parse("3*x - 1"), Interval(-2.0, 5.0)).lemma_residual("lemma2") < 1e-10

    def test_lemma1_exponential(self):
        assert Instance(parse("exp(x)"), Interval(0.0, 1.0)).lemma_residual("lemma1") < 1e-8

    @pytest.mark.parametrize("which", ["lemma1", "lemma2"])
    @pytest.mark.parametrize("fn", ["x^2", "x^3", "exp(x)"])
    def test_smooth_battery_random_intervals(self, which, fn):
        rng = random.Random(hash((which, fn)) & 0xFFFF)
        expr = parse(fn)
        for _ in range(10):
            assert Instance(expr, draw_interval(rng)).lemma_residual(which) <= 1e-8

    def test_unknown_lemma(self):
        with pytest.raises(ValueError):
            Instance(parse("x"), Interval(0.0, 1.0)).lemma_residual("lemma3")


class TestThreePoint:
    def test_square_closed_form(self):
        lower, upper = Instance(parse("x^2"), Interval(0.0, 2.0)).three_point()
        assert abs(lower.lhs - 1.0) <= 1e-12
        assert abs(lower.rhs - 4.0 / 3.0) <= 1e-12
        assert abs(upper.rhs - 3.0) <= 1e-12

    def test_affine_equality(self):
        lower, upper = Instance(parse("x"), Interval(0.0, 1.0)).three_point()
        assert abs(upper.rhs - 0.5) <= 1e-12
        assert abs(upper.lhs - 0.5) <= 1e-12

    def test_exponential(self):
        _, upper = Instance(parse("exp(x)"), Interval(0.0, 1.0)).three_point()
        expected = (2.0 * math.exp(0.5) + math.exp(1.5) + math.exp(-0.5)) / 4.0
        assert abs(upper.rhs - expected) <= 1e-12
        assert abs(upper.lhs - (math.e - 1.0)) <= 1e-12

    def test_battery_always_satisfied(self, battery):
        rng = random.Random(1001)
        for _ in range(100):
            iv = draw_interval(rng)
            for _, expr in battery:
                lower, upper = Instance(expr, iv).three_point()
                assert lower.satisfied and upper.satisfied


class TestAbsHalf:
    def test_affine_equality(self):
        r = Instance(parse("x"), Interval(0.0, 1.0)).abs_half()
        assert abs(r.lhs - 0.25) <= 1e-12
        assert abs(r.rhs - 0.25) <= 1e-12
        assert r.satisfied and r.fragile

    def test_square(self):
        r = Instance(parse("x^2"), Interval(0.0, 2.0)).abs_half()
        assert abs(r.lhs - 5.0 / 6.0) <= 1e-12
        assert abs(r.rhs - 2.5) <= 1e-12
        assert r.satisfied

    def test_shift_counterexample(self):
        # vertical shift zeroes the right side while the left side grows
        r = Instance(parse("x^2-5"), Interval(0.0, 2.0)).abs_half()
        assert abs(r.lhs - 5.0 / 3.0) <= 1e-12
        assert r.rhs == 0.0
        assert not r.satisfied
        assert r.fragile


class TestFirstOrder:
    def test_square_q1(self):
        lhs, rhs = Instance(parse("x^2"), Interval(0.0, 1.0), 1.0).first_order()
        assert abs(lhs - 1.0 / 12.0) <= 1e-12
        assert abs(rhs["thm2"] - 0.5) <= 1e-12
        # no Hoelder-form side at q = 1, so thm2 is the smallest side too
        assert list(rhs) == ["thm2"]
        assert K1 == 0.125

    def test_square_q2(self):
        lhs, rhs = Instance(parse("x^2"), Interval(0.0, 1.0), 2.0).first_order()
        assert abs(rhs["thm3"] - math.sqrt(5.0 / 24.0)) <= 1e-12
        assert abs(lhs - 1.0 / 12.0) <= 1e-12
        assert lhs <= rhs["thm3"]

    def test_affine_zero_lhs(self):
        rng = random.Random(4)
        for _ in range(20):
            lhs, _ = Instance(parse("2*x+3"), draw_interval(rng), 1.0).first_order()
            assert lhs <= 1e-12

    def test_rejects_q_below_one(self):
        with pytest.raises(PreconditionError):
            Instance(parse("x^2"), Interval(0.0, 1.0), 0.5).first_order()

    def test_scale_covariance_of_thm2_rhs(self):
        rng = random.Random(5)
        for q in (1.0, 1.5, 2.0, 3.0):
            iv = draw_interval(rng)
            c = rng.uniform(0.5, 4.0)
            _, base = Instance(parse("exp(x)"), iv, q).first_order()
            _, scaled = Instance(parse(f"{c!r}*exp(x)"), iv, q).first_order()
            assert math.isclose(scaled["thm2"], c * base["thm2"], rel_tol=1e-13)

    def test_k2_constants_ordering(self):
        # the printed combined constant is looser than the theorem-consistent one
        for i in range(100):
            q = 1.0 + (10.0 - 1.0) * (i + 1) / 100.0
            assert k2_derived_constant(q) <= k2_printed_constant(q) + 1e-15
        # and the derived one is above K1 = 1/8 at every q > 1, since p + 1 < 2^p for p > 1, so the
        # first-order certificates take K1: at q = 2^k and 10^k, and at p = 1 + j 2^-52 near p = 1
        ps = [1.0 + j * 2.0**-52 for j in range(1, 20_001)]
        for q in [2.0**k for k in range(1, 1024)] + [10.0**k for k in range(1, 309)] + [p / (p - 1.0) for p in ps]:
            assert k2_derived_constant(q) > K1, q

    def test_thm3_rhs_equals_derived_constant_form(self):
        iv = Interval(0.0, 1.0)
        for q in (1.5, 2.0, 3.0, 7.5):
            _, rhs = Instance(parse("exp(x)"), iv, q).first_order()
            dlo = math.exp(-0.5)
            dhi = math.exp(1.5)
            s_root = (dlo**q + dhi**q) ** (1.0 / q)
            assert math.isclose(rhs["thm3"], k2_derived_constant(q) * iv.width * s_root, rel_tol=1e-12)


class TestSecondOrder:
    def test_square_q1(self):
        lhs, rhs = Instance(parse("x^2"), Interval(0.0, 1.0), 1.0).second_order()
        assert abs(lhs - 5.0 / 12.0) <= 1e-12
        assert abs(rhs["thm4"] - 2.0 / 3.0) <= 1e-12
        assert "thm5" not in rhs and "thm6" not in rhs
        assert lhs <= rhs["thm4"]

    def test_k3_equals_k6_at_q1(self):
        # both reduce to (|f''(lo)| + |f''(hi)|)/6 times (b-a)^2
        rng = random.Random(6)
        for _ in range(10):
            _, rhs = Instance(parse("exp(x)"), draw_interval(rng), 1.0).second_order()
            assert math.isclose(rhs["thm4"], rhs["thm7"], rel_tol=1e-12)

    def test_affine_zero_everywhere(self):
        lhs, rhs = Instance(parse("x"), Interval(0.0, 1.0), 1.0).second_order()
        assert lhs <= 1e-12
        assert rhs["thm4"] <= 1e-12

    def test_exp_q2_all_sides_present(self):
        lhs, rhs = Instance(parse("exp(x)"), Interval(0.0, 1.0), 2.0).second_order()
        for name in ("thm4", "thm5", "thm6", "thm7"):
            assert rhs[name] > 0
        assert rhs["cor2"] == min(rhs["thm4"], rhs["thm5"], rhs["thm6"], rhs["thm7"])
        assert lhs <= rhs["cor2"]

    def test_k4_gamma_ratio_closed_form(self):
        # |f''| = 2, (b-a)^2 = 4, p = q = 2: K4 = 2 * 4 * (sqrt(pi) G(3) / (2 G(7/2)))^(1/2) * 2
        _, rhs = Instance(parse("x^2"), Interval(0.0, 2.0), 2.0).second_order()
        assert math.isclose(rhs["thm5"], 16.0 * math.sqrt(8.0 / 15.0), rel_tol=1e-12)


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
                    for runner in (Instance.first_order, Instance.second_order):
                        try:
                            lhs, rhs = runner(Instance(expr, iv, q))
                        except PreconditionError:
                            tally["guarded"] += 1
                            continue
                        # the smallest theorem side; the printed corollary cor1 is not one
                        if lhs <= min(v for name, v in rhs.items() if name.startswith("thm")) + 1e-12:
                            tally["pass"] += 1
                        else:
                            tally["fail"] += 1
                            findings.append((expr, iv, q, runner.__name__))
        total = tally["pass"] + tally["fail"] + tally["guarded"]
        assert total == 25 * 5 * 4 * 2
        # violations of printed bounds are findings, not test failures
        assert tally["pass"] > 0


def test_mean_integral_matches_closed_form():
    assert math.isclose(Instance(parse("x^2"), Interval(0.0, 2.0)).mean(), 4.0 / 3.0, rel_tol=1e-12)


# each module wrapper runs one check on a fresh Instance; they stay for callers that look them up by name
_WRAPPERS = {
    "mean_integral": (lambda f, iv, q: mean_integral(f, iv), Instance.mean),
    "hh_classic_check": (lambda f, iv, q: hh_classic_check(f, iv), Instance.classic),
    "lemma_identity_residual": (lambda f, iv, q: lemma_identity_residual("lemma2", f, iv),
                                lambda inst: inst.lemma_residual("lemma2")),
    "three_point_check": (lambda f, iv, q: three_point_check(f, iv), Instance.three_point),
    "abs_half_check": (lambda f, iv, q: abs_half_check(f, iv), Instance.abs_half),
    "first_order_bounds": (first_order_bounds, Instance.first_order),
    "second_order_bounds": (second_order_bounds, Instance.second_order),
}


@pytest.mark.parametrize("name", _WRAPPERS)
def test_module_wrapper_matches_its_instance_method(name):
    wrapper, method = _WRAPPERS[name]
    f, iv = parse("exp(x)"), Interval(0.0, 1.0)
    assert wrapper(f, iv, 2.0) == method(Instance(f, iv, 2.0))

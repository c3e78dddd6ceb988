import math
import random

import pytest

from hhaudit import oracle
from hhaudit.core import DEFAULT_TOL, ConvergenceError, DomainError, Interval, ToleranceConfig
from hhaudit.exprlang import parse
from hhaudit.oracle import _WG, _WG_CENTER, _WGK, _WGK_CENTER, _XGK, integrate_ref
from conftest import outcome_digest


def test_weights_sum_to_two():
    assert math.isclose(2.0 * sum(_WGK) + _WGK_CENTER, 2.0, rel_tol=1e-15)
    assert math.isclose(2.0 * sum(_WG) + _WG_CENTER, 2.0, rel_tol=1e-15)


def test_integrate_ref_bit_for_bit():
    """The mean integral and the lemma1 and lemma2 integrands (as :meth:`Instance.lemma_residual`
    builds them) of the audit battery's six functions on seeded intervals, hashed."""
    rng, cases = random.Random(29), []
    for text in ("x^2", "exp(x)+x^4", "cosh(x)", "x*log(x)", "1/x", "x^2-5"):
        f = parse(text)
        jet1, jet2 = f.compiled(1), f.compiled(2)
        for _ in range(8):
            a = rng.uniform(0.1, 3.0)
            b = a + rng.uniform(0.05, 2.0)
            cases += [
                (f, Interval(a, b)),
                (lambda t, a=a, b=b, jet2=jet2: t * (1.0 - t) * jet2(t * a + (1.0 - t) * b)[2], Interval(0.0, 1.0)),
                (lambda t, a=a, b=b, jet1=jet1: t * jet1(b + (a - b) * t)[1], Interval(0.0, 0.5)),
                (lambda t, a=a, b=b, jet1=jet1: (t - 1.0) * jet1(b + (a - b) * t)[1], Interval(0.5, 1.0)),
            ]
    digest = outcome_digest(lambda g=g, iv=iv: integrate_ref(g, iv) for g, iv in cases)
    assert digest == "7758b43a3b5e2c94a1e2e2ae5057a50fbc3b0e3e6621913c6a189a4b9300d951"


class TestIntegrateRef:
    def test_square(self):
        res = integrate_ref(parse("x^2"), Interval(0.0, 2.0))
        assert abs(res.value - 8.0 / 3.0) <= 1e-12
        assert res.tail_bound <= 1e-12

    def test_constant_exact(self):
        assert integrate_ref(lambda x: 3.5, Interval(-1.0, 4.0)).value == 3.5 * 5.0

    def test_exponential(self):
        res = integrate_ref(parse("exp(x)"), Interval(0.0, 1.0))
        assert abs(res.value - (math.e - 1.0)) <= 1e-12
        assert res.tail_bound <= 1e-12

    def test_polynomials_up_to_degree_five_exact(self):
        rng = random.Random(11)
        for degree in range(6):
            for _ in range(20):
                coeffs = [rng.uniform(-3, 3) for _ in range(degree + 1)]
                a = rng.uniform(-2, 1)
                b = a + rng.uniform(0.2, 2.5)

                def poly(x):
                    return sum(c * x**k for k, c in enumerate(coeffs))

                exact = sum(
                    c * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs)
                )
                value = integrate_ref(poly, Interval(a, b)).value
                assert abs(value - exact) <= 1e-13 * max(1.0, abs(exact))

    def test_additive_over_subdivision(self):
        f = parse("exp(x)*x^2")
        tol = 1e-12
        whole = integrate_ref(f, Interval(0.0, 2.0)).value
        left = integrate_ref(f, Interval(0.0, 0.7)).value
        right = integrate_ref(f, Interval(0.7, 2.0)).value
        assert abs(whole - (left + right)) <= 2.0 * tol * max(1.0, abs(whole))

    def test_kink_exhausts_depth(self):
        # an integrable singularity at sqrt(2), which no float and so no node hits: the
        # panel around it keeps the largest error until a half would be too narrow to split
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 / math.sqrt(abs(x * x - 2.0))

        with pytest.raises(ConvergenceError, match=r"stalled on \[1\.0, 2\.0\] at \d+ panels"):
            integrate_ref(f, Interval(1.0, 2.0))
        assert len(calls) <= 15 * (2 * 100 + 1)  # under 100 splits

    def test_rounding_floor_raises(self):
        # below the unit roundoff of the value, the K15 - G7 estimates are noise
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 / (1.0 + x * x)

        with pytest.raises(ConvergenceError):
            integrate_ref(f, Interval(0.0, 1.0), ToleranceConfig(abs_tol=1e-300, rel_tol=1e-300))
        assert len(calls) <= 15 * (2 * 20 + 1)

    @pytest.mark.parametrize("f, exact", [
        (math.sqrt, 2.0 / 3.0),
        (lambda x: math.sqrt(x) * math.log(x), -4.0 / 9.0),
    ])
    def test_endpoint_singularity_within_its_tail_bound(self, f, exact):
        # a global error budget: halving each panel's budget per bisection never met it
        res = integrate_ref(f, Interval(0.0, 1.0))
        assert res.terms_used < 100
        assert abs(res.value - exact) <= res.tail_bound <= DEFAULT_TOL.rel_tol * abs(res.value)

    def test_splits_only_the_worst_panel(self, monkeypatch):
        # exp(40x) puts its error at the right end, so only the panels there are split
        evaluated = []
        gk15 = oracle._gk15_panel

        def panel(f, a, b):
            evaluated.append((a, b))
            return gk15(f, a, b)

        monkeypatch.setattr(oracle, "_gk15_panel", panel)
        res = integrate_ref(lambda x: math.exp(40.0 * x), Interval(0.0, 1.0))
        assert abs(res.value - (math.exp(40.0) - 1.0) / 40.0) <= res.tail_bound
        assert res.terms_used == 5 and len(evaluated) == 2 * 5 - 1  # each panel evaluated once
        assert evaluated[1::2] == [(0.0, 0.5), (0.5, 0.75), (0.75, 0.875), (0.875, 0.9375)]

    def test_evaluates_the_integrand_at_the_nodes_only(self):
        # G7/K15 has no node at a panel end, so x^-0.9 is never evaluated at 0, where it is undefined
        seen = []

        def f(x):
            seen.append(x)
            return x**-0.9

        res = integrate_ref(f, Interval(0.0, 1.0))
        assert abs(res.value - 10.0) <= 1e-8
        assert len(seen) == 15 * (2 * res.terms_used - 1) and 0.0 < min(seen) and max(seen) < 1.0

    def test_deterministic(self):
        f = parse("cosh(x)")
        assert integrate_ref(f, Interval(0.0, 3.0)) == integrate_ref(f, Interval(0.0, 3.0))

    def test_honours_cfg_abs_tol(self):
        f, iv = parse("sqrt(x)"), Interval(0.01, 4.0)
        loose = integrate_ref(f, iv, ToleranceConfig(abs_tol=1e-6))
        assert loose.terms_used < integrate_ref(f, iv).terms_used
        assert loose.tail_bound <= 1e-6

    def test_infinite_kronrod_node_rejected(self):
        # a node of the K15 rule that G7 does not share: K15 is inf, G7 finite
        node = 0.5 - 0.5 * _XGK[0]
        with pytest.raises(DomainError, match=r"not finite on the panel \[0\.0, 1\.0\]"):
            integrate_ref(lambda x: math.inf if x == node else 1.0, Interval(0.0, 1.0))

    def test_overflowing_integrand_rejected_at_once(self):
        calls = []

        def square(x):
            calls.append(x)
            return x * x

        with pytest.raises(DomainError, match="not finite on the panel"):
            integrate_ref(square, Interval(1e200, 2e200))
        assert len(calls) == 15


"""The reference integrator, bessel_K, the certified midpoint rule and the power mean
against an independent 40-digit path (mpmath).

mpmath is a test-only dependency; the package itself imports only the standard
library (see ``test_stdlib_only.py``).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hhaudit.core import DEFAULT_TOL, Interval, power_mean
from hhaudit.exprlang import parse
from hhaudit.oracle import integrate_ref
from hhaudit.quadrature import adaptive_midpoint
from hhaudit.special_fns import bessel_K
from conftest import draw_interval, draw_narrow_interval

mpmath = pytest.importorskip("mpmath")
mp, mpf = mpmath.mp, mpmath.mpf

UNIT_ROUNDOFF = 2.0**-53

# the functions of the audit battery, each with its 40-digit twin
BATTERY = {
    "x^2": lambda t: t**2,
    "x^4": lambda t: t**4,
    "exp(x)": mpmath.exp,
    "cosh(x)": mpmath.cosh,
    "x*log(x)": lambda t: t * mpmath.log(t),
    "1/x": lambda t: 1 / t,
    "sqrt(x)": mpmath.sqrt,
}


@pytest.fixture
def digits40():
    with mp.workdps(40):
        yield


@pytest.mark.parametrize("text", list(BATTERY))
def test_integrate_ref_meets_its_target(text, digits40):
    """Each value lies within the target, and within its tail_bound up to rounding.

    The tail_bound |K15 - G7| is itself at rounding level on these smooth integrands,
    so the check adds, to first order in the unit roundoff u: 4u |f| for evaluating f,
    30u for the 15 weighted terms of a panel and u for the sum over panels, all on
    int |f| <= (b - a) max(|f(a)|, |f(b)|); and the nodes, each placed within 3u b of
    its exact value, which moves the sum by at most 3u b int |f'| = 3u b |f(b) - f(a)|.
    On [0.5, inf) every battery function is monotone and |f| is largest at an end of
    the interval (x log x changes sign at 1), so the endpoint forms hold.
    """
    f, exact = parse(text), BATTERY[text]
    rng = random.Random(2017)
    for _ in range(100):
        iv = draw_interval(rng)
        res = integrate_ref(f, iv)
        ref = mpmath.quad(exact, [mpf(iv.a), mpf(iv.b)])
        target = max(DEFAULT_TOL.abs_tol, DEFAULT_TOL.rel_tol * abs(res.value))
        error = abs(mpf(res.value) - ref)
        assert error <= target, (text, iv)
        ends = exact(mpf(iv.a)), exact(mpf(iv.b))
        rounding = UNIT_ROUNDOFF * (35 * iv.width * max(map(abs, ends)) + 3 * iv.b * abs(ends[1] - ends[0]))
        assert error <= res.tail_bound + rounding, (text, iv)


# the 400-call grid of test_bessel_K_bit_for_bit, the special workload's draw, and edges: large
# values (10, 0.01), (50, 2), (3, 0.0502) and (4, 0.3), small ones (0.5, 50) and (7, 300), and the
# tiny argument (0, 1e-100), where the sum takes its most nodes
_rng = random.Random(29)
BESSEL_K_CASES = [(_rng.uniform(-5.0, 10.0), 10.0 ** _rng.uniform(-3.0, 2.5)) for _ in range(400)]
_rng = random.Random(2017)
BESSEL_K_CASES += [(_rng.uniform(0.0, 3.0), _rng.uniform(0.5, 5.0)) for _ in range(100)]
BESSEL_K_CASES += [(10.0, 0.01), (50.0, 2.0), (3.0, 0.0502), (4.0, 0.3), (0.5, 50.0), (7.0, 300.0), (0.0, 1e-100)]


def test_bessel_K_within_its_tail_bound(digits40):
    """On every call the error is within tail_bound, which fits max(abs_tol, rel_tol |value|),
    and the relative error is at most 1e-13."""
    for p, x in BESSEL_K_CASES:
        res = bessel_K(p, x)
        ref = mpmath.besselk(p, x)
        error = abs(mpf(res.value) - ref)
        assert error <= res.tail_bound <= max(DEFAULT_TOL.abs_tol, DEFAULT_TOL.rel_tol * res.value), (p, x)
        assert error <= 1e-13 * ref, (p, x)


@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("text", list(BATTERY))
def test_second_order_panel_bound(text, q, digits40):
    """On one panel [l, r], |int f - h f(m)| <= (h^3/24) ((g(l) + g(r))/2)^(1/q) with
    g = |f''|^q, an equality for x^2; the runtime's one-panel certificate adds only
    T2's rounding to it."""
    f, exact = parse(text), BATTERY[text]
    rng = random.Random(24)
    for _ in range(20):
        iv = draw_narrow_interval(rng)
        res = adaptive_midpoint(f, iv, 1e300, q)
        assert res.order == 2 and res.partition.panel_count == 1
        left, right = mpf(iv.a), mpf(iv.b)
        h = right - left
        error = abs(mpmath.quad(exact, [left, right]) - h * exact((left + right) / 2))
        g = [abs(mpmath.diff(exact, x, 2)) ** q for x in (left, right)]
        bound = h**3 / 24 * ((g[0] + g[1]) / 2) ** (1 / q)
        assert error <= bound * (1 + mpf(10) ** -30), (text, iv)
        assert abs(mpf(res.t2) - mpmath.quad(exact, [left, right])) <= res.e2_bound, (text, iv)
        assert res.e2_bound >= bound, (text, iv)
        if text == "x^2":
            assert abs(error - bound) <= mpf(10) ** -30 * bound
            assert res.e2_bound <= error * (1 + 1e-6), iv


@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("text", list(BATTERY))
def test_adaptive_midpoint_within_its_certificate(text, q, digits40):
    f, exact = parse(text), BATTERY[text]
    rng = random.Random(13)
    certified = 0
    for _ in range(4):
        iv = draw_narrow_interval(rng)
        ref = mpmath.quad(exact, [mpf(iv.a), mpf(iv.b)])
        for target in (1e-3, 1e-5, 1e-7):
            res = adaptive_midpoint(f, iv, target, q)
            assert res.order == 2
            assert abs(mpf(res.t2) - ref) <= res.e2_bound, (text, iv, target)
            certified += res.certified
    assert certified >= 8


@pytest.mark.parametrize("text, exact, a, b, panels", [
    ("sqrt(x)", mpmath.sqrt, 0.5, 2.0, 1836),
    ("log(x)", mpmath.log, 0.05, 1.0, 5670),
    ("x*log(x)", lambda t: t * mpmath.log(t), 0.1, 2.0, 6490),
    ("x^1.5", lambda t: t ** mpf(1.5), 0.01, 1.0, 2338),
])
def test_second_order_guard_samples_the_interval_not_its_widened_hull(text, exact, a, b, panels, digits40):
    """|f''|^q is convex on [a, b], where the second-order certificate reads it, but the widened
    hull leaves the domain of f (or of f'') at its left end; guarding the hull refused these."""
    res = adaptive_midpoint(parse(text), Interval(a, b), 1e-8)
    assert (res.certified, res.order, res.partition.panel_count) == (True, 2, panels)
    assert abs(mpf(res.t2) - mpmath.quad(exact, [mpf(a), mpf(b)])) <= res.e2_bound


def test_abs_kink_stays_first_order(digits40):
    # f'' = 0 off the kink passes a sampled |f''| guard; a second-order certificate
    # of 0 would accept a t2 far from 0.29
    kink = 1.3
    exact = mpmath.quad(lambda t: abs(t - mpf(kink)), [1, mpf(kink), 2])
    for target in (1e-2, 1e-3, 1e-4):
        res = adaptive_midpoint(parse("abs(x-1.3)"), Interval(1.0, 2.0), target)
        assert res.certified and res.order == 1
        assert abs(mpf(res.t2) - exact) <= res.e2_bound
    assert abs(exact - mpf("0.29")) < 1e-15


_LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@settings(max_examples=1000, deadline=None)
@given(u=_LOG_UNIFORM, v=_LOG_UNIFORM, q=st.floats(0.0, 6.0).map(lambda e: 10.0**e), which=st.integers(0, 2))
def test_power_mean_meets_its_derived_bound(u, v, q, which):
    """Within (6 + 5/q) eps of (w u^q + (1 - w) v^q)^(1/q) at 40 digits, the float w taken as exact."""
    w = (0.5, 1.0 / (q + 2.0), 2.0 / (q + 3.0))[which]  # thm2-thm4, P1-P3 and the certificates; K5; K6
    got = power_mean(q, u, v, w)
    with mp.workdps(40):
        wm = mpf(w)
        ref = (wm * mpf(u) ** q + (1 - wm) * mpf(v) ** q) ** (1 / mpf(q))
        assert abs(mpf(got) - ref) <= (6.0 + 5.0 / q) * UNIT_ROUNDOFF * ref

"""The reference integrator and bessel_K against an independent 40-digit path (mpmath).

mpmath is a test-only dependency; the package itself imports only the standard
library (see ``test_stdlib_only.py``).
"""

import random

import pytest

from hhaudit.core import DEFAULT_TOL, ConvergenceError
from hhaudit.exprlang import parse
from hhaudit.oracle import integrate_ref
from hhaudit.special_fns import bessel_K
from conftest import draw_interval

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
    f, exact = parse(text), BATTERY[text]
    rng = random.Random(2017)
    for _ in range(100):
        iv = draw_interval(rng)
        res = integrate_ref(f, iv)
        ref = mpmath.quad(exact, [mpf(iv.a), mpf(iv.b)])
        target = max(DEFAULT_TOL.abs_tol, DEFAULT_TOL.rel_tol * abs(res.value))
        assert abs(mpf(res.value) - ref) <= target, (text, iv)


def _rounding_bound(p: float, x: float, panels: int, value: float) -> float:
    """Rounding in bessel_K's value, to first order in the unit roundoff u.

    The value sums 15 weighted node values per panel, all non-negative, with one
    product and one addition each, so the summation errs by at most
    30 * panels * u * K (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., ch. 4).  Each node value exp(arg) is off by the absolute error of
    arg = -x cosh t + log cosh(p t), at most 3u (x cosh t + |p| t) <= 3u (x + |p|) cosh t,
    plus 2u for the exponential and the last rounding.  Weighted by the integrand,
    cosh t integrates to (K_{p-1}(x) + K_{p+1}(x)) / 2.
    """
    cosh_weighted = (mpmath.besselk(p - 1, x) + mpmath.besselk(p + 1, x)) / 2
    evaluation = 2 * value + 3 * (x + abs(p)) * float(cosh_weighted)
    return UNIT_ROUNDOFF * (30 * panels * value + evaluation)


def test_bessel_K_within_its_tail_bound(digits40):
    stalled = []
    for p in (0.0, 0.5, 1.0, 2.0, 2.5, 4.0):
        for x in (0.3, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0):
            try:
                res = bessel_K(p, x)
            except ConvergenceError:
                stalled.append((p, x))
                continue
            ref = mpmath.besselk(p, x)
            allowed = res.tail_bound + _rounding_bound(p, x, res.terms_used, res.value)
            assert abs(mpf(res.value) - ref) <= allowed, (p, x)
    # K_4(0.3) ~ 6e3: its absolute target of 1e-12 is below what a 1e-15
    # relative floor delivers, so bessel_K refuses rather than return it
    assert stalled == [(4.0, 0.3)]


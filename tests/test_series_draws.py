"""The q-digamma series and ``bessel_K``'s trapezoid sum against ``series_oracle``, which evaluates each
stop test on every term: seeded draws, the edges where a skipped test must not move the stop, and a
count of the ``sinh`` calls that the skip saves."""

import math
import random

import pytest

import series_oracle
from hhaudit import special_fns
from hhaudit.core import DEFAULT_TOL, ToleranceConfig


def _outcome(call):
    """(value, terms, tail) as float hex, or the exception's type and message."""
    try:
        value, terms, tail = call()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return value.hex(), terms, tail.hex()


def _q_series(module_call, qbase, x, weight, cfg):
    return _outcome(lambda: module_call(qbase, x, weight, abs(math.log(qbase)) ** (weight + 1), cfg))


def _k_sum(p, x):
    def call():
        sr = special_fns.bessel_K(p, x)
        return sr.value, sr.terms_used, sr.tail_bound
    return _outcome(call)


def test_the_q_series_matches_its_reference_bitwise():
    """Bases from 1e-330 to 1 - 1e-6, x in 10^[-2, 2], weights 0, 1 and 3 with the scale that
    ``_q_family`` passes, abs_tol down to the subnormals and term caps from 1 to 600."""
    rng = random.Random(36)
    for i in range(3000):
        if i % 3 == 0:
            qbase = 10.0 ** -rng.uniform(0.0, 330.0)
        elif i % 3 == 1:
            qbase = 1.0 - 10.0 ** -rng.uniform(0.3, 6.0)
        else:
            qbase = rng.uniform(0.05, 0.95)
        if not 0.0 < qbase < 1.0:
            continue
        x, weight = 10.0 ** rng.uniform(-2.0, 2.0), rng.choice((0, 1, 3))
        abs_tol = 10.0 ** -rng.uniform(3.0, 325.0) if i % 2 else 10.0 ** -rng.uniform(8.0, 14.0)
        cfg = ToleranceConfig(abs_tol=max(abs_tol, 5e-324), max_series_terms=rng.randint(1, 600))
        args = qbase, x, weight, cfg
        assert _q_series(special_fns._power_tail_series, *args) == _q_series(series_oracle.power_tail_series, *args), args


@pytest.mark.parametrize("qbase, x, weight, cfg, want", [
    # scale rho underflows to 0: a floor divided by it would raise ZeroDivisionError
    (8.6e-125, 6.5, 0, DEFAULT_TOL, ("0x0.0p+0", 1, "0x0.0p+0")),
    # subnormal abs_tol: the tail underflows to 0 and passes at k = 2, while num still exceeds
    # 2 abs_tol (1 - qbase) / (scale rho)
    (5.32e-158, 0.697, 3, ToleranceConfig(abs_tol=2.4585e-320, max_series_terms=471),
     ("0x1.cd79c435ff14cp-365", 2, "0x0.0p+0")),
    # the tightest stop: the test passes at k = 1 with num at 0.999 of abs_tol (1 - qbase) / (scale rho),
    # so a floor below that would move the stop
    (1e-3, 2.14003, 0, DEFAULT_TOL, ("0x1.988c996f9b7e6p-22", 1, "0x1.1935de37873d7p-40")),
    # the term cap of a small max_series_terms
    (0.5, 1.0, 1, ToleranceConfig(max_series_terms=5),
     ("ConvergenceError", "q-digamma series needs more than 5 terms (q = 0.5, x = 1.0); raise max_series_terms")),
    # q near 1: the default cap, and a cap that lets the series converge
    (0.99, 1.0, 1, DEFAULT_TOL,
     ("ConvergenceError", "q-digamma series needs more than 500 terms (q = 0.99, x = 1.0); raise max_series_terms")),
    (0.99, 1.0, 3, ToleranceConfig(max_series_terms=5000), ("0x1.2f7f859e6c87ep+29", 4342, "0x1.17396334adb39p-40")),
])
def test_the_q_series_edges(qbase, x, weight, cfg, want):
    assert _q_series(series_oracle.power_tail_series, qbase, x, weight, cfg) == want
    assert _q_series(special_fns._power_tail_series, qbase, x, weight, cfg) == want


def test_bessel_K_matches_its_reference_bitwise():
    """The benchmark's draw, a wide one, and orders 145-160 at x near 1, where the unscaled sum
    overflows: every value the reference returns, and every error it raises, stays the same, apart
    from values up to the float maximum that it refuses as beyond the float range."""
    rng = random.Random(36)
    draws = [(rng.uniform(0.0, 3.0), rng.uniform(0.5, 5.0)) for _ in range(300)]
    draws += [(rng.uniform(-5.0, 10.0), 10.0 ** rng.uniform(-3.0, 2.5)) for _ in range(300)]
    draws += [(rng.uniform(145.0, 160.0), rng.uniform(0.9, 1.1)) for _ in range(300)]
    returned = 0
    for p, x in draws:
        reference, got = _outcome(lambda: series_oracle.bessel_K(p, x)), _k_sum(p, x)
        if reference[0] == "DomainError" and "beyond the float range" in reference[1] and got != reference:
            assert float.fromhex(got[0]) > 1e300, (p, x)
            returned += 1
        else:
            assert got == reference, (p, x)
    assert returned == 9


@pytest.mark.parametrize("p, want", [(150.64, "0x1.db9a57e2b5127p+1019"), (151.0, "0x1.cfb7a3ad49530p+1022")])
def test_values_up_to_the_float_maximum_are_returned(p, want):
    """The unscaled sum overflows here (the reference refuses), so the terms are taken again times 2^-64."""
    with pytest.raises(special_fns.DomainError, match="beyond the float range"):
        series_oracle.bessel_K(p, 1.0)
    sr = special_fns.bessel_K(p, 1.0)
    assert sr.value.hex() == want and sr.tail_bound <= DEFAULT_TOL.rel_tol * sr.value


def test_bessel_K_calls_sinh_about_once(monkeypatch):
    """Over the benchmark's draw of (p, x), the stop test and its sinh wait until they could pass:
    441 sinh calls for 400 sums (the reference makes 7,074), at most 2 in one sum."""
    rng = random.Random(36)
    draws = [(rng.uniform(0.0, 3.0), rng.uniform(0.5, 5.0)) for _ in range(400)]
    sinh, counts = math.sinh, []
    monkeypatch.setattr(math, "sinh", lambda t: counts.__setitem__(-1, counts[-1] + 1) or sinh(t))
    for p, x in draws:
        counts.append(0)
        special_fns.bessel_K(p, x)
    assert (sum(counts), max(counts)) == (441, 2)
    counts.append(0)
    for p, x in draws:
        series_oracle.bessel_K(p, x)
    assert counts[-1] == 7074

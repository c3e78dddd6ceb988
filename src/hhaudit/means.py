"""Special means of positive reals and the propositions tying them to the bounds.

The arithmetic, geometric, logarithmic and generalized logarithmic means are
one plain function each.  Each proposition instantiates the three-point /
first-derivative machinery at a concrete power function (x^n, 1/x^2, 1/x), so
its two displays can be evaluated purely from closed-form means.  The first
display inherits the fragile half-value form; the second is the combined
first-order bound with min{1/8, derived Hoelder constant}.  Both read the
widened ends from :func:`hhaudit.core.widen` as floats, so an end that
overflows enters the closed forms as inf rather than raising.
"""

from __future__ import annotations

import math

from .core import (
    BoundReport,
    DEFAULT_TOL,
    DomainError,
    ToleranceConfig,
    make_report,
    require_exponent,
    require_positive_pair,
    require_positive_widening,
    widen,
)
from .hh_bounds import min_first_order_constant


def arithmetic_mean(a: float, b: float) -> float:
    """A(a, b) = (a + b)/2 of 0 < a < b."""
    require_positive_pair(a, b)
    return 0.5 * (a + b)


def geometric_mean(a: float, b: float) -> float:
    """G(a, b) = sqrt(ab) of 0 < a < b."""
    require_positive_pair(a, b)
    return math.sqrt(a * b)


def logarithmic_mean(a: float, b: float) -> float:
    """L(a, b) = (b - a)/(ln b - ln a) of 0 < a < b."""
    require_positive_pair(a, b)
    return (b - a) / (math.log(b) - math.log(a))


def _gen_log_power(n: int, a: float, b: float) -> float:
    # L_n(a,b)^n without the 1/n root/power round trip
    return (b ** (n + 1) - a ** (n + 1)) / ((b - a) * (n + 1))


def generalized_log_mean(n: int, a: float, b: float) -> float:
    """L_n(a, b) = [(b^(n+1) - a^(n+1)) / ((n + 1)(b - a))]^(1/n) of 0 < a < b, for an
    integer n outside {-1, 0}."""
    if n in (-1, 0):
        raise ValueError(f"generalized log mean needs integer n not in {{-1, 0}}, got {n!r}")
    require_positive_pair(a, b)
    return _gen_log_power(n, a, b) ** (1.0 / n)


def means_proposition_check(
    prop: str,
    a: float,
    b: float,
    *,
    q: float = 1.0,
    n: int = 2,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> tuple[BoundReport, BoundReport]:
    """Evaluate both displays of one special-means proposition.

    ``prop`` is "P1" (power mean, order n), "P2" (inverse-square / geometric),
    or "P3" (reciprocal / logarithmic).  Negative powers need the widened
    interval inside (0, inf), i.e. b < 3a; that guard is enforced and reported
    as a precondition failure naming 3a - b.
    """
    key = prop.upper()
    if key not in ("P1", "P2", "P3"):
        raise ValueError(f"proposition must be P1, P2, or P3, got {prop!r}")
    require_positive_pair(a, b)
    require_exponent(q)
    if key == "P1" and n in (-1, 0):
        raise DomainError(f"P1 needs integer n outside {{-1, 0}}, got {n!r}")
    if key in ("P2", "P3") or (key == "P1" and n < 0):
        require_positive_widening(a, b)
    lo, hi = widen(a, b)
    A = 0.5 * (a + b)
    kconst = min_first_order_constant(q)
    width = b - a

    if key == "P1":
        ln_pow = _gen_log_power(n, a, b)
        lhs1 = abs(2.0 * ln_pow - A**n)
        rhs1 = 0.5 * (abs(hi) ** n + abs(lo) ** n)
        lhs2 = abs(A**n - ln_pow)
        power = (n - 1) * q
        rhs2 = (
            kconst
            * 2.0 ** (1.0 / q)
            * abs(n)
            * width
            * (0.5 * (abs(lo) ** power + abs(hi) ** power)) ** (1.0 / q)
        )
        inputs = {"prop": key, "a": a, "b": b, "n": n, "q": q}
    elif key == "P2":
        g_inv2 = 1.0 / (a * b)
        a_inv2 = A**-2.0
        lhs1 = abs(2.0 * g_inv2 - a_inv2)
        rhs1 = 0.5 * (lo**-2.0 + hi**-2.0)
        lhs2 = abs(g_inv2 - a_inv2)
        # combined-bound factor for f = x^-2 is 2 * 2^(1/q); the printed 4^(1/q)
        # matches it only at q = 1
        rhs2 = (
            kconst
            * 2.0
            * 2.0 ** (1.0 / q)
            * width
            * (0.5 * (lo ** (-3.0 * q) + hi ** (-3.0 * q))) ** (1.0 / q)
        )
        inputs = {"prop": key, "a": a, "b": b, "q": q}
    else:
        l_inv = (math.log(b) - math.log(a)) / (b - a)
        a_inv = 1.0 / A
        lhs1 = abs(a_inv - 2.0 * l_inv)
        rhs1 = 0.5 * (1.0 / lo + 1.0 / hi)
        lhs2 = abs(a_inv - l_inv)
        rhs2 = (
            kconst
            * 2.0 ** (1.0 / q)
            * width
            * (0.5 * (lo ** (-2.0 * q) + hi ** (-2.0 * q))) ** (1.0 / q)
        )
        inputs = {"prop": key, "a": a, "b": b, "q": q}

    first = make_report(f"{key.lower()}.display1", lhs1, rhs1, inputs, cfg, fragile=True)
    second = make_report(f"{key.lower()}.display2", lhs2, rhs2, inputs, cfg)
    return first, second

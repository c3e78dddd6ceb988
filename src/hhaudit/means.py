"""The special-means propositions P1-P3.

Each proposition instantiates the three-point / first-derivative machinery at a
concrete power function f (x^n, 1/x^2, 1/x), so its two displays are closed forms
in the arithmetic, geometric and (generalized) logarithmic means, written inline.
The first display inherits the fragile half-value form.  The second is the
combined first-order bound, min{1/8, derived Hoelder constant} times the
:func:`hhaudit.core.power_mean` of |f'| at the widened ends, its constant factor
taken out.  Both read the widened ends from :func:`hhaudit.core.widen` as floats,
so an end that overflows enters the closed forms as inf rather than raising.
"""

from __future__ import annotations

import math

from .core import (
    BoundReport,
    DEFAULT_TOL,
    DomainError,
    ToleranceConfig,
    make_report,
    power_mean,
    require_exponent,
    require_positive_pair,
    require_positive_widening,
    widen,
)
from .hh_bounds import min_first_order_constant


def _gen_log_power(n: int, a: float, b: float) -> float:
    """L_n(a, b)^n, the generalized logarithmic mean to the n, without the 1/n root/power round trip."""
    return (b ** (n + 1) - a ** (n + 1)) / ((b - a) * (n + 1))


def _check_p1_order(n: int) -> None:
    if n in (-1, 0):
        raise DomainError(f"P1 needs integer n outside {{-1, 0}}, got {n!r}")


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
    if key == "P1":
        _check_p1_order(n)
    if key in ("P2", "P3") or (key == "P1" and n < 0):
        require_positive_widening(a, b)
    lo, hi = widen(a, b)
    A = 0.5 * (a + b)
    inputs = {"prop": key, "a": a, "b": b, **({"n": n} if key == "P1" else {}), "q": q}
    # display2 is min{1/8, K2} 2^(1/q) (b - a) c times the power mean of |f'|/c = |x|^e at lo and hi
    if key == "P1":
        ln_pow = _gen_log_power(n, a, b)
        lhs1 = abs(2.0 * ln_pow - A**n)
        rhs1 = 0.5 * (abs(hi) ** n + abs(lo) ** n)
        lhs2 = abs(A**n - ln_pow)
        c, e = abs(n), n - 1
    elif key == "P2":
        g_inv2 = 1.0 / (a * b)
        a_inv2 = A**-2.0
        lhs1 = abs(2.0 * g_inv2 - a_inv2)
        rhs1 = 0.5 * (lo**-2.0 + hi**-2.0)
        lhs2 = abs(g_inv2 - a_inv2)
        c, e = 2.0, -3.0  # so the factor is 2 * 2^(1/q); the printed 4^(1/q) matches it only at q = 1
    else:
        l_inv = (math.log(b) - math.log(a)) / (b - a)
        a_inv = 1.0 / A
        lhs1 = abs(a_inv - 2.0 * l_inv)
        rhs1 = 0.5 * (1.0 / lo + 1.0 / hi)
        lhs2 = abs(a_inv - l_inv)
        c, e = 1.0, -2.0
    rhs2 = min_first_order_constant(q) * 2.0 ** (1.0 / q) * c * (b - a) * power_mean(q, abs(lo) ** e, abs(hi) ** e)

    first = make_report(f"{key.lower()}.display1", lhs1, rhs1, inputs, cfg, fragile=True)
    second = make_report(f"{key.lower()}.display2", lhs2, rhs2, inputs, cfg)
    return first, second

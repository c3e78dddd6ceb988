"""The special-means propositions P1-P3.

Each proposition instantiates the three-point / first-derivative machinery at a
concrete power function f (x^n, 1/x^2, 1/x).  A proposition is one row of
``_ROWS``: the exact mean of f over [a, b] (the generalized logarithmic, geometric
or logarithmic mean, to the power), f itself, and |f'| as c |x|^e; the two displays
are written once for all three.  The first display inherits the fragile half-value
form.  The second is the combined first-order bound, 1/8 (the derived Hoelder
constant is never smaller) times the :func:`hhaudit.core.power_mean` of |f'| at the
widened ends, its constant factor taken out.  Both read the widened ends from
:func:`hhaudit.core.widen` as floats, so an end that overflows enters the closed
forms as inf rather than raising.
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
from .hh_bounds import K1


def _gen_log_power(n: int, a: float, b: float) -> float:
    """L_n(a, b)^n, the generalized logarithmic mean to the n, without the 1/n root/power round trip."""
    return (b ** (n + 1) - a ** (n + 1)) / ((b - a) * (n + 1))


def _check_p1_order(n: int) -> None:
    if n in (-1, 0):
        raise DomainError(f"P1 needs integer n outside {{-1, 0}}, got {n!r}")


# proposition -> (n, a, b) -> (the exact mean of f over [a, b], f as the proposition prints it,
# c, e) with |f'| = c |x|^e; each row keeps its own spelling (1.0 / x and x ** -1 can round apart)
_ROWS = {
    "P1": lambda n, a, b: (_gen_log_power(n, a, b), lambda x: abs(x) ** n, abs(n), n - 1),
    # c = 2 makes display2's factor 2 * 2^(1/q); the printed 4^(1/q) matches it only at q = 1
    "P2": lambda n, a, b: (1.0 / (a * b), lambda x: x**-2.0, 2.0, -3.0),
    "P3": lambda n, a, b: ((math.log(b) - math.log(a)) / (b - a), lambda x: 1.0 / x, 1.0, -2.0),
}


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
    if key not in _ROWS:
        raise ValueError(f"proposition must be P1, P2, or P3, got {prop!r}")
    require_positive_pair(a, b)
    require_exponent(q)
    if key == "P1":
        _check_p1_order(n)
    if key != "P1" or n < 0:
        require_positive_widening(a, b)
    lo, hi = widen(a, b)
    inputs = {"prop": key, "a": a, "b": b, **({"n": n} if key == "P1" else {}), "q": q}
    mean, power, c, e = _ROWS[key](n, a, b)
    at_mid = power(0.5 * (a + b))
    lhs1 = abs(2.0 * mean - at_mid)
    rhs1 = 0.5 * (power(hi) + power(lo))
    lhs2 = abs(at_mid - mean)
    # display2 is 1/8 2^(1/q) (b - a) c times the power mean of |f'|/c = |x|^e at lo and hi
    rhs2 = K1 * 2.0 ** (1.0 / q) * c * (b - a) * power_mean(q, abs(lo) ** e, abs(hi) ** e)

    first = make_report(f"{key.lower()}.display1", lhs1, rhs1, inputs, cfg, fragile=True)
    second = make_report(f"{key.lower()}.display2", lhs2, rhs2, inputs, cfg)
    return first, second

import collections
import hashlib
import random

import pytest

from hhaudit.core import Interval
from hhaudit.exprlang import Expr, parse
from hhaudit.special_fns import normalized_I_series

UNIT_ROUNDOFF = 2.0**-53

# convex on all of R; used by the battery sweeps
CONVEX_BATTERY = ("x^2", "x^4", "exp(x)", "cosh(x)")


@pytest.fixture
def battery():
    return [(text, parse(text)) for text in CONVEX_BATTERY]


Scan = collections.namedtuple("Scan", "order lo hi steps wide result")


@pytest.fixture
def scans(monkeypatch):
    """Every scan that an evaluator of a parsed function runs during the test, the guards' one seam, in call
    order: the evaluator's order, the region (lo, hi), the grid's step count, the stride of its wide triples, and the
    (worst gap, its midpoint) it returned, or None where it raised.  Evaluators fetched before the test are counted too."""
    log, wrapped, compiled = [], set(), Expr.compiled

    def counting(self, order):
        jet = compiled(self, order)
        if jet not in wrapped:
            wrapped.add(jet)

            def scan(lo, hi, n, wide, scan=jet.scan, **q):
                result = None
                try:
                    result = scan(lo, hi, n, wide, **q)
                    return result
                finally:
                    log.append(Scan(order, lo, hi, n, wide, result))

            monkeypatch.setattr(jet, "scan", scan)
        return jet

    monkeypatch.setattr(Expr, "compiled", counting)
    return log


def outcome_digest(calls) -> str:
    """SHA-256 over each call's ``repr((value, terms_used, tail_bound))``, or its exception's type
    and message: one hex string that changes if any float of any call moves by one ulp."""
    lines = []
    for call in calls:
        try:
            sr = call()
        except Exception as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
        else:
            lines.append(repr((sr.value, sr.terms_used, sr.tail_bound)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def draw_interval(rng: random.Random) -> Interval:
    a = rng.uniform(0.5, 5.0)
    return Interval(a, a + rng.uniform(0.1, 2.0))


def draw_narrow_interval(rng: random.Random) -> Interval:
    """An interval with b < 3a, so the widened interval stays in (0, inf)."""
    a = rng.uniform(0.5, 3.0)
    return Interval(a, a * rng.uniform(1.2, 2.8))


def mp_function(text: str):
    """``text`` evaluated over mpmath at the working precision.

    The function grammar is Python's expression grammar with ``^`` for ``**``
    (right-associative, and binding tighter than unary minus in both), so the
    text evaluates directly.  Its literals become the same doubles as in
    :func:`hhaudit.exprlang.parse`.
    """
    mpmath = pytest.importorskip("mpmath")
    names = {"exp": mpmath.exp, "log": mpmath.log, "sqrt": mpmath.sqrt,
             "sinh": mpmath.sinh, "cosh": mpmath.cosh, "abs": abs}
    code = compile(text.replace("^", "**"), "<fn>", "eval")
    return lambda x: eval(code, {"__builtins__": {}, **names}, {"x": x})


def normalized_I_identity(p: float, x: float):
    """(gap, allowed) for nI_p'(x) = x nI_{p+1}(x) / (2(p+1)) (DLMF 10.29(ii)).

    The right side is the runtime's ``normalized_I_series`` in floating point.
    The left side is the 40-digit derivative of nI_p(x) = Gamma(p+1) (2/x)^p I_p(x)
    by mpmath.  ``gap`` is their distance.  ``allowed`` is the series' tail
    bound, scaled by x/(2(p+1)), plus rounding to first order in the unit
    roundoff u.  The series has N = ``terms_used`` positive terms.  Term n is a
    product of n rounded factors z/(n(p+1+n)), each with 4 roundings plus 1 from
    z = x^2/4, so its relative error is at most 5n u.  Summing the N terms adds
    at most (N - 1) u of the sum (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 4).  That is under 6N u of the value.  The product
    with x and the division add 2u.
    """
    mpmath = pytest.importorskip("mpmath")
    order = p + 1.0
    assert order - 1.0 == p, "p + 1 must be exact, or the series runs at another order"
    with mpmath.mp.workdps(40):
        mp_p = mpmath.mpf(p)

        def nI(t):
            return mpmath.gamma(mp_p + 1) * (2 / t) ** mp_p * mpmath.besseli(mp_p, t)

        exact = mpmath.diff(nI, mpmath.mpf(x))
        series = normalized_I_series(order, x)
        rhs = x * series.value / (2.0 * order)
        gap = float(abs(mpmath.mpf(rhs) - exact))
    allowed = x / (2.0 * order) * series.tail_bound + UNIT_ROUNDOFF * (6 * series.terms_used + 2) * abs(rhs)
    return gap, allowed

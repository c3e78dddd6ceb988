"""The grid guard against the seeded-pair guard it replaced (``guard_oracle.seeded_pairs``), over the audit
battery and over families that are not convex: the grid must refute every case that the pairs refute.

A case is (f, region, order, q, n): n = 32 on an instance's interval or its widened one, and n = 16 on the
widened interval of one panel, as the guards run them.  The grid is the production guard,
:func:`~hhaudit.core.convexity_guard`; the pairs sample point by point at ``n`` pairs.
"""

import itertools

import guard_oracle
from hhaudit.core import Interval, convexity_guard, extend
from hhaudit.exprlang import parse

_BATTERY = ("x^2", "x^4", "exp(x)", "cosh(x)", "x*log(x)", "exp(x)+x^4", "x^2-5")
_FAMILIES = (
    "x^3", "x^3-x", "x^4-3*x^2",
    *(f"cosh(x)-{c}*x^4" for c in (0.01, 0.05, 0.3)), "exp(-x)*x^2",
    "1/x", *(f"((x-{t}+abs(x-{t}))/2)^{s}" for t in (0.3, 1.7) for s in (0.5, 1, 2, 3)),
    *(f"x-{c}*x^2" for c in (1e-9, 1e-11)),
    "1000*x+5",
)
# base intervals: inside (0, inf) at scales 1 to 100, across 0 and across 1/x's pole once widened
_INTERVALS = ((0.5, 1.0), (1.0, 2.0), (0.25, 1.0), (1.2, 3.0), (2.0, 5.0), (-0.42, 2.02), (0.48, 1.03), (-1.0, 1.0),
              (-3.0, -1.0), (-0.3, 0.1), (0.1, 0.35), (5.0, 9.0), (20.0, 21.0), (100.0, 200.0), (0.9, 1.1))
_ORDERS = ((0, 1.0), (1, 1.0), (1, 2.0), (2, 1.0), (2, 2.0))

# (f, region, order, q, n) that the pairs refute and the grid passes: only the affine 1000*x+5 at scales 20 and
# 100, where the pair gaps are the rounding of its values (2.9e-11 on [100, 200], against abs_tol = 1e-12) and the
# grid's points, all on the binary grid of the interval, show none.  The same rounding refutes 2*x at 1e199 on
# the grid, whose points there are not exact midpoints of their neighbours.
_PAIRS_ONLY = {
    ("1000*x+5", (20.0, 21.0), 0, 1.0, 32),
    ("1000*x+5", (19.5, 21.5), 0, 1.0, 32),
    ("1000*x+5", (19.5, 21.5), 0, 1.0, 16),
    ("1000*x+5", (100.0, 200.0), 0, 1.0, 32),
    ("1000*x+5", (50.0, 250.0), 0, 1.0, 32),
    ("1000*x+5", (50.0, 250.0), 0, 1.0, 16),
}


def _passes(run):
    try:
        run()
    except (ValueError, ArithmeticError):
        return False
    return True


def _cases():
    for text, (a, b), (order, q) in itertools.product(_BATTERY + _FAMILIES, _INTERVALS, _ORDERS):
        base = Interval(a, b)
        for region, n in ((base, 32), (extend(base), 32), (extend(base), 16)):
            yield text, region, order, q, n


def test_the_grid_refutes_every_case_the_pairs_refute():
    cases = grid_only = 0
    pairs_only = set()
    for text, region, order, q, n in _cases():
        f = parse(text)
        by_pairs = _passes(lambda: guard_oracle.guard(f, region, order, q, steps=n, sample=guard_oracle.seeded_pairs))
        by_grid = _passes(lambda: convexity_guard(f, order, q, steps=n)(region))
        cases += 1
        grid_only += by_pairs and not by_grid
        if by_grid and not by_pairs:
            pairs_only.add((text, (region.a, region.b), order, q, n))
    assert cases == len(_BATTERY + _FAMILIES) * len(_INTERVALS) * len(_ORDERS) * 3
    assert pairs_only == _PAIRS_ONLY
    # each a real failure of convexity: x^3 and x^3 - x across 0, the cosh - c x^4 and x^4 - 3x^2 humps, 1/x's pole,
    # the jump of a ramp's |f'|, exp(x) + x^4's |f'| left of 0, and x - 1e-11 x^2, whose widest triple shows it
    assert grid_only == 127

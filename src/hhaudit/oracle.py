"""Adaptive refinement and reference integration, independent of the audited rules.

:func:`refine` is the one refinement loop, with the panel rule as an argument.
:func:`integrate_ref` runs it with the Gauss-Kronrod (G7/K15) rule: the ground truth for
every integral left-hand side and identity residual of the audit (``bessel_K`` sums its own
trapezoid rule).  The certified midpoint rule of :mod:`hhaudit.quadrature` runs it with its
certificate shares.  The rules stay of different families, so certificate audits are
never self-confirming.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from .core import ConvergenceError, DEFAULT_TOL, DomainError, Interval, SeriesResult, ToleranceConfig

# 15-point Kronrod abscissae for [-1, 1] (positive half, descending) and
# weights, with the embedded 7-point Gauss weights.  Gauss nodes are the
# odd-indexed Kronrod nodes plus the center.
_XGK = (
    0.9914553711208126392068547,
    0.9491079123427585245261897,
    0.8648644233597690727897128,
    0.7415311855993944398638648,
    0.5860872354676911302941448,
    0.4058451513773971669066064,
    0.2077849550078984676006894,
)
_WGK = (
    0.0229353220105292249637320,
    0.0630920926299785532907007,
    0.1047900103222501838398763,
    0.1406532597155259187451896,
    0.1690047266392679028265834,
    0.1903505780647854099132564,
    0.2044329400752988924141620,
)
_WGK_CENTER = 0.2094821410847278280129992
_WG = (
    0.1294849661688696932706114,
    0.2797053914892766679014678,
    0.3818300505051189449503698,
)
_WG_CENTER = 0.4179591836734693877551020
_NODES = tuple(zip(_XGK, _WGK, (None, _WG[0], None, _WG[1], None, _WG[2], None)))

PANEL_CAP = 1 << 16  # refinement adds one panel per split, so this is the only budget


def _gk15_panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One G7/K15 panel: returns (K15 value, |K15 - G7|).  f runs at the centre c, then at c - dx and
    c + dx for each row (Kronrod node, Kronrod weight, Gauss weight or None) of ``_NODES``, outermost first."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    resk = _WGK_CENTER * fc
    resg = _WG_CENTER * fc
    for xk, wk, wg in _NODES:
        dx = half * xk
        fsum = f(center - dx) + f(center + dx)
        resk += wk * fsum
        if wg is not None:
            resg += wg * fsum
    return half * resk, abs(half * (resk - resg))


def refine(rule, a: float, b: float, stop, point):
    """The one adaptive loop, in the style of QUADPACK's QAG (Piessens et al., 1983).

    ``rule(left, right, at_left, at_right)`` returns a panel's (value, err) from what ``point(x)``
    gave at its ends; ``point`` runs once at a, at b and at each split's midpoint.  A heap of (-err,
    left, right, value, at_left, at_right) pops the worst panel and bisects it, until ``stop(sum of
    values, sum of errs, heap)`` holds on running sums and then on exact ones, at ``PANEL_CAP``
    panels, or at float resolution, where a half of the worst panel could not be split again.
    Returns the panels (left, right, value, err, at_left, at_right) in order and the exact sums.
    """
    at_a, at_b = point(a), point(b)
    value, err = rule(a, b, at_a, at_b)
    heap = [(-err, a, b, value, at_a, at_b)]
    done = stop(value, err, heap)  # on one panel the sums are exact
    while not done and len(heap) < PANEL_CAP:
        worst, left, right, part, at_left, at_right = heap[0]
        mid = 0.5 * (left + right)
        if not left < 0.5 * (left + mid) < mid < 0.5 * (mid + right) < right:
            break  # a rule's nodes collapse onto the ends of a narrower panel
        at_mid = point(mid)
        (lv, le), (rv, re) = rule(left, mid, at_left, at_mid), rule(mid, right, at_mid, at_right)
        heapq.heapreplace(heap, (-le, left, mid, lv, at_left, at_mid))
        heapq.heappush(heap, (-re, mid, right, rv, at_mid, at_right))
        value += lv + rv - part
        err += le + re + worst
        if stop(value, err, heap):
            value, err = math.fsum(p[3] for p in heap), -math.fsum(p[0] for p in heap)
            done = stop(value, err, heap)
    if not done:
        value, err = math.fsum(p[3] for p in heap), -math.fsum(p[0] for p in heap)
    return sorted((p[1], p[2], p[3], -p[0], p[4], p[5]) for p in heap), value, err


def integrate_ref(f: Callable[[float], float], iv: Interval, cfg: ToleranceConfig = DEFAULT_TOL) -> SeriesResult:
    """Integrate ``f`` over ``iv`` adaptively: the value, the panels used and the error estimate.

    :func:`refine` with the G7/K15 rule, whose error is |K15 - G7|, until ``tail_bound <=
    max(cfg.abs_tol, cfg.rel_tol * |value|)``; the relative floor keeps large smooth
    integrals from chasing an absolute target below double-precision resolution.  A panel
    whose value or error is not finite raises :class:`DomainError`.  The cap, float
    resolution and the rounding floor, where the worst error is below the unit roundoff
    of the value, raise :class:`ConvergenceError`.  Deterministic for fixed inputs.
    """

    def rule(a: float, b: float, *_) -> tuple[float, float]:  # G7/K15 has no node at a panel end, so reads none
        value, err = _gk15_panel(f, a, b)
        if not (math.isfinite(value) and math.isfinite(err)):
            raise DomainError(f"integrand not finite on the panel [{a!r}, {b!r}] (value {value!r}, error {err!r})")
        return value, err

    def fits(value: float, err: float) -> bool:
        return err <= max(cfg.abs_tol, cfg.rel_tol * abs(value))

    stop = lambda v, e, heap: fits(v, e) or -heap[0][0] <= 2.0**-53 * abs(v)
    panels, value, err = refine(rule, iv.a, iv.b, stop, lambda x: None)
    if not fits(value, err):
        raise ConvergenceError(
            f"reference integration stalled on [{iv.a!r}, {iv.b!r}] at {len(panels)} panels (error estimate {err!r})"
        )
    return SeriesResult(value, len(panels), err)

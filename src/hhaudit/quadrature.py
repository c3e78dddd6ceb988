"""Composite trapezoid/midpoint rules, the midpoint error certificates, their prop4
and prop5 reports, and an adaptive certified midpoint integrator.  Hypotheses are checked
by :func:`hhaudit.core.convexity_guard`: 1 <= q < inf, and convexity sampled at 16 pairs per
panel or, in :func:`adaptive_midpoint`, at 32 on the widened hull.  T1, T2 and the certificates
are flat passes over ``partition.points``; :func:`adaptive_midpoint` refines in :mod:`hhaudit.oracle`
and, at second order, gives T1 the f values its panels carry.

The first-order certificate (:func:`midpoint_error_bound`, prop5's form) needs |f'|^q
convex and is O(h).  The second-order one needs f in C^2 and g = |f''|^q convex: on a
panel [l, r] of width h, int f - h f(m) = int K f'' with the midpoint rule's Peano
kernel K = (t - l)^2/2 on [l, m], (r - t)^2/2 on [m, r], and int K = h^3/24 (Davis &
Rabinowitz, *Methods of Numerical Integration*).  The power mean with weights K, then
the chord of g (K is symmetric about m), give |int f - h f(m)| <= (h^3/24) ((g(l) +
g(r))/2)^(1/q): O(h^2) in sum, and an equality for quadratics.  Both certificates take
their mean from :func:`hhaudit.core.power_mean` of |f'| or |f''|, never forming a q-th power."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise
from typing import Iterator

from .core import (
    BoundReport,
    DEFAULT_TOL,
    DomainError,
    Interval,
    PreconditionError,
    ToleranceConfig,
    convexity_guard,
    evaluator,
    extend,
    make_report,
    power_mean,
    require_exponent,
    sample_convexity,  # unused here; hhbench's self-tests read this binding
    widen,
)
from .exprlang import Expr, fn_label
from .hh_bounds import K1
from .oracle import PANEL_CAP, integrate_ref, refine


@dataclass(frozen=True)
class Partition:
    """Strictly increasing grid x_0 < x_1 < ... < x_m with m >= 1 panels."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = self.points
        if len(pts) < 2:
            raise ValueError("partition needs at least two points")
        for left, right in zip(pts, pts[1:]):
            if not (math.isfinite(left) and left < right):
                raise ValueError(f"partition points must be finite and strictly increasing, got {left!r} >= {right!r}")
        if not math.isfinite(pts[-1]):
            raise ValueError(f"partition points must be finite, got {pts[-1]!r} as the last point")

    @classmethod
    def uniform(cls, iv: Interval, m: int) -> "Partition":
        if not 1 <= m <= PANEL_CAP:
            raise ValueError(f"need 1 to {PANEL_CAP} panels, got m = {m}")
        pts = [iv.a + iv.width * i / m for i in range(m + 1)]
        pts[0], pts[-1] = iv.a, iv.b
        return cls(tuple(pts))

    @property
    def panel_count(self) -> int:
        return len(self.points) - 1

    def panels(self) -> Iterator[tuple[float, float]]:
        return zip(self.points, self.points[1:])


@dataclass(frozen=True)
class QuadratureResult:
    t1: float
    t2: float
    e2_bound: float
    partition: Partition
    certified: bool
    order: int  # of the certificate: 2 from |f''|^q, 1 from |f'|^q


def trapezoid_T1(f, partition: Partition) -> float:
    total = 0.0
    for (left, f_left), (right, f_right) in pairwise(zip(partition.points, map(evaluator(f), partition.points))):
        total += 0.5 * (f_left + f_right) * (right - left)
    return total


def midpoint_T2(f, partition: Partition) -> float:
    f = evaluator(f)
    total = 0.0
    for left, right in partition.panels():
        total += f(0.5 * (left + right)) * (right - left)
    return total


def _guard_panels(f, partition: Partition, order: int, q: float, cfg: ToleranceConfig) -> None:
    """One :func:`convexity_guard` at 16 pairs on each panel's widened interval; failures name the panel."""
    check = convexity_guard(f, order, q, pairs=16, cfg=cfg)
    for i, (left, right) in enumerate(partition.panels()):
        try:
            check(extend(Interval(left, right)))
        except (DomainError, PreconditionError) as exc:
            raise type(exc)(f"subinterval {i} [{left!r}, {right!r}]: {exc}") from None


def _first_order_term(jet1, q: float, left: float, right: float) -> float:
    """(dx)^2 (|f'(lo*)|^q + |f'(hi*)|^q)^(1/q) = (dx)^2 2^(1/q) power_mean(q, |f'(lo*)|, |f'(hi*)|),
    lo* and hi* the panel's widened ends."""
    lo, hi = widen(left, right)
    return (right - left) ** 2 * 2.0 ** (1.0 / q) * power_mean(q, abs(jet1(lo)[1]), abs(jet1(hi)[1]))


def midpoint_error_bound(f: Expr, partition: Partition, q: float, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Certified bound on the composite midpoint error from |f'|^q convexity, sampled on
    each panel's widened interval: the sum of :func:`_first_order_term` times K1 = 1/8, which
    the derived Hoelder constant never undercuts."""
    require_exponent(q)  # before the panels, whose failures are prefixed with the panel
    _guard_panels(f, partition, 1, q, cfg)
    jet1 = f.compiled(1)
    total = 0.0
    for left, right in partition.panels():
        total += _first_order_term(jet1, q, left, right)
    return K1 * total


def prop4_check(f: Expr, partition: Partition, cfg: ToleranceConfig = DEFAULT_TOL) -> BoundReport:
    """The printed chain |2 int f - T2| <= sum dx |f(lo*) + f(hi*)|/2 (fragile).

    The outer max-based sum of the chain is echoed in the report inputs.
    """
    _guard_panels(f, partition, 0, 1.0, cfg)
    fx = evaluator(f)
    iv = Interval(partition.points[0], partition.points[-1])
    integral = integrate_ref(f, iv, cfg).value
    t2 = midpoint_T2(f, partition)
    lhs = abs(2.0 * integral - t2)
    mid_sum = 0.0
    max_sum = 0.0
    for left, right in partition.panels():
        lo, hi = widen(left, right)
        flo, fhi = fx(lo), fx(hi)
        dx = right - left
        mid_sum += dx * abs(flo + fhi) / 2.0
        max_sum += dx * max(abs(flo), abs(fhi))
    inputs = {
        "fn": fn_label(f),
        "a": iv.a,
        "b": iv.b,
        "panels": partition.panel_count,
        "max_bound": max_sum,
    }
    return make_report("prop4", lhs, mid_sum, inputs, cfg, fragile=True)


def prop5_check(f: Expr, partition: Partition, q: float, cfg: ToleranceConfig = DEFAULT_TOL) -> BoundReport:
    """The true midpoint error |int f - T2| against :func:`midpoint_error_bound`."""
    bound = midpoint_error_bound(f, partition, q, cfg)
    iv = Interval(partition.points[0], partition.points[-1])
    integral = integrate_ref(f, iv, cfg).value
    inputs = {"fn": fn_label(f), "a": iv.a, "b": iv.b, "q": q, "panels": partition.panel_count}
    return make_report("prop5", abs(integral - midpoint_T2(f, partition)), bound, inputs, cfg)


def _rounding(n: int, a: float, b: float, h: float, f0: float, f1: float, f2: float) -> tuple[float, float]:
    """(c, rounding term) of the second-order certificate (1 + c) trunc/24 + rounding, for N = n
    panels of [a, b] at most h wide, with f0, f1, f2 the largest |f|, |f'|, |f''| at the grid
    points x_i.  T2's rounding (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 3): the products, widths and sum err by gamma_(N+1) sum |f(m)| dx, and rounded
    midpoints move each term by dx u max(|a|, |b|) sup|f'|.  g is below its end values on a
    panel, so sup|f'| <= D = f1 + h f2 and sup|f| <= f0 + h D.  c = 2 (N + 8) u covers those,
    and the truncation sum's own rounding.  The error of each evaluation of f is out of scope."""
    c = 2.0 * (n + 8) * 2.0**-53
    return c, c * (b - a) * (f0 + (max(abs(a), abs(b)) + h) * (f1 + h * f2))


def adaptive_midpoint(
    f: Expr, iv: Interval, target: float, q: float = 1.0, cfg: ToleranceConfig = DEFAULT_TOL
) -> QuadratureResult:
    """Refine the midpoint rule on ``iv`` until its certificate fits ``target`` (positive and
    finite), in the loop of :func:`integrate_ref` with a panel's certificate share as its error.

    The order-2 derivative guard (no abs in f, |f''|^q convex on the widened full interval,
    which holds every panel) selects the second-order share, (h^3/24) power_mean(q, |f''(l)|,
    |f''(r)|).  :func:`refine`'s ``point`` runs the (f, f', f'') jet once per grid point, N + 1
    for N final panels, tracks the peaks of |f|, |f'|, |f''| and gives each panel end (f, |f''|):
    the shares read |f''|, and T1 sums the f values.  ``e2_bound`` is :func:`_rounding`'s bound
    from trunc, the exact sum of the final shares, the widest final panel and those peaks.  Its
    rounding term grows with N, so refinement also stops where no split can shrink it.  Where
    that guard raises PreconditionError, the |f'|^q guard runs, the share is prop5's term (1/8 at
    every q) at two f' evaluations per panel, ``point`` evaluates nothing and T1 costs N + 1
    evaluations of f.  T2 costs N.  ``order`` records which.  ``certified`` is ``e2_bound <=
    target``: False after the panel cap, float resolution or the rounding floor stopped it short.
    """
    if not 0.0 < target < math.inf:
        raise ValueError(f"target error must be positive and finite, got {target!r}")
    a, b, hull = iv.a, iv.b, extend(iv)
    try:
        convexity_guard(f, 2, q, cfg=cfg)(hull)
    except PreconditionError:
        convexity_guard(f, 1, q, cfg=cfg)(hull)
        jet1, order = f.compiled(1), 1
        share = lambda l, r, at_l, at_r: (0.0, K1 * _first_order_term(jet1, q, l, r))  # f' at widened ends
        panels, _, bound = refine(share, a, b, lambda _, e, heap: e <= target, lambda x: None)
        f_at = f
    else:
        jet2, peaks, failed, order = f.compiled(2), [0.0, 0.0, 0.0], [0], 2
        share = lambda l, r, at_l, at_r: (0.0, (r - l) ** 3 * power_mean(q, at_l[1], at_r[1]))  # 24 times the share

        def point(x: float) -> tuple[float, float]:  # (f, |f''|) at a grid point; peaks tracks |f|, |f'|, |f''|
            jet = jet2(x)
            peaks[:] = map(max, peaks, map(abs, jet))
            return jet[0], abs(jet[2])

        def stop(_, trunc: float, heap) -> bool:
            # the floor test is sound at the mean width; a fit is confirmed at the widest, once per n/8 at most
            n = len(heap)
            c, rounding = _rounding(n, a, b, (b - a) / n, *peaks)
            if (1.0 + 2.0 * c) * -heap[0][0] / 24.0 <= rounding / (n + 8):
                return True  # the rounding term grows by more per panel than any split saves
            if (1.0 + c) * trunc / 24.0 + rounding > target or 8 * n < 9 * failed[0]:
                return False
            c, rounding = _rounding(n, a, b, max(p[2] - p[1] for p in heap), *peaks)
            if (1.0 + c) * trunc / 24.0 + rounding <= target:
                return True
            failed[0] = n
            return False

        panels, _, trunc = refine(share, a, b, stop, point)
        c, rounding = _rounding(len(panels), a, b, max(p[1] - p[0] for p in panels), *peaks)
        bound = (1.0 + c) * trunc / 24.0 + rounding
        fs = iter((panels[0][4][0], *(p[5][0] for p in panels)))  # the jets' f, left to right
        f_at = lambda _: next(fs)
    partition = Partition((a, *(p[1] for p in panels)))
    t1 = trapezoid_T1(f_at, partition)
    return QuadratureResult(t1, midpoint_T2(f, partition), bound, partition, bound <= target, order)

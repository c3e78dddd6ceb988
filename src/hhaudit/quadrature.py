"""Composite trapezoid/midpoint rules, the midpoint error certificates, their prop4
and prop5 reports, and an adaptive certified midpoint integrator.  Hypotheses are checked
by the guards of :mod:`hhaudit.core`: 1 <= q < inf, and convexity sampled at 16
pairs per panel or, in :func:`adaptive_midpoint`, at 32 on the widened hull.  The
certificate, T1 and T2 are flat passes over ``partition.points`` that build no object
per panel; a refinement level costs two f' evaluations per panel."""

from __future__ import annotations

import math
import operator
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
    derivative_power,
    extend,
    make_report,
    require_convex,
    require_exponent,
    sample_convexity,  # unused here; hhbench's self-tests read this binding
    widen,
)
from .exprlang import Expr, fn_label
from .hh_bounds import min_first_order_constant
from .oracle import integrate_ref

# every refinement doubles the panel count, so a runtime/memory cap is needed
# long before max_refine_depth = 40 could be reached
_PANEL_CAP = 1 << 16


@dataclass(frozen=True)
class Partition:
    """Strictly increasing grid x_0 < x_1 < ... < x_m with m >= 1 panels."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = self.points
        if len(pts) < 2:
            raise ValueError("partition needs at least two points")
        if math.isfinite(pts[0]) and math.isfinite(pts[-1]) and all(map(operator.lt, pts, pts[1:])):
            return
        for left, right in zip(pts, pts[1:]):
            if not (math.isfinite(left) and left < right):
                raise ValueError(f"partition points must be finite and strictly increasing, got {left!r} >= {right!r}")
        raise ValueError(f"partition points must be finite, got {pts[-1]!r} as the last point")

    @classmethod
    def uniform(cls, iv: Interval, m: int) -> "Partition":
        if m < 1:
            raise ValueError(f"need at least one panel, got m = {m}")
        pts = [iv.a + iv.width * i / m for i in range(m + 1)]
        pts[0], pts[-1] = iv.a, iv.b
        return cls(tuple(pts))

    @property
    def panel_count(self) -> int:
        return len(self.points) - 1

    def panels(self) -> Iterator[tuple[float, float]]:
        return zip(self.points, self.points[1:])

    def bisected(self) -> "Partition":
        pts = self.points
        finer = [0.0] * (2 * len(pts) - 1)
        finer[::2] = pts
        finer[1::2] = [0.5 * (left + right) for left, right in self.panels()]
        return Partition(tuple(finer))


@dataclass(frozen=True)
class QuadratureResult:
    t1: float
    t2: float
    e2_bound: float
    partition: Partition
    certified: bool = True


def trapezoid_T1(f, partition: Partition) -> float:
    total = 0.0
    for (left, f_left), (right, f_right) in pairwise(zip(partition.points, map(f, partition.points))):
        total += 0.5 * (f_left + f_right) * (right - left)
    return total


def midpoint_T2(f, partition: Partition) -> float:
    total = 0.0
    for left, right in partition.panels():
        total += f(0.5 * (left + right)) * (right - left)
    return total


def _guard_panels(fn, partition: Partition, what: str, cfg: ToleranceConfig) -> None:
    """The convexity guard on each panel's widened interval; failures name the panel."""
    for i, (left, right) in enumerate(partition.panels()):
        try:
            require_convex(fn, extend(Interval(left, right)), 16, cfg, what)
        except (DomainError, PreconditionError) as exc:
            raise type(exc)(f"subinterval {i} [{left!r}, {right!r}]: {exc}") from None


def midpoint_error_bound(
    f: Expr,
    partition: Partition,
    q: float,
    cfg: ToleranceConfig = DEFAULT_TOL,
    *,
    guard: str = "panel",
) -> float:
    """Certified bound on the composite midpoint error from |f'|^q convexity.

    Per panel the first-derivative bound contributes
    ``(dx)^2 (|f'(lo*)|^q + |f'(hi*)|^q)^(1/q)`` with lo*/hi* from that
    panel's widened interval; the combined constant is 1/8 at q = 1 and
    min{1/8, derived Hoelder constant} for q > 1.

    ``guard`` selects where the convexity hypothesis is sampled: "panel"
    (each panel's widened interval, failures name the panel index) or "none"
    (caller has already guarded a superset).
    """
    require_exponent(q)
    if guard not in ("panel", "none"):
        raise ValueError(f"guard must be 'panel' or 'none', got {guard!r}")
    if guard == "panel":
        _guard_panels(derivative_power(f, 1, q), partition, f"|f'|^q (q = {q!r})", cfg)
    jet1 = f.compiled(1)
    kconst = min_first_order_constant(q)
    total = 0.0
    for i, (left, right) in enumerate(partition.panels()):
        lo, hi = widen(left, right)
        try:
            d_lo = abs(jet1(lo)[1])
            d_hi = abs(jet1(hi)[1])
        except DomainError as exc:
            raise DomainError(f"subinterval {i} [{left!r}, {right!r}]: {exc}") from None
        total += (right - left) ** 2 * (d_lo**q + d_hi**q) ** (1.0 / q)
    return kconst * total


def prop4_check(f: Expr, partition: Partition, cfg: ToleranceConfig = DEFAULT_TOL) -> BoundReport:
    """The printed chain |2 int f - T2| <= sum dx |f(lo*) + f(hi*)|/2 (fragile).

    The outer max-based sum of the chain is echoed in the report inputs.
    """
    if not callable(f):
        raise TypeError("f must be callable")
    _guard_panels(f, partition, "f", cfg)
    iv = Interval(partition.points[0], partition.points[-1])
    integral = integrate_ref(f, iv, cfg).value
    t2 = midpoint_T2(f, partition)
    lhs = abs(2.0 * integral - t2)
    mid_sum = 0.0
    max_sum = 0.0
    for left, right in partition.panels():
        lo, hi = widen(left, right)
        flo, fhi = f(lo), f(hi)
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


def adaptive_midpoint(
    f: Expr,
    iv: Interval,
    target: float,
    q: float = 1.0,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> QuadratureResult:
    """Bisect a uniform partition until the midpoint certificate fits ``target``
    (positive and finite).

    Each level costs one pass of two f' evaluations per panel; T1 and T2 then
    cost 2N + 1 evaluations of f on the final N panels.  The |f'|^q convexity
    guard runs once on the widened full interval, which contains every panel's
    widened interval at every refinement level.  Depth or panel-count
    exhaustion, or a next level below float resolution, returns the last
    partition flagged ``certified=False``.
    """
    if not 0.0 < target < math.inf:
        raise ValueError(f"target error must be positive and finite, got {target!r}")
    require_exponent(q)
    require_convex(derivative_power(f, 1, q), extend(iv), 32, cfg, f"|f'|^q (q = {q!r})")
    partition = Partition.uniform(iv, 1)
    bound = midpoint_error_bound(f, partition, q, cfg, guard="none")
    depth = 0
    while not bound <= target and depth < cfg.max_refine_depth and 2 * partition.panel_count <= _PANEL_CAP:
        try:
            finer = partition.bisected()
            finer_bound = midpoint_error_bound(f, finer, q, cfg, guard="none")
        except DomainError:
            raise
        except ValueError:  # the next level is below float resolution
            break
        partition, bound = finer, finer_bound
        depth += 1
    t2 = midpoint_T2(f, partition)
    t1 = trapezoid_T1(f, partition)
    return QuadratureResult(t1, t2, bound, partition, bound <= target)

"""The per-object quadrature loops, kept as the reference for the flat passes
in :mod:`hhaudit.quadrature`.

Each panel here builds an ``Interval`` and an ``ExtendedInterval`` and checks
both; ``Partition`` validates point by point; ``trapezoid_T1`` evaluates every
interior node twice; ``guard_panels`` checks each panel's widened ``Interval`` by
its own guard call.  The flat passes must return the same floats bit for bit
and raise the same exception types with the same messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from hhaudit import core
from hhaudit.core import (
    DEFAULT_TOL,
    DomainError,
    Interval,
    PreconditionError,
    ToleranceConfig,
    require_exponent,
)
from hhaudit.exprlang import Expr
from hhaudit.hh_bounds import K1, k2_derived_constant


@dataclass(frozen=True)
class ExtendedInterval:
    """Widened interval [(3a-b)/2, (3b-a)/2]: same midpoint, twice the width."""

    lo: float
    hi: float
    mid: float

    def __post_init__(self) -> None:
        if not self.lo < self.mid < self.hi:
            raise ValueError(
                f"extended interval needs lo < mid < hi, got ({self.lo!r}, {self.mid!r}, {self.hi!r})"
            )


def extend(iv: Interval) -> ExtendedInterval:
    """Widen [a, b] to the interval on which all bound hypotheses live."""
    return ExtendedInterval(
        (3.0 * iv.a - iv.b) / 2.0,
        (3.0 * iv.b - iv.a) / 2.0,
        (iv.a + iv.b) / 2.0,
    )


@dataclass(frozen=True)
class Partition:
    """Strictly increasing grid x_0 < x_1 < ... < x_m with m >= 1 panels."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("partition needs at least two points")
        for left, right in zip(self.points, self.points[1:]):
            if not (math.isfinite(left) and left < right):
                raise ValueError(f"partition points must be finite and strictly increasing, got {left!r} >= {right!r}")

    @property
    def panel_count(self) -> int:
        return len(self.points) - 1

    def panels(self) -> Iterator[tuple[float, float]]:
        return zip(self.points, self.points[1:])

    def bisected(self) -> "Partition":
        pts: list[float] = []
        for left, right in self.panels():
            pts.append(left)
            pts.append(0.5 * (left + right))
        pts.append(self.points[-1])
        return Partition(tuple(pts))


def trapezoid_T1(f, partition: Partition) -> float:
    total = 0.0
    for left, right in partition.panels():
        total += 0.5 * (f(left) + f(right)) * (right - left)
    return total


def guard_panels(f, partition: Partition, order: int, q: float, cfg: ToleranceConfig = DEFAULT_TOL) -> None:
    """One :func:`hhaudit.core.convexity_guard` check on a 16-step grid of each panel's widened
    ``Interval``, left to right; a failure names the panel, a panel too narrow to widen does not."""
    check = core.convexity_guard(f, order, q, steps=16, cfg=cfg)
    for i, (left, right) in enumerate(partition.panels()):
        try:
            check(core.extend(Interval(left, right)))
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
    require_exponent(q)
    if guard not in ("panel", "none"):
        raise ValueError(f"guard must be 'panel' or 'none', got {guard!r}")
    if guard == "panel":
        guard_panels(f, partition, 1, q, cfg)
    jet1 = f.compiled(1)
    kconst = K1 if q == 1 else min(K1, k2_derived_constant(q))  # the runtime takes K1 alone
    total = 0.0
    for i, (left, right) in enumerate(partition.panels()):
        try:
            ext = extend(Interval(left, right))
            d_lo = abs(jet1(ext.lo)[1])
            d_hi = abs(jet1(ext.hi)[1])
        except DomainError as exc:
            raise DomainError(f"subinterval {i} [{left!r}, {right!r}]: {exc}") from None
        # (d_lo^q + d_hi^q)^(1/q) as 2^(1/q) times the power mean scaled by its larger term,
        # written out here, so that power_mean is not compared with itself
        m = max(d_lo, d_hi)
        if m not in (0.0, math.inf):
            m *= (0.5 * (d_lo / m) ** q + 0.5 * (d_hi / m) ** q) ** (1.0 / q)
        try:
            total += (right - left) ** 2 * 2.0 ** (1.0 / q) * m
        except OverflowError:
            raise DomainError(f"the order-1 certificate share of [{left!r}, {right!r}] overflows: (dx)^2") from None
    return kconst * total

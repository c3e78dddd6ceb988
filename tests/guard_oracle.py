"""Two point-by-point references for the convexity guard, each with the signature of
:func:`hhaudit.core.sample_convexity`.

:func:`grid` samples the equispaced grid that the production guard samples, one call of f
per point; the production guard must report the same floats bit for bit and raise the same
exception types with the same messages.  :func:`seeded_pairs` is the guard that the grid
replaced: it seeds ``random.Random(0)`` and draws every pair with ``uniform``.  It is kept
so that a differential test can show what the grid refutes that the pairs did not, and back.
:func:`guard` runs either as :func:`hhaudit.core.convexity_guard` runs its scan, with the same messages.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from hhaudit.core import (
    DEFAULT_TOL,
    BoundReport,
    DomainError,
    Interval,
    PreconditionError,
    ToleranceConfig,
    make_report,
)
from hhaudit.exprlang import to_text


def _probe(fn: Callable[[float], float], x: float) -> float:
    try:
        value = fn(x)
    except DomainError:
        raise
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"function undefined at x = {x!r}: {exc}") from exc
    if math.isnan(value):
        raise DomainError(f"function undefined (NaN) at x = {x!r}")
    return value


def _gap(f_left: float, f_mid: float, f_right: float, mid: float) -> float:
    gap = f_mid - (0.5 * f_left + 0.5 * f_right)
    if math.isnan(gap):
        raise DomainError(f"convexity gap undefined (inf - inf) at the midpoint x = {mid!r}")
    return gap


def grid(
    f: Callable[[float], float],
    iv: Interval,
    n: int,
    *,
    cfg: ToleranceConfig = DEFAULT_TOL,
    label: str = "convexity",
) -> BoundReport:
    """Probe midpoint convexity of ``f`` on ``iv`` over the grid x_i = a + i ((b - a)/n), x_n = b.

    The points are probed left to right.  Once x_i is probed, the gap of the triple
    (x_{i-2}, x_{i-1}, x_i) is formed; after x_n, that of the widest triple (a, x_{n/2}, b).
    So a hole raises ahead of every later gap, and a NaN gap ahead of every later hole.
    The worst gap is kept with its midpoint; a later gap replaces it only when larger.
    """
    if n < 4 or n % 4:
        raise ValueError(f"need a positive multiple of 4 grid steps, got n = {n}")
    lo, hi = iv.a, iv.b
    step = (hi - lo) / n
    xs = [lo] + [lo + k * step for k in range(1, n)] + [hi]
    triples = [(i - 2, i - 1, i) for i in range(2, n + 1)] + [(0, n // 2, n)]
    values: list[float] = []
    worst, worst_at = -math.inf, lo
    for left, mid, right in triples:
        while len(values) <= right:
            values.append(_probe(f, xs[len(values)]))
        gap = _gap(values[left], values[mid], values[right], xs[mid])
        if gap > worst:
            worst, worst_at = gap, xs[mid]
    return make_report(label, worst, 0.0, {"lo": lo, "hi": hi, "steps": n, "worst_at": worst_at}, cfg=cfg)


def guard(f, region, order, q, *, steps, sample=grid):
    """:func:`hhaudit.core.convexity_guard` of one region on :func:`grid`, which calls f, or |f^(order)|^q from the
    order-``order`` jet, one point at a time, with the same labels and messages; or on another ``sample`` of the
    same signature.  Returns the passing report."""
    if order == 0:
        what, fn = "f", f.compiled(0)
    else:
        what = "|f" + "'" * order + f"|^q (q = {q!r})"
        if order == 2 and "abs" in to_text(f):
            raise PreconditionError(f"{what} bounds need f twice differentiable, and f contains abs")
        jet = f.compiled(order)
        fn = lambda x: abs(jet(x)[order]) ** q
    try:
        report = sample(fn, region, steps, label=f"guard:{what}")
    except DomainError as exc:
        raise DomainError(f"{what}: {exc}") from exc
    if not report.satisfied:
        raise PreconditionError(f"{what} is not midpoint-convex on [{region.a!r}, {region.b!r}]"
                                f" (worst gap {report.lhs!r} near x = {report.inputs['worst_at']!r})")
    return report


def seeded_pairs(
    f: Callable[[float], float],
    iv: Interval,
    n: int,
    *,
    cfg: ToleranceConfig = DEFAULT_TOL,
    label: str = "convexity",
) -> BoundReport:
    """Probe midpoint convexity of ``f`` on ``iv`` at ``n`` random pairs (seed 0).

    The five structural points (endpoints, midpoint, quarter points) are
    evaluated first so that domain holes surface as :class:`DomainError`
    naming the failing point rather than as spurious convexity verdicts; for
    a widened interval the quarter points are the base endpoints.

    The report's ``lhs`` is the worst observed gap
    ``f((x+y)/2) - (f(x)/2 + f(y)/2)``; convexity is "satisfied" when that gap
    stays below ``abs_tol``.  A gap of inf - inf is a DomainError.
    """
    if n < 3:
        raise ValueError(f"need at least 3 sample pairs, got n = {n}")
    lo, hi = iv.a, iv.b
    for x in (lo, (3.0 * lo + hi) / 4.0, 0.5 * (lo + hi), (lo + 3.0 * hi) / 4.0, hi):
        _probe(f, x)
    rng = random.Random(0)
    worst = -math.inf
    worst_at = lo
    for _ in range(n):
        x = rng.uniform(lo, hi)
        y = rng.uniform(lo, hi)
        mid = 0.5 * (x + y)
        f_mid = _probe(f, mid)  # the midpoint first, then the ends
        f_x = _probe(f, x)
        gap = _gap(f_x, f_mid, _probe(f, y), mid)
        if gap > worst:
            worst, worst_at = gap, mid
    return make_report(
        label,
        worst,
        0.0,
        {"lo": lo, "hi": hi, "pairs": n, "worst_at": worst_at},
        cfg=cfg,
    )

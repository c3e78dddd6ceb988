"""The convexity guard with a seeded generator per call, kept as the reference
for :func:`hhaudit.core.sample_convexity`.

Each call here seeds ``random.Random(0)`` and draws every pair with
``uniform``.  The production guard reads precomputed draws of the same stream;
it must report the same floats bit for bit and raise the same exception types
with the same messages.
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
    ToleranceConfig,
    make_report,
)


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


def sample_convexity(
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
    ``f((x+y)/2) - (f(x)+f(y))/2``; convexity is "satisfied" when that gap
    stays below ``abs_tol``.
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
        gap = _probe(f, mid) - 0.5 * (_probe(f, x) + _probe(f, y))
        if gap > worst:
            worst, worst_at = gap, mid
    return make_report(
        label,
        worst,
        0.0,
        {"lo": lo, "hi": hi, "pairs": n, "worst_at": worst_at},
        cfg=cfg,
    )

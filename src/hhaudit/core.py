"""Intervals, the widened-interval construction, tolerance policy, truncated results,
bound reports, guards.

Every inequality audited by this package is hypothesized on the widened
interval ``[(3a-b)/2, (3b-a)/2]`` built from a base interval ``[a, b]``.  This
module owns that construction, the tolerance configuration shared by all
numeric routines, the :class:`SeriesResult` that every series and the reference
integrator return, and the comparison policy used to call a floating-point
inequality "satisfied".  Every hypothesis check lives here too, so a failure
raises the same error from every module: the convexity guard, 1 <= q < inf,
``0 < a < b`` and a widened interval inside (0, inf).
"""

from __future__ import annotations

import functools
import math
import os
import random
from dataclasses import dataclass, replace
from typing import Callable, Union


class DomainError(ValueError):
    """A function or parameter was evaluated outside its domain."""


class PreconditionError(ValueError):
    """A stated hypothesis (convexity, exponent range, interval shape) does not hold."""


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its term or depth budget before reaching tolerance."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerances and budget caps honored by every numeric routine.

    ``abs_tol`` is the slack used in inequality verdicts and the target for
    series/integral truncation; ``rel_tol`` is the relative floor used where
    an absolute target is not representable in double precision.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_series_terms: int = 500
    max_refine_depth: int = 40

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise ValueError(f"tolerances must be finite and positive, got abs_tol={self.abs_tol!r}, rel_tol={self.rel_tol!r}")
        if self.max_series_terms <= 0 or self.max_refine_depth <= 0:
            raise ValueError("budget caps must be positive")


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class SeriesResult:
    """A truncated evaluation: value, terms (or panels) used, and a bound on the truncation error."""

    value: float
    terms_used: int
    tail_bound: float


def config_from_env() -> ToleranceConfig:
    """DEFAULT_TOL, with ``abs_tol`` taken from the HH_TOL environment variable when set."""
    raw = os.environ.get("HH_TOL")
    if raw is None:
        return DEFAULT_TOL
    return replace(DEFAULT_TOL, abs_tol=float(raw))


@dataclass(frozen=True)
class Interval:
    """Base interval [a, b] with a < b, both finite."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"interval endpoints must be finite, got ({self.a!r}, {self.b!r})")
        if not self.a < self.b:
            raise ValueError(f"interval needs a < b, got ({self.a!r}, {self.b!r})")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)


@dataclass(frozen=True)
class ExtendedInterval:
    """Widened interval [(3a-b)/2, (3b-a)/2]: same midpoint, twice the width.
    Build it with :func:`extend`, which checks lo < mid < hi."""

    lo: float
    hi: float
    mid: float


def widen(a: float, b: float) -> tuple[float, float]:
    """(lo, hi) = ((3a-b)/2, (3b-a)/2); ValueError unless lo < (a+b)/2 < hi in floating point."""
    lo, hi, mid = (3.0 * a - b) / 2.0, (3.0 * b - a) / 2.0, (a + b) / 2.0
    if not lo < mid < hi:
        raise ValueError(f"extended interval needs lo < mid < hi, got ({lo!r}, {mid!r}, {hi!r})")
    return lo, hi


def extend(iv: Interval) -> ExtendedInterval:
    """Widen [a, b] to the interval on which all bound hypotheses live."""
    return ExtendedInterval(*widen(iv.a, iv.b), (iv.a + iv.b) / 2.0)


def conjugate_exponent(q: float) -> float:
    """Return p with 1/p + 1/q = 1.  Defined only for q > 1."""
    if q <= 1.0:
        raise DomainError(f"conjugate undefined for q <= 1 (q = {q!r})")
    return q / (q - 1.0)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality instance: ``lhs <= rhs`` up to ``abs_tol``.

    ``fragile`` marks checks whose printed form is known to fail on valid
    inputs (e.g. under vertical shifts); their violations are recorded as
    findings, not treated as implementation bugs.
    """

    label: str
    lhs: float
    rhs: float
    margin: float
    satisfied: bool
    inputs: dict
    fragile: bool = False

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("report label must be nonempty")


def make_report(
    label: str,
    lhs: float,
    rhs: float,
    inputs: dict,
    cfg: ToleranceConfig = DEFAULT_TOL,
    fragile: bool = False,
) -> BoundReport:
    margin = rhs - lhs
    return BoundReport(
        label=label,
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        satisfied=bool(margin >= -cfg.abs_tol),
        inputs=dict(inputs),
        fragile=fragile,
    )


AnyInterval = Union[Interval, ExtendedInterval]


def _span(iv: AnyInterval) -> tuple[float, float]:
    if isinstance(iv, ExtendedInterval):
        return iv.lo, iv.hi
    if isinstance(iv, Interval):
        return iv.a, iv.b
    raise TypeError(f"expected Interval or ExtendedInterval, got {type(iv).__name__}")


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


@functools.lru_cache(maxsize=8)
def _unit_pairs(n: int) -> tuple[tuple[float, float], ...]:
    rng = random.Random(0)
    return tuple((rng.random(), rng.random()) for _ in range(n))


def sample_convexity(
    f: Callable[[float], float],
    iv: AnyInterval,
    n: int,
    *,
    cfg: ToleranceConfig = DEFAULT_TOL,
    label: str = "convexity",
) -> BoundReport:
    """Probe midpoint convexity of ``f`` on the span of ``iv`` at ``n`` random pairs (seed 0):
    the first 2n values u of ``Random(0).random()``, put at ``lo + (hi - lo) * u`` as ``uniform`` does.

    The five structural points (endpoints, midpoint, quarter points) are
    evaluated first so that domain holes surface as :class:`DomainError`
    naming the failing point rather than as spurious convexity verdicts; for
    an extended interval the quarter points equal the base endpoints a and b
    up to rounding.

    The report's ``lhs`` is the worst observed gap
    ``f((x+y)/2) - (f(x)+f(y))/2``; convexity is "satisfied" when that gap
    stays below ``abs_tol``.
    """
    if n < 3:
        raise ValueError(f"need at least 3 sample pairs, got n = {n}")
    lo, hi = _span(iv)
    for x in (lo, (3.0 * lo + hi) / 4.0, 0.5 * (lo + hi), (lo + 3.0 * hi) / 4.0, hi):
        _probe(f, x)
    worst = -math.inf
    worst_at = lo
    for u, v in _unit_pairs(n):
        x = lo + (hi - lo) * u
        y = lo + (hi - lo) * v
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


def require_convex(
    fn: Callable[[float], float], region: AnyInterval, pairs: int, cfg: ToleranceConfig, what: str
) -> None:
    """The convexity guard: PreconditionError naming ``what``, the span and the worst
    gap unless ``fn`` passes :func:`sample_convexity` at ``pairs`` pairs;
    a domain hole raises the probe's DomainError."""
    report = sample_convexity(fn, region, pairs, cfg=cfg, label=f"guard:{what}")
    if not report.satisfied:
        raise PreconditionError(
            f"{what} is not midpoint-convex on [{report.inputs['lo']!r}, {report.inputs['hi']!r}]"
            f" (worst gap {report.lhs!r} near x = {report.inputs['worst_at']!r})"
        )


def derivative_power(f, order: int, q: float) -> Callable[[float], float]:
    """x -> |f^(order)(x)|^q for a parsed expression f: the function whose
    convexity the derivative bounds assume."""
    jet = f.compiled(order)
    return lambda x: abs(jet(x)[order]) ** q


def require_derivative_convex(f, order: int, q: float, region: AnyInterval, cfg: ToleranceConfig) -> None:
    """The order-``order`` derivative bounds' hypothesis: |f^(order)|^q convex on ``region`` (32 pairs)
    and, at order 2, ``f.twice_differentiable()``, since f'' = 0 off a kink samples as convex."""
    what = "|f" + "'" * order + f"|^q (q = {q!r})"
    if order == 2 and not f.twice_differentiable():
        raise PreconditionError(f"{what} bounds need f twice differentiable, and f contains abs")
    require_convex(derivative_power(f, order, q), region, 32, cfg, what)


def require_exponent(q: float) -> None:
    """The power-mean/Hoelder exponent of every derivative bound: 1 <= q < inf (NaN fails)."""
    if not 1.0 <= q < math.inf:
        raise PreconditionError(f"exponent must satisfy 1 <= q < inf, got q = {q!r}")


def require_positive_pair(a: float, b: float) -> None:
    """Positive endpoints in order: 0 < a < b."""
    if not 0.0 < a < b:
        raise DomainError(f"need 0 < a < b, got ({a!r}, {b!r})")


def require_positive_widening(a: float, b: float) -> None:
    """The widened interval [(3a-b)/2, (3b-a)/2] inside (0, inf), i.e. 3a - b > 0."""
    if not 3.0 * a - b > 0.0:
        raise PreconditionError(
            f"extended interval leaves (0, inf): 3a - b = {3.0 * a - b!r} must be positive"
        )

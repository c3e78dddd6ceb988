"""Intervals, the widened-interval construction, tolerance policy, truncated results,
bound reports, guards, and the power mean.

Every inequality audited by this package is hypothesized on the widened
interval ``[(3a-b)/2, (3b-a)/2]`` built from a base interval ``[a, b]``.  Both
are an :class:`Interval`: :func:`widen` is the one float formula for the widened
ends, and :func:`extend` builds the widened interval from it; callers take the
midpoint from the base interval.  This module owns that construction, the tolerance
configuration shared by all numeric routines, the :class:`SeriesResult` that every
series and the reference integrator return, the comparison policy used to call a
floating-point inequality "satisfied" (a NaN side is a DomainError), and
:func:`power_mean`, the one mean on the right side of every derivative bound.  Every
hypothesis check lives here, so a failure raises the same error from every module: the one
guard :func:`require_convex`, 1 <= q < inf, ``0 < a < b`` and a widened interval in (0, inf).
"""

from __future__ import annotations

import functools
import math
import os
import random
from dataclasses import dataclass, replace
from typing import Callable


class DomainError(ValueError):
    """A function or parameter was evaluated outside its domain."""


class PreconditionError(ValueError):
    """A stated hypothesis (convexity, exponent range, interval shape) does not hold."""


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its term or panel budget before reaching tolerance."""


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

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise ValueError(f"tolerances must be finite and positive, got abs_tol={self.abs_tol!r}, rel_tol={self.rel_tol!r}")
        if self.max_series_terms <= 0:
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
    """Interval [a, b] with a < b, both finite: a base interval, or a widened one from :func:`extend`."""

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


def widen(a: float, b: float) -> tuple[float, float]:
    """(lo, hi) = ((3a-b)/2, (3b-a)/2); ValueError unless lo < (a+b)/2 < hi in floating point."""
    lo, hi, mid = (3.0 * a - b) / 2.0, (3.0 * b - a) / 2.0, (a + b) / 2.0
    if not lo < mid < hi:
        raise ValueError(f"extended interval needs lo < mid < hi, got ({lo!r}, {mid!r}, {hi!r})")
    return lo, hi


def extend(iv: Interval) -> Interval:
    """Widen [a, b] to the interval on which all bound hypotheses live, with the ends of
    :func:`widen`; DomainError when an end overflows."""
    lo, hi = widen(iv.a, iv.b)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"widened interval of [{iv.a!r}, {iv.b!r}] overflows: ({lo!r}, {hi!r})")
    return Interval(lo, hi)


def conjugate_exponent(q: float) -> float:
    """Return p with 1/p + 1/q = 1.  Defined only for q > 1."""
    if q <= 1.0:
        raise DomainError(f"conjugate undefined for q <= 1 (q = {q!r})")
    return q / (q - 1.0)


def power_mean(q: float, u: float, v: float, w: float = 0.5) -> float:
    """(w u^q + (1 - w) v^q)^(1/q) of u, v >= 0 (1 <= q < inf, 0 < w <= 1/2), the mean every
    derivative bound and midpoint certificate takes, as m (w (u/m)^q + (1 - w) (v/m)^q)^(1/q)
    with m = max(u, v), scaled as ``math.hypot`` is (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 27): no power overflows, and the sum S is at least w.  m = 0 or
    inf is returned as it is, and u = v gives m exactly.  Relative error, with eps = 2^-53 and pow
    within 1 ulp: S errs by (q + 5)eps, from the smaller ratio's rounding raised to q, the weights,
    product and sum; the root divides that by q; fl(1/q) adds eps ln(1/w)/q <= 1.1eps for w >=
    1/(q+2); the root and the product by m add 3eps.  In all (6 + 5/q)eps, to first order."""
    m = max(u, v)
    if m == 0.0 or m == math.inf:
        return m
    return m * (w * (u / m) ** q + (1.0 - w) * (v / m) ** q) ** (1.0 / q)


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
    if math.isnan(lhs) or math.isnan(rhs):
        raise DomainError(f"{label}: a side is undefined (lhs {lhs!r}, rhs {rhs!r})")
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
    iv: Interval,
    n: int,
    *,
    cfg: ToleranceConfig = DEFAULT_TOL,
    label: str = "convexity",
) -> BoundReport:
    """Probe midpoint convexity of ``f`` on ``iv`` at ``n`` random pairs (seed 0): the first
    2n values u of ``Random(0).random()``, put at ``a + (b - a) * u`` as ``uniform`` does.

    The five structural points (endpoints, midpoint, quarter points) are
    evaluated first so that domain holes surface as :class:`DomainError`
    naming the failing point rather than as spurious convexity verdicts; for
    a widened interval the quarter points equal the base endpoints up to rounding.

    The report's ``lhs`` is the worst observed gap ``f((x+y)/2) - (f(x)/2 + f(y)/2)``,
    an average that cannot overflow; convexity is "satisfied" when that gap stays
    below ``abs_tol``.  A gap of inf - inf is a DomainError naming the midpoint.
    """
    if n < 3:
        raise ValueError(f"need at least 3 sample pairs, got n = {n}")
    lo, hi = iv.a, iv.b
    for x in (lo, (3.0 * lo + hi) / 4.0, 0.5 * (lo + hi), (lo + 3.0 * hi) / 4.0, hi):
        _probe(f, x)
    worst = -math.inf
    worst_at = lo
    for u, v in _unit_pairs(n):
        x = lo + (hi - lo) * u
        y = lo + (hi - lo) * v
        mid = 0.5 * (x + y)
        gap = _probe(f, mid) - (0.5 * _probe(f, x) + 0.5 * _probe(f, y))
        if not gap <= worst:  # a NaN gap compares false both ways, so it lands here
            if gap != gap:
                raise DomainError(f"convexity gap undefined (inf - inf) at the midpoint x = {mid!r}")
            worst, worst_at = gap, mid
    return make_report(
        label,
        worst,
        0.0,
        {"lo": lo, "hi": hi, "pairs": n, "worst_at": worst_at},
        cfg=cfg,
    )


def evaluator(f: Callable[[float], float]) -> Callable[[float], float]:
    """A parsed expression's compiled value variant, resolved once; any other callable as it is."""
    return f.compiled(0) if hasattr(f, "compiled") else f


def require_convex(
    f, region: Interval, order: int = 0, q: float = 1.0, *, pairs: int = 32, cfg: ToleranceConfig = DEFAULT_TOL
) -> None:
    """The one hypothesis guard: f (order 0, any callable) or |f^(order)|^q (order 1 or 2, f parsed)
    midpoint-convex on ``region`` by :func:`sample_convexity` at ``pairs`` pairs, after 1 <= q < inf and,
    at order 2, f twice differentiable (f'' = 0 off a kink samples as convex).  PreconditionError names
    the function, the interval and the worst gap; a domain hole's DomainError names the function too."""
    if order == 0:
        what, fn = "f", evaluator(f)
    else:
        require_exponent(q)
        what = "|f" + "'" * order + f"|^q (q = {q!r})"
        if order == 2 and not f.twice_differentiable():
            raise PreconditionError(f"{what} bounds need f twice differentiable, and f contains abs")
        jet = f.compiled(order)
        fn = lambda x: abs(jet(x)[order]) ** q
    try:
        report = sample_convexity(fn, region, pairs, cfg=cfg, label=f"guard:{what}")
    except DomainError as exc:
        raise DomainError(f"{what}: {exc}") from exc
    if not report.satisfied:
        raise PreconditionError(
            f"{what} is not midpoint-convex on [{report.inputs['lo']!r}, {report.inputs['hi']!r}]"
            f" (worst gap {report.lhs!r} near x = {report.inputs['worst_at']!r})"
        )


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

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
guard :func:`convexity_guard`, 1 <= q < inf, ``0 < a < b`` and a widened interval in (0, inf).
The guard runs one grid pass per region, whose source :func:`scan_source` writes (``exprlang`` compiles
it with each jet's lines, this module once for any other callable); :func:`sample_convexity` reports it.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
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
K1 = 0.125  # the first-derivative constant 1/8: of thm2 and cor1, the midpoint certificate, and P1-P3's second display


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
    try:
        abs_tol = float(raw)
    except ValueError:
        raise ValueError(f"HH_TOL must be a number, got {raw!r}") from None
    return replace(DEFAULT_TOL, abs_tol=abs_tol)


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


def undefined(x: float, cause: Exception | None = None) -> DomainError:
    """What sampling raises where f raised ``cause`` at ``x``, or returned NaN (no cause), with ``at`` = x."""
    exc = DomainError(f"function undefined at x = {x!r}: {cause}" if cause else f"function undefined (NaN) at x = {x!r}")
    exc.at = x
    return exc


def _grid_steps(n: int) -> int:
    """``n`` as the step count of a guard's grid: a positive multiple of 4, so that the quarter points are grid points."""
    if n < 4 or n % 4:
        raise ValueError(f"need a positive multiple of 4 grid steps, got n = {n}")
    return n


# At x_i: f from {point} (the jet inlined once), the gap of the triple it closes (midpoint m, one point back), and at a
# multiple k of ``wide`` that of the stride-``wide`` triple; a DomainError's ``at`` is x, set to m for a NaN gap.
_SCAN = """\
def scan(lo, hi, n, wide{params}):
    step, worst, worst_at, x, f1, wb, k = (hi - lo) / n, -inf, lo, lo, 0.0, 0.0, 0
    try:
        for i in range(n + 1):
{point}
            if i > 1:
                gap = f1 - (0.5 * f2 + 0.5 * v)
                if not gap <= worst:  # a NaN gap compares false both ways, so it lands here
                    if gap != gap:
                        raise DomainError(f"convexity gap undefined (inf - inf) at the midpoint x = {{(x := m)!r}}")
                    worst, worst_at = gap, m
            if i == k:
                if i > wide:
                    gap, m = wb - (0.5 * wa + 0.5 * v), lo + (i - wide) * step
                    if not gap <= worst:
                        if gap != gap:
                            raise DomainError(f"convexity gap undefined (inf - inf) at the midpoint x = {{(x := m)!r}}")
                        worst, worst_at = gap, m
                wa, wb, k = wb, v, k + wide
            f2, f1 = f1, v
            m, x = x, lo + (i + 1) * step if i + 1 < n else hi
    except DomainError as exc:
        exc.at = x
        raise
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise undefined(x, exc) from exc
    return worst, worst_at
"""


def scan_source(value: str, lines: list[str], params: str) -> str:
    """``scan(lo, hi, n, wide{params})``: with ``lines`` then ``value`` as f at each x (a NaN is a hole), one pass over
    x_i = lo + i (hi - lo)/n, x_n = hi, keeping two values and two at multiples of ``wide``, for the worst gap and its
    midpoint over the consecutive triples and the stride-``wide`` ones centred on multiples of it: for a region wide =
    n/2, (lo, mid, hi); for a uniform partition's union, the panels' widest triples (:func:`convexity_guard`)."""
    point = (*lines, f"v = {value}", "if v != v: raise undefined(x)")
    return _SCAN.format(params=params, point="\n".join(" " * 12 + line for line in point))


@functools.cache
def _generic_scan() -> Callable[..., tuple[float, float]]:
    """The scan of any callable, passed last, compiled on first use: only a plain callable needs it, not a parsed f."""
    namespace = {"DomainError": DomainError, "undefined": undefined, "inf": math.inf}
    exec(compile(scan_source("f(x)", [], ", f"), "<scan>", "exec", 0, True), namespace)  # fixed source
    return namespace["scan"]


def evaluator(f: Callable[[float], float]) -> Callable[[float], float]:
    """A parsed expression's compiled value variant, resolved once; any other callable as it is."""
    return f.compiled(0) if hasattr(f, "compiled") else f


def _scan_of(f: Callable[[float], float]) -> Callable[..., tuple[float, float]]:
    """``scan(lo, hi, n, wide)`` of f, chosen only here: :func:`evaluator`'s compiled one, else the generic one."""
    f = evaluator(f)
    return f.scan if hasattr(f, "scan") else functools.partial(_generic_scan(), f=f)


def sample_convexity(
    f: Callable[[float], float],
    iv: Interval,
    n: int,
    *,
    cfg: ToleranceConfig = DEFAULT_TOL,
    label: str = "convexity",
) -> BoundReport:
    """Probe midpoint convexity of ``f`` on ``iv`` over the grid x_i = a + i (b - a)/n, x_n = b, of ``n`` steps.

    One pass, a ``scan`` of :func:`scan_source`, evaluates each point once, in grid order, and forms the gap of
    each consecutive triple (x_{i-2}, x_{i-1}, x_i) as soon as x_i is known, then that of the widest triple
    (a, mid, b), so that a domain hole surfaces as the :class:`DomainError` of the first failing point rather than
    as a spurious verdict.  4 divides n, so the ends, quarter points and midpoint are grid points; for a widened
    interval the quarter points equal the base endpoints up to rounding.  The report view of the one scan that
    :func:`convexity_guard` runs without one, for a parsed f its compiled one (:func:`_scan_of`).

    The report's ``lhs`` is the worst observed gap ``f(m) - (f(l)/2 + f(r)/2)`` of a triple (l, m, r),
    an average that cannot overflow; convexity is "satisfied" when that gap stays below ``abs_tol``.
    The first NaN gap (inf - inf) in grid order is a DomainError naming its midpoint, ahead of any later hole.
    """
    worst, worst_at = _scan_of(f)(iv.a, iv.b, _grid_steps(n), n // 2)
    return make_report(label, worst, 0.0, {"lo": iv.a, "hi": iv.b, "steps": n, "worst_at": worst_at}, cfg=cfg)


def convexity_guard(f, order: int = 0, q: float = 1.0, *, steps: int = 32, cfg: ToleranceConfig = DEFAULT_TOL):
    """The one hypothesis guard, set up once and returned as the check of a region: f (order 0, any
    callable) or |f^(order)|^q (order 1 or 2, f parsed) midpoint-convex on its grid of ``steps`` steps, after
    1 <= q < inf and, at order 2, f twice differentiable (f'' = 0 off a kink samples as convex).  One body
    per region runs the scan of f or ``f.compiled(order)`` that :func:`sample_convexity` reports, without a
    report: PreconditionError names the function, the region and the worst gap; a domain hole's DomainError
    names the function too.  ``check.panels(points)`` widens every panel (widen's ValueError, unprefixed), then,
    for a uniform partition, runs one body on the union of the widened panels, which overlap, so it is the same
    hypothesis, on (``steps``/2)(m + 1) steps that hold each panel's grid up to rounding (:func:`scan_source`), and
    for any other one body per widened panel, at the panel's own resolution.  Failures, an overflowing widened end
    too, are prefixed ``subinterval i [l, r]: ``: the panel scanned, or in the union the panel i with x_i < x <=
    x_{i+1} at the hole or the worst gap's midpoint x (the end panel for x beyond the ends)."""
    if order == 0:
        what, scan = "f", _scan_of(f)
    else:
        require_exponent(q)
        what = "|f" + "'" * order + f"|^q (q = {q!r})"
        if order == 2 and not f.twice_differentiable():
            raise PreconditionError(f"{what} bounds need f twice differentiable, and f contains abs")
        scan = functools.partial(f.compiled(order).scan, q=q)
    n = _grid_steps(steps)

    def region(lo: float, hi: float, count: int = n, where: Callable[[float], str] = lambda x: "") -> None:
        try:
            worst, worst_at = scan(lo, hi, count, n // 2)
        except DomainError as exc:
            raise DomainError(f"{where(exc.at)}{what}: {exc}") from None
        if not 0.0 - worst >= -cfg.abs_tol:  # make_report's verdict
            raise PreconditionError(f"{where(worst_at)}{what} is not midpoint-convex on [{lo!r}, {hi!r}] (worst gap {worst!r} near x = {worst_at!r})")

    def check(iv: Interval) -> None:
        region(iv.a, iv.b)

    def panels(points: tuple[float, ...]) -> None:
        name = lambda i: f"subinterval {i} [{points[i]!r}, {points[i + 1]!r}]: "
        for i, (left, right) in enumerate(zip(points, points[1:])):
            lo, hi = widen(left, right)  # a panel too narrow to widen raises, unprefixed, before any evaluation
            if not (math.isfinite(lo) and math.isfinite(hi)):
                try:
                    extend(Interval(left, right))
                except DomainError as exc:
                    raise DomainError(name(i) + str(exc)) from None
        if not _uniform(points):
            for i, (left, right) in enumerate(zip(points, points[1:])):
                region(*widen(left, right), n, lambda x, i=i: name(i))
            return
        # x_i < x <= x_{i+1} names panel i, and x beyond the ends the end panel
        where = lambda x: name(min(max(bisect.bisect_left(points, x), 1), len(points) - 1) - 1)
        region(widen(points[0], points[1])[0], hi, n // 2 * len(points), where)  # panel 0's lo* to panel m - 1's hi*

    check.panels = panels
    return check


def _uniform(points: tuple[float, ...]) -> bool:
    """Whether every x_i is x_0 + i (x_m - x_0)/m up to rounding (16 ulps, and at most 1/64 of a panel): then each
    widened panel's grid is part of the union's grid up to rounding, and one scan of the union holds them all."""
    x0, h = points[0], (points[-1] - points[0]) / (len(points) - 1)
    tol = min(16.0 * math.ulp(max(abs(x0), abs(points[-1]))), h / 64.0)
    return all(abs(x - (x0 + i * h)) <= tol for i, x in enumerate(points))


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

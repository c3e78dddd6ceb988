"""Gamma/Beta helpers, modified Bessel functions, the q-digamma family, and
the inequality reports built on them.

The first-kind Bessel functions come from their power series with a ratio-test
tail bound; the second-kind ones from the Laplace-type integral
``K_p(x) = int_0^inf exp(-x cosh t) cosh(p t) dt`` with an explicit tail
majorant, evaluated by the reference integrator.  The normalized function
``nI_p(x) = 2^p Gamma(p+1) x^-p I_p(x)`` is summed from its own series (a
series in x^2, equal to 1 at x = 0) so small arguments suffer no cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import (
    ConvergenceError,
    DEFAULT_TOL,
    DomainError,
    Interval,
    ToleranceConfig,
    BoundReport,
    extend,
    make_report,
    require_positive_pair,
    require_positive_widening,
)
from .oracle import _integrate_with_panels, diff_ref


@dataclass(frozen=True)
class SeriesResult:
    """A truncated evaluation: value, terms (or panels) used, and a bound on the truncation error."""

    value: float
    terms_used: int
    tail_bound: float


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0 (platform lgamma; relative accuracy ~1e-15)."""
    if x <= 0.0:
        raise DomainError(f"log_gamma needs x > 0, got {x!r}")
    return math.lgamma(x)


def beta(x: float, y: float) -> float:
    """B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y) for positive arguments."""
    if x <= 0.0 or y <= 0.0:
        raise DomainError(f"beta needs positive arguments, got ({x!r}, {y!r})")
    return math.exp(log_gamma(x) + log_gamma(y) - log_gamma(x + y))


def _normalized_series(p: float, x: float, cfg: ToleranceConfig) -> tuple[float, int, float]:
    """Sum the normalized first-kind series sum_n G(p+1)/(n! G(p+n+1)) (x/2)^(2n).

    All terms are positive for p > -1; the tail is bounded geometrically once
    the term ratio z/((n+1)(p+n+1)) drops below 1.
    """
    z = 0.25 * x * x
    term = 1.0
    total = 1.0
    for n in range(1, cfg.max_series_terms + 1):
        term *= z / (n * (p + n))
        total += term
        ratio = z / ((n + 1.0) * (p + n + 1.0))
        if ratio < 1.0:
            tail = term * ratio / (1.0 - ratio)
            if tail <= cfg.abs_tol:
                return total, n + 1, tail
    raise ConvergenceError(
        f"first-kind Bessel series did not converge in {cfg.max_series_terms} terms (p={p!r}, x={x!r})"
    )


def normalized_I_series(p: float, x: float, cfg: ToleranceConfig = DEFAULT_TOL) -> SeriesResult:
    """Normalized first-kind function as a :class:`SeriesResult`; even in x, equals 1 at x = 0."""
    if p <= -1.0:
        raise DomainError(f"normalized Bessel function needs p > -1, got {p!r}")
    value, terms, tail = _normalized_series(p, x, cfg)
    return SeriesResult(value, terms, tail)


def normalized_I(p: float, x: float, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    return normalized_I_series(p, x, cfg).value


def bessel_I(p: float, x: float, cfg: ToleranceConfig = DEFAULT_TOL) -> SeriesResult:
    """Modified Bessel function of the first kind by its power series, x >= 0."""
    if p <= -1.0:
        raise DomainError(f"bessel_I needs p > -1, got {p!r}")
    if x < 0.0:
        raise DomainError(f"bessel_I needs x >= 0, got {x!r}")
    if x == 0.0:
        if p == 0.0:
            return SeriesResult(1.0, 1, 0.0)
        if p > 0.0:
            return SeriesResult(0.0, 1, 0.0)
        raise DomainError(f"bessel_I diverges at x = 0 for p < 0 (p = {p!r})")
    value, terms, tail = _normalized_series(p, x, cfg)
    prefactor = math.exp(p * math.log(0.5 * x) - log_gamma(p + 1.0))
    return SeriesResult(prefactor * value, terms, prefactor * tail)


def _log_cosh(y: float) -> float:
    ay = abs(y)
    return ay + math.log1p(math.exp(-2.0 * ay)) - math.log(2.0)


def bessel_K(p: float, x: float, cfg: ToleranceConfig = DEFAULT_TOL) -> SeriesResult:
    """Modified Bessel function of the second kind via its Laplace-type integral.

    The integrand exp(-x cosh t) cosh(p t) decays beyond T at rate at least
    x sinh T - |p|, so the tail past T is at most
    exp(-x cosh T) cosh(p T) / (x sinh T - |p|); T grows until that majorant
    plus the quadrature error fits within ``abs_tol``.
    """
    if x <= 0.0:
        raise DomainError(f"bessel_K needs x > 0, got {x!r}")
    ap = abs(p)
    half_tol = 0.5 * cfg.abs_tol
    log_target = math.log(half_tol)
    T = 1.0
    tail = None
    for _ in range(400):
        lam = x * math.sinh(T) - ap
        if lam > 0.0:
            log_tail = -x * math.cosh(T) + _log_cosh(ap * T) - math.log(lam)
            if log_tail <= log_target:
                tail = math.exp(log_tail) if log_tail > -745.0 else 0.0
                break
        T *= 1.25
    if tail is None:
        raise ConvergenceError(f"tail of the second-kind integral not boundable (p={p!r}, x={x!r})")

    def integrand(t: float) -> float:
        arg = -x * math.cosh(t) + _log_cosh(p * t)
        return math.exp(arg) if arg > -745.0 else 0.0

    value, err, panels = _integrate_with_panels(
        integrand, Interval(0.0, T), half_tol, cfg=cfg, rel_tol=1e-15
    )
    total_bound = tail + err
    if total_bound > cfg.abs_tol:
        raise ConvergenceError(
            f"second-kind integral error bound {total_bound!r} exceeds abs_tol "
            f"(p={p!r}, x={x!r}; the value is too large for an absolute target)"
        )
    return SeriesResult(value, panels, total_bound)


def _check_q_x(q: float, x: float) -> None:
    if q <= 0.0 or q == 1.0:
        raise DomainError(f"q-digamma needs q > 0 and q != 1, got q = {q!r}")
    if x <= 0.0:
        raise DomainError(f"q-digamma needs x > 0, got x = {x!r}")


def _power_tail_series(
    qbase: float, x: float, weight: int, scale: float, cfg: ToleranceConfig
) -> tuple[float, int, float]:
    """Sum_{k>=1} k^weight qbase^(k x) / (1 - qbase^k) for 0 < qbase < 1.

    Stops when ``scale`` times the geometric tail majorant drops below
    ``abs_tol``; raises :class:`ConvergenceError` at the term cap (q near 1
    or small x need more terms than the default budget).
    """
    rho = qbase**x
    qk = 1.0
    rhok = 1.0
    total = 0.0
    for k in range(1, cfg.max_series_terms + 1):
        qk *= qbase
        rhok *= rho
        total += (k**weight) * rhok / (1.0 - qk)
        growth = ((k + 2.0) / (k + 1.0)) ** weight
        rhat = rho * growth
        if rhat < 1.0:
            first_omitted = ((k + 1.0) ** weight) * rhok * rho
            tail = scale * first_omitted / ((1.0 - qbase) * (1.0 - rhat))
            if tail <= cfg.abs_tol:
                return total, k, tail
    raise ConvergenceError(
        f"q-digamma series needs more than {cfg.max_series_terms} terms "
        f"(q = {qbase!r}, x = {x!r}); raise max_series_terms"
    )


def q_digamma(q: float, x: float, cfg: ToleranceConfig = DEFAULT_TOL) -> SeriesResult:
    """q-digamma value; series branch for 0 < q < 1, reflected branch for q > 1."""
    _check_q_x(q, x)
    if q < 1.0:
        lnq = math.log(q)
        s, terms, tail = _power_tail_series(q, x, 0, abs(lnq), cfg)
        return SeriesResult(-math.log1p(-q) + lnq * s, terms, tail)
    lnq = math.log(q)
    s, terms, tail = _power_tail_series(1.0 / q, x, 0, lnq, cfg)
    return SeriesResult(-math.log(q - 1.0) + lnq * (x - 0.5) - lnq * s, terms, tail)


def q_digamma_deriv(
    q: float, x: float, order: int, cfg: ToleranceConfig = DEFAULT_TOL
) -> SeriesResult:
    """Term-wise derivative of the q-digamma; orders 1 and 3 (both positive)."""
    if order not in (1, 3):
        raise ValueError(f"derivative order must be 1 or 3, got {order!r}")
    _check_q_x(q, x)
    if q < 1.0:
        lnq = math.log(q)
        scale = abs(lnq) ** (order + 1)
        s, terms, tail = _power_tail_series(q, x, order, scale, cfg)
        return SeriesResult(scale * s, terms, tail)
    lnq = math.log(q)
    scale = lnq ** (order + 1)
    s, terms, tail = _power_tail_series(1.0 / q, x, order, scale, cfg)
    linear = lnq if order == 1 else 0.0
    return SeriesResult(linear + scale * s, terms, tail)


def bessel_prop_checks(
    p: float, a: float, b: float, cfg: ToleranceConfig = DEFAULT_TOL
) -> list[BoundReport]:
    """Three-point bounds for the normalized first-kind family and, when
    p > 1 and 3a > b, the weighted second-kind ratio bound.

    Also cross-checks the derivative identity
    nI_p'(x) = x nI_{p+1}(x) / (2(p+1)) at the midpoint by finite differences.
    """
    require_positive_pair(a, b)
    if p <= -1.0:
        raise DomainError(f"series order must satisfy p > -1, got {p!r}")
    ext = extend(Interval(a, b))
    inputs = {"p": p, "a": a, "b": b}
    reports: list[BoundReport] = []

    def nI(order: float, x: float) -> float:
        return normalized_I(order, x, cfg)

    lhs_i1 = abs(nI(p, b) - nI(p, a)) / (b - a)
    rhs_i1 = (
        ext.lo * nI(p + 1.0, ext.lo)
        + ext.hi * nI(p + 1.0, ext.hi)
        + (a + b) * nI(p + 1.0, ext.mid)
    ) / (8.0 * (p + 1.0))
    reports.append(make_report("prop6.i1", lhs_i1, rhs_i1, inputs, cfg))

    lhs_i11 = abs(math.cosh(b) - math.cosh(a)) / (b - a)
    rhs_i11 = (math.sinh(ext.lo) + math.sinh(ext.hi) + 2.0 * math.sinh(ext.mid)) / 4.0
    reports.append(make_report("prop6.i11", lhs_i11, rhs_i11, {"a": a, "b": b}, cfg))

    fd = diff_ref(lambda t: normalized_I(p, t, cfg), ext.mid, 1)
    closed = ext.mid * nI(p + 1.0, ext.mid) / (2.0 * (p + 1.0))
    rel_err = abs(fd - closed) / max(abs(fd), 1e-300)
    reports.append(make_report("prop6.mm", rel_err, 1e-6, {**inputs, "at": ext.mid}, cfg))

    if p > 1.0 and 3.0 * a > b:
        def kv(order: float, x: float) -> float:
            return bessel_K(order, x, cfg).value

        lhs_ii = abs(a**p * kv(p, b) - b**p * kv(p, a)) / ((a * b) ** p * (b - a))
        u, v, w = a + b, 3.0 * a - b, 3.0 * b - a
        f_top = (
            2.0 ** (p + 1.0) * (v * w) ** p * kv(p + 1.0, ext.mid)
            + (2.0 * u * w) ** p * kv(p + 1.0, ext.lo)
            + (2.0 * u * v) ** p * kv(p + 1.0, ext.hi)
        )
        rhs_ii = f_top / (u * v * w) ** p
        reports.append(make_report("prop7.ii", lhs_ii, rhs_ii, inputs, cfg))
    return reports


def qdigamma_prop_checks(
    q: float, a: float, b: float, cfg: ToleranceConfig = DEFAULT_TOL
) -> list[BoundReport]:
    """Three-point bound for the q-digamma slope and the second-derivative
    refinement; requires 3a > b so all evaluation points stay positive."""
    if q <= 0.0 or q == 1.0:
        raise DomainError(f"q-digamma needs q > 0 and q != 1, got q = {q!r}")
    require_positive_pair(a, b)
    require_positive_widening(a, b)
    ext = extend(Interval(a, b))
    inputs = {"q": q, "a": a, "b": b}

    def psi(x: float) -> float:
        return q_digamma(q, x, cfg).value

    def d1(x: float) -> float:
        return q_digamma_deriv(q, x, 1, cfg).value

    def d3(x: float) -> float:
        return q_digamma_deriv(q, x, 3, cfg).value

    slope = (psi(b) - psi(a)) / (b - a)
    avg = (d1(ext.lo) + d1(ext.hi) + 2.0 * d1(ext.mid)) / 4.0
    prop8 = make_report("prop8", abs(slope), avg, inputs, cfg)
    rhs9 = (b - a) ** 2 * (d3(ext.lo) + d3(ext.hi)) / 6.0
    prop9 = make_report("prop9", abs(slope - avg), rhs9, inputs, cfg)
    return [prop8, prop9]

"""Modified Bessel functions, the q-digamma family, and the reports of prop6,
prop7 (which checks its hypothesis p > 1 and 3a > b before evaluating anything)
and prop8/prop9 built on them.  Every parameter and argument must be finite.

The first-kind Bessel functions come from their power series with a ratio-test
tail bound; the second-kind ones from the Laplace-type integral
``K_p(x) = int_0^inf exp(-x cosh t) cosh(p t) dt`` with an explicit tail
majorant, evaluated by the reference integrator.  The normalized function
``nI_p(x) = 2^p Gamma(p+1) x^-p I_p(x)`` is summed from its own series (a
series in x^2, equal to 1 at x = 0) so small arguments suffer no cancellation.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import replace

from .core import (
    ConvergenceError,
    DEFAULT_TOL,
    DomainError,
    Interval,
    PreconditionError,
    SeriesResult,
    ToleranceConfig,
    BoundReport,
    make_report,
    require_positive_pair,
    require_positive_widening,
    widen,
)
from .oracle import integrate_ref


def _check_finite(fn: str, **params: float) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{fn} needs finite arguments, got {name} = {value!r}")


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


def _check_first_kind(p: float, x: float) -> None:
    if not p > -1.0:
        raise DomainError(f"Bessel order must satisfy p > -1, got p = {p!r}")
    _check_finite("the first-kind Bessel series", p=p, x=x)


def normalized_I_series(p: float, x: float, cfg: ToleranceConfig = DEFAULT_TOL) -> SeriesResult:
    """Normalized first-kind function as a :class:`SeriesResult`; even in x, equals 1 at x = 0."""
    _check_first_kind(p, x)
    return SeriesResult(*_normalized_series(p, x, cfg))


def bessel_I(p: float, x: float, cfg: ToleranceConfig = DEFAULT_TOL) -> SeriesResult:
    """Modified Bessel function of the first kind by its power series, x >= 0."""
    _check_first_kind(p, x)
    if x < 0.0:
        raise DomainError(f"bessel_I needs x >= 0, got {x!r}")
    if x == 0.0:
        if p == 0.0:
            return SeriesResult(1.0, 1, 0.0)
        if p > 0.0:
            return SeriesResult(0.0, 1, 0.0)
        raise DomainError(f"bessel_I diverges at x = 0 for p < 0 (p = {p!r})")
    value, terms, tail = _normalized_series(p, x, cfg)
    prefactor = math.exp(p * math.log(0.5 * x) - math.lgamma(p + 1.0))
    return SeriesResult(prefactor * value, terms, prefactor * tail)


def _log_cosh(y: float) -> float:
    ay = abs(y)
    return ay + math.log1p(math.exp(-2.0 * ay)) - math.log(2.0)


def bessel_K(p: float, x: float, cfg: ToleranceConfig = DEFAULT_TOL) -> SeriesResult:
    """Modified Bessel function of the second kind via its Laplace-type integral.

    The integrand exp(-x cosh t) cosh(p t) decays beyond T at rate at least
    x sinh T - |p|, so the tail past T is at most
    exp(-x cosh T) cosh(p T) / (x sinh T - |p|); T grows until that majorant
    plus the quadrature error fits within ``abs_tol``, or until sinh T would
    overflow.  A value beyond the float range is a DomainError.
    """
    _check_finite("bessel_K", p=p, x=x)
    if x <= 0.0:
        raise DomainError(f"bessel_K needs x > 0, got {x!r}")
    ap = abs(p)
    half_tol = 0.5 * cfg.abs_tol
    log_target = math.log(half_tol)
    T = 1.0
    while T < 710.0:  # sinh overflows past 710.47
        lam = x * math.sinh(T) - ap
        if lam > 0.0:
            log_tail = -x * math.cosh(T) + _log_cosh(ap * T) - math.log(lam)
            if log_tail <= log_target:
                tail = math.exp(log_tail) if log_tail > -745.0 else 0.0
                break
        T *= 1.25
    else:
        raise ConvergenceError(f"tail of the second-kind integral not boundable (p={p!r}, x={x!r})")

    def integrand(t: float) -> float:
        arg = -x * math.cosh(t) + _log_cosh(p * t)
        return math.exp(arg) if arg > -745.0 else 0.0

    try:
        body = integrate_ref(integrand, Interval(0.0, T), replace(cfg, abs_tol=half_tol, rel_tol=1e-15))
    except OverflowError as exc:
        raise DomainError(f"second-kind Bessel function beyond the float range (p={p!r}, x={x!r})") from exc
    total_bound = tail + body.tail_bound
    if total_bound > cfg.abs_tol:
        raise ConvergenceError(
            f"second-kind integral error bound {total_bound!r} exceeds abs_tol "
            f"(p={p!r}, x={x!r}; the value is too large for an absolute target)"
        )
    return SeriesResult(body.value, body.terms_used, total_bound)


def _check_q_x(q: float, x: float) -> None:
    if q <= 0.0 or q == 1.0:
        raise DomainError(f"q-digamma needs q > 0 and q != 1, got q = {q!r}")
    if x <= 0.0:
        raise DomainError(f"q-digamma needs x > 0, got x = {x!r}")
    _check_finite("q-digamma", q=q, x=x)


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
    lnq = math.log(q)
    if q < 1.0:
        s, terms, tail = _power_tail_series(q, x, 0, abs(lnq), cfg)
        return SeriesResult(-math.log1p(-q) + lnq * s, terms, tail)
    s, terms, tail = _power_tail_series(1.0 / q, x, 0, lnq, cfg)
    return SeriesResult(-math.log(q - 1.0) + lnq * (x - 0.5) - lnq * s, terms, tail)


def q_digamma_deriv(
    q: float, x: float, order: int, cfg: ToleranceConfig = DEFAULT_TOL
) -> SeriesResult:
    """Term-wise derivative of the q-digamma; orders 1 and 3 (both positive)."""
    if order not in (1, 3):
        raise ValueError(f"derivative order must be 1 or 3, got {order!r}")
    _check_q_x(q, x)
    lnq = math.log(q)
    if q < 1.0:
        scale = abs(lnq) ** (order + 1)
        s, terms, tail = _power_tail_series(q, x, order, scale, cfg)
        return SeriesResult(scale * s, terms, tail)
    scale = lnq ** (order + 1)
    s, terms, tail = _power_tail_series(1.0 / q, x, order, scale, cfg)
    linear = lnq if order == 1 else 0.0
    return SeriesResult(linear + scale * s, terms, tail)


def bessel_prop6(p: float, a: float, b: float, cfg: ToleranceConfig = DEFAULT_TOL) -> list[BoundReport]:
    """Three-point bounds for the normalized first-kind family (prop6.i1) and cosh
    (prop6.i11).  prop6.i1 writes nI_p'(x) as x nI_{p+1}(x) / (2(p+1)) (DLMF 10.29(ii))."""
    require_positive_pair(a, b)
    (lo, hi), mid = widen(a, b), 0.5 * (a + b)
    inputs = {"p": p, "a": a, "b": b}

    def nI(order: float, x: float) -> float:
        return normalized_I_series(order, x, cfg).value

    lhs_i1 = abs(nI(p, b) - nI(p, a)) / (b - a)
    rhs_i1 = (
        lo * nI(p + 1.0, lo)
        + hi * nI(p + 1.0, hi)
        + (a + b) * nI(p + 1.0, mid)
    ) / (8.0 * (p + 1.0))

    lhs_i11 = abs(math.cosh(b) - math.cosh(a)) / (b - a)
    rhs_i11 = (math.sinh(lo) + math.sinh(hi) + 2.0 * math.sinh(mid)) / 4.0
    return [
        make_report("prop6.i1", lhs_i1, rhs_i1, inputs, cfg),
        make_report("prop6.i11", lhs_i11, rhs_i11, {"a": a, "b": b}, cfg),
    ]


def bessel_prop7(p: float, a: float, b: float, cfg: ToleranceConfig = DEFAULT_TOL) -> BoundReport:
    """The weighted second-kind ratio bound (prop7.ii).  Its hypothesis, p > 1 and
    3a > b, is checked before any Bessel function is evaluated."""
    require_positive_pair(a, b)
    if not p > 1.0:
        raise PreconditionError(f"prop7 needs p > 1, got p = {p!r}")
    require_positive_widening(a, b)
    (lo, hi), mid = widen(a, b), 0.5 * (a + b)

    def kv(order: float, x: float) -> float:
        return bessel_K(order, x, cfg).value

    lhs_ii = abs(a**p * kv(p, b) - b**p * kv(p, a)) / ((a * b) ** p * (b - a))
    u, v, w = a + b, 3.0 * a - b, 3.0 * b - a
    f_top = (
        2.0 ** (p + 1.0) * (v * w) ** p * kv(p + 1.0, mid)
        + (2.0 * u * w) ** p * kv(p + 1.0, lo)
        + (2.0 * u * v) ** p * kv(p + 1.0, hi)
    )
    rhs_ii = f_top / (u * v * w) ** p
    return make_report("prop7.ii", lhs_ii, rhs_ii, {"p": p, "a": a, "b": b}, cfg)


def bessel_prop_checks(
    p: float, a: float, b: float, cfg: ToleranceConfig = DEFAULT_TOL
) -> list[BoundReport]:
    """The two prop6 reports and, when its hypothesis holds, the prop7 report."""
    reports = bessel_prop6(p, a, b, cfg)
    with contextlib.suppress(PreconditionError):
        reports.append(bessel_prop7(p, a, b, cfg))
    return reports


def qdigamma_prop_checks(
    q: float, a: float, b: float, cfg: ToleranceConfig = DEFAULT_TOL
) -> list[BoundReport]:
    """Three-point bound for the q-digamma slope and the second-derivative
    refinement; requires 3a > b so all evaluation points stay positive."""
    require_positive_pair(a, b)
    require_positive_widening(a, b)
    (lo, hi), mid = widen(a, b), 0.5 * (a + b)
    inputs = {"q": q, "a": a, "b": b}

    def psi(x: float) -> float:
        return q_digamma(q, x, cfg).value

    def d1(x: float) -> float:
        return q_digamma_deriv(q, x, 1, cfg).value

    def d3(x: float) -> float:
        return q_digamma_deriv(q, x, 3, cfg).value

    slope = (psi(b) - psi(a)) / (b - a)
    avg = (d1(lo) + d1(hi) + 2.0 * d1(mid)) / 4.0
    prop8 = make_report("prop8", abs(slope), avg, inputs, cfg)
    rhs9 = (b - a) ** 2 * (d3(lo) + d3(hi)) / 6.0
    prop9 = make_report("prop9", abs(slope - avg), rhs9, inputs, cfg)
    return [prop8, prop9]

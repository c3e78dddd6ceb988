"""Modified Bessel functions, the q-digamma family, and the reports of prop6,
prop7 (which checks its hypothesis p > 1 and 3a > b before evaluating anything)
and prop8/prop9 built on them.  Every parameter and argument must be finite.

The first-kind Bessel functions come from their power series with a ratio-test
tail bound; the second-kind ones from the Laplace-type integral
``K_p(x) = int_0^inf exp(-x cosh t) cosh(p t) dt`` as a trapezoid sum with a proven
bound.  The normalized function ``nI_p(x) = 2^p Gamma(p+1) x^-p I_p(x)`` is summed
from its own series (a series in x^2, equal to 1 at x = 0) so small arguments
suffer no cancellation.
The q-digamma and its derivatives run one series in r = min(q, 1/q), for every q.
"""

from __future__ import annotations

import contextlib
import math

from .core import (
    ConvergenceError,
    DEFAULT_TOL,
    DomainError,
    PreconditionError,
    SeriesResult,
    ToleranceConfig,
    BoundReport,
    make_report,
    require_positive_pair,
    require_positive_widening,
    widen,
)

_LN2 = math.log(2.0)

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
    """Modified Bessel function of the first kind by its power series, x >= 0.  The normalized series is
    at least 1 for p > -1 and its tail at most ``abs_tol``, so ``tail_bound`` <= abs_tol |value|: within
    max(abs_tol, rel_tol |value|) whenever abs_tol <= rel_tol (the default) or |value| <= 1."""
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


def bessel_K(p: float, x: float, cfg: ToleranceConfig = DEFAULT_TOL) -> SeriesResult:
    """K_p(x) = int_0^inf g(t) dt, g(t) = exp(-x cosh t) cosh(p t), as the trapezoid sum h (g(0)/2 + sum_k g(k h)).

    On |Im t| <= s < pi/2, |g| <= exp(-x cos s cosh t) cosh(p t), so the sum errs by at most
    2 K_p(x cos s) / (e^(2 pi s/h) - 1) (Trefethen and Weideman, SIAM Review 56, 2014, Thm 5.1): as
    e^y y^m K_p(y) increases in y for m = max(|p|, 1/2), at most eps K_p(x), with h making
    eps = 2 sec(s)^m e^(x (1 - cos s)) / (e^(2 pi s/h) - 1) about 2^-53.  The sum stops past the peak,
    once g(t) / (x sinh t - |p|), a majorant of the integral beyond t, is below 2^-56 of it.  As
    x sinh t - |p| < x cosh t, that test cannot pass while g(t) exceeds 2^-55 h (sum so far) x cosh t,
    the factor 2 covering the rounding, so sinh and the test wait until it does.  Only where the sum
    overflows is it taken again with each exponent lowered by 64 ln 2, and the value times 2^64.
    ``tail_bound`` is eps / (1 - eps) of the value, that majorant, and the rounding of the n positive
    terms (Higham, ch. 3): each exponent errs by at most 4 (x cosh t + |p| t + shift) + 3 units, largest
    at the last node, with shift 0 or 64 ln 2, and each term may underflow by 2^-1074 (times 2^64 when
    lowered).  It must fit max(abs_tol, rel_tol |value|).
    A value beyond the float range is a DomainError; reaching t = 710, where cosh overflows, or 2^16
    nodes first is a ConvergenceError, each with its own message.
    """
    _check_finite("bessel_K", p=p, x=x)
    if x <= 0.0:
        raise DomainError(f"bessel_K needs x > 0, got {x!r}")
    ap = abs(p)
    m = max(ap, 0.5)
    s = min(1.4, 8.0 / math.hypot(math.sqrt(m), math.sqrt(x)))  # for large m + x, near the s that maximizes h
    one_minus_cos = 2.0 * math.sin(0.5 * s) ** 2
    log_c = _LN2 - m * math.log1p(-one_minus_cos) + x * one_minus_cos  # eps = e^log_c / (e^(2 pi s/h) - 1)
    h = 2.0 * math.pi * s / (log_c + 53.0 * _LN2)
    h -= h % (math.ulp(h) * 2.0**27)  # 26 bits, so that every node k h is exact
    eps = 1.0 / (math.exp(2.0 * math.pi * s / h - log_c) - math.exp(-log_c))
    for power in (0, 64):  # 64 only where the sum at 0 overflows; shift = 0.0 leaves every float as it was
        shift = power * _LN2
        try:
            total = 0.5 * math.exp(-x - shift)
            for k in range(1, min(int(710.0 / h), 1 << 16)):
                t = k * h
                apt = ap * t
                xc = x * math.cosh(t)
                arg = -xc + (apt + math.log1p(math.exp(-2.0 * apt)) - (_LN2 + shift))  # + log cosh(p t)
                g = math.exp(arg) if arg > -745.0 else 0.0
                total += g
                if g > 2.0**-55 * h * total * xc:  # the stop test cannot pass yet
                    continue
                lam = x * math.sinh(t) - ap
                if lam > 0.0 and g <= 2.0**-56 * h * total * lam:
                    break
            else:
                if 710.0 / h > 1 << 16:  # the node cap, not t = 710, stopped the sum
                    raise ConvergenceError(f"second-kind sum not converged within 2^16 nodes (p={p!r}, x={x!r})")
                raise ConvergenceError(f"tail of the second-kind integral not boundable (p={p!r}, x={x!r})")
            value = math.ldexp(h * total, power)
            if value == math.inf:  # finite terms whose sum overflows
                raise OverflowError
            break
        except OverflowError as exc:
            if power:
                raise DomainError(f"second-kind Bessel function beyond the float range (p={p!r}, x={x!r})") from exc
    rounding = (2 * k + 4.0 * (xc + apt + shift) + 10) * 2.0**-53 * value + math.ldexp(k * 1e-323, power)
    bound = eps / (1.0 - eps) * value + math.ldexp(g / lam, power) + rounding
    if bound > max(cfg.abs_tol, cfg.rel_tol * value):
        raise ConvergenceError(f"second-kind sum error bound {bound!r} exceeds its target (p={p!r}, x={x!r})")
    return SeriesResult(value, k + 1, bound)


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

    The test waits while the numerator num = k^weight rho^k, rho = qbase^x, exceeds
    floor = 2 abs_tol (1 - qbase) / (scale rho).  When rhat < 1 the tail is
    scale (k+1)^weight rho^(k+1) / ((1 - qbase)(1 - rhat)) >= scale num rho / (1 - qbase), and
    rounding is monotone, so tail <= abs_tol needs fl(fl(scale fl(num rho)) / fl(1 - qbase)) <= abs_tol.
    Each of those three roundings errs by a factor 1 + 2^-53, or by 2^-1075 at most where it
    underflows.  If abs_tol (1 - qbase) >= 2^-1022 (2 + scale), the underflows count for at most
    2^-53 of num, and if scale rho >= 2^-1022, floor too is rounded relatively; then the factor 2
    covers every rounding, and num <= floor wherever the test could pass.  Where either condition
    fails, as when scale rho underflows to 0 or abs_tol is below about 1e-280, floor is inf.
    """
    rho = qbase**x
    scaled_rho = scale * rho
    cut = cfg.abs_tol * (1.0 - qbase)
    floor = 2.0 * cut / scaled_rho if scaled_rho >= 2.0**-1022 and cut >= 2.0**-1022 * (2.0 + scale) else math.inf
    qk = 1.0
    rhok = 1.0
    total = 0.0
    for k in range(1, cfg.max_series_terms + 1):
        qk *= qbase
        rhok *= rho
        num = (k**weight) * rhok
        total += num / (1.0 - qk)
        if num > floor:  # the tail test cannot pass yet
            continue
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


def _q_family(q: float, x: float, order: int, cfg: ToleranceConfig) -> SeriesResult:
    """psi_q^(order)(x), a closed part plus (log r)^(order+1) times :func:`_power_tail_series` in
    r = min(q, 1/q) at weight ``order``.  The closed part is -log(1 - q) at order 0 for q < 1; for
    q > 1 it is -log(q - 1) + ln q (x - 1/2) at order 0 and ln q at order 1; else it is 0."""
    _check_q_x(q, x)
    lnq = math.log(q)
    if q < 1.0:
        r, log_r = q, lnq
        closed = -math.log1p(-q) if order == 0 else 0.0
    else:
        r, log_r = 1.0 / q, -lnq
        closed = -math.log(q - 1.0) + lnq * (x - 0.5) if order == 0 else lnq if order == 1 else 0.0
    s, terms, tail = _power_tail_series(r, x, order, abs(log_r) ** (order + 1), cfg)
    return SeriesResult(closed + log_r ** (order + 1) * s, terms, tail)


def q_digamma(q: float, x: float, cfg: ToleranceConfig = DEFAULT_TOL) -> SeriesResult:
    """q-digamma value; series in q for 0 < q < 1, reflected into 1/q for q > 1."""
    return _q_family(q, x, 0, cfg)


def q_digamma_deriv(
    q: float, x: float, order: int, cfg: ToleranceConfig = DEFAULT_TOL
) -> SeriesResult:
    """Term-wise derivative of the q-digamma; orders 1 and 3 (both positive)."""
    if order not in (1, 3):
        raise ValueError(f"derivative order must be 1 or 3, got {order!r}")
    return _q_family(q, x, order, cfg)


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

    def psi(order: int, x: float) -> float:  # the public names, whose calls hhbench's tracer counts
        return (q_digamma(q, x, cfg) if order == 0 else q_digamma_deriv(q, x, order, cfg)).value

    slope = (psi(0, b) - psi(0, a)) / (b - a)
    avg = (psi(1, lo) + psi(1, hi) + 2.0 * psi(1, mid)) / 4.0
    prop8 = make_report("prop8", abs(slope), avg, inputs, cfg)
    rhs9 = (b - a) ** 2 * (psi(3, lo) + psi(3, hi)) / 6.0
    prop9 = make_report("prop9", abs(slope - avg), rhs9, inputs, cfg)
    return [prop8, prop9]

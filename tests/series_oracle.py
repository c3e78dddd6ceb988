"""References for the two series loops of :mod:`hhaudit.special_fns`, each evaluating its stop
test on every term.

:func:`power_tail_series` is ``special_fns._power_tail_series`` and :func:`bessel_K` is
``special_fns.bessel_K`` as they were before either loop skipped a stop test that cannot pass
yet.  The production loops must return the same value, term count and tail bound bit for bit
and raise the same exceptions with the same messages.  The one intended difference: this
``bessel_K`` sums unscaled, so a value between about 1e307 and the float maximum is refused as
beyond the float range.
"""

from __future__ import annotations

import math

from hhaudit.core import DEFAULT_TOL, ConvergenceError, DomainError, ToleranceConfig

_LN2 = math.log(2.0)


def power_tail_series(
    qbase: float, x: float, weight: int, scale: float, cfg: ToleranceConfig
) -> tuple[float, int, float]:
    """Sum_{k>=1} k^weight qbase^(k x) / (1 - qbase^k), testing the tail after every term."""
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


def bessel_K(p: float, x: float, cfg: ToleranceConfig = DEFAULT_TOL) -> tuple[float, int, float]:
    """(value, nodes, tail bound) of the trapezoid sum for K_p(x), finite p and x > 0, with ``sinh`` and
    the stop test at every node."""
    ap = abs(p)
    m = max(ap, 0.5)
    s = min(1.4, 8.0 / math.hypot(math.sqrt(m), math.sqrt(x)))
    one_minus_cos = 2.0 * math.sin(0.5 * s) ** 2
    log_c = _LN2 - m * math.log1p(-one_minus_cos) + x * one_minus_cos
    h = 2.0 * math.pi * s / (log_c + 53.0 * _LN2)
    h -= h % (math.ulp(h) * 2.0**27)
    eps = 1.0 / (math.exp(2.0 * math.pi * s / h - log_c) - math.exp(-log_c))
    total = 0.5 * math.exp(-x)
    try:
        for k in range(1, min(int(710.0 / h), 1 << 16)):
            t = k * h
            apt = ap * t
            arg = -x * math.cosh(t) + (apt + math.log1p(math.exp(-2.0 * apt)) - _LN2)
            g = math.exp(arg) if arg > -745.0 else 0.0
            total += g
            lam = x * math.sinh(t) - ap
            if lam > 0.0 and g <= 2.0**-56 * h * total * lam:
                break
        else:
            if 710.0 / h > 1 << 16:
                raise ConvergenceError(f"second-kind sum not converged within 2^16 nodes (p={p!r}, x={x!r})")
            raise ConvergenceError(f"tail of the second-kind integral not boundable (p={p!r}, x={x!r})")
        value = h * total
        if value == math.inf:
            raise OverflowError
    except OverflowError as exc:
        raise DomainError(f"second-kind Bessel function beyond the float range (p={p!r}, x={x!r})") from exc
    rounding = (2 * k + 4.0 * (x * math.cosh(t) + apt) + 10) * 2.0**-53 * value + k * 1e-323
    bound = eps / (1.0 - eps) * value + g / lam + rounding
    if bound > max(cfg.abs_tol, cfg.rel_tol * value):
        raise ConvergenceError(f"second-kind sum error bound {bound!r} exceeds its target (p={p!r}, x={x!r})")
    return value, k + 1, bound

"""Reference integration, independent of the audited rules.

:func:`integrate_ref` is the one adaptive Gauss-Kronrod (G7/K15) integrator,
used as the ground truth for every integral left-hand side and identity
residual and for the Laplace-type integral of ``bessel_K``.  It aims at the
``abs_tol`` and ``rel_tol`` of the :class:`ToleranceConfig` it is given and
returns a :class:`SeriesResult` (value, panels used, error estimate).  It
deliberately belongs to a different rule family than the midpoint/trapezoid
sums in :mod:`hhaudit.quadrature`, so certificate audits are never
self-confirming.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import ConvergenceError, DEFAULT_TOL, DomainError, Interval, SeriesResult, ToleranceConfig

# 15-point Kronrod abscissae for [-1, 1] (positive half, descending) and
# weights, with the embedded 7-point Gauss weights.  Gauss nodes are the
# odd-indexed Kronrod nodes plus the center.
_XGK = (
    0.9914553711208126392068547,
    0.9491079123427585245261897,
    0.8648644233597690727897128,
    0.7415311855993944398638648,
    0.5860872354676911302941448,
    0.4058451513773971669066064,
    0.2077849550078984676006894,
)
_WGK = (
    0.0229353220105292249637320,
    0.0630920926299785532907007,
    0.1047900103222501838398763,
    0.1406532597155259187451896,
    0.1690047266392679028265834,
    0.1903505780647854099132564,
    0.2044329400752988924141620,
)
_WGK_CENTER = 0.2094821410847278280129992
_WG = (
    0.1294849661688696932706114,
    0.2797053914892766679014678,
    0.3818300505051189449503698,
)
_WG_CENTER = 0.4179591836734693877551020


def _gk15_panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One G7/K15 panel: returns (K15 value, |K15 - G7|)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    resk = _WGK_CENTER * fc
    resg = _WG_CENTER * fc
    for j, xk in enumerate(_XGK):
        dx = half * xk
        fsum = f(center - dx) + f(center + dx)
        resk += _WGK[j] * fsum
        if j % 2 == 1:
            resg += _WG[(j - 1) // 2] * fsum
    return half * resk, abs(half * (resk - resg))


def integrate_ref(
    f: Callable[[float], float], iv: Interval, cfg: ToleranceConfig = DEFAULT_TOL
) -> SeriesResult:
    """Integrate ``f`` over ``iv`` adaptively: the value, the panels used and the error estimate.

    Panels are bisected until the per-panel Gauss/Kronrod discrepancy fits the
    proportional share of ``cfg.abs_tol``; the summed estimate satisfies
    ``tail_bound <= max(cfg.abs_tol, cfg.rel_tol * |value|)``.  The relative
    floor keeps large smooth integrals from chasing an absolute target below
    double-precision resolution.  A panel whose value or error is not finite
    raises :class:`DomainError`; exceeding ``cfg.max_refine_depth`` raises
    :class:`ConvergenceError`.

    Deterministic for fixed inputs.
    """
    panels = 0

    def recurse(a: float, b: float, budget: float, depth: int) -> tuple[float, float]:
        nonlocal panels
        panels += 1
        value, err = _gk15_panel(f, a, b)
        if not (math.isfinite(value) and math.isfinite(err)):
            raise DomainError(
                f"integrand not finite on the panel [{a!r}, {b!r}] (value {value!r}, error {err!r})"
            )
        if err <= budget or err <= cfg.rel_tol * abs(value):
            return value, err
        if depth >= cfg.max_refine_depth:
            raise ConvergenceError(
                f"reference integration stalled on [{a!r}, {b!r}] at depth "
                f"{cfg.max_refine_depth} (panel error ~ {err!r})"
            )
        m = 0.5 * (a + b)
        left = recurse(a, m, 0.5 * budget, depth + 1)
        right = recurse(m, b, 0.5 * budget, depth + 1)
        return left[0] + right[0], left[1] + right[1]

    value, err = recurse(iv.a, iv.b, cfg.abs_tol, 0)
    return SeriesResult(value, panels, err)


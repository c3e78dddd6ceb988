"""The inequality battery on the widened interval.

Checks implemented here, each as an explicit (lhs, rhs) pair:

* the classical two-sided midpoint/endpoint bound for convex functions;
* the two integral identities tying the trapezoid and midpoint defects to
  weighted integrals of f'' and f';
* the three-point upper bound ``[2 f(mid) + f(hi) + f(lo)] / 4`` on the
  widened interval, and its half-value companion (fragile as printed);
* the first-derivative error bounds with constants 1/8 and the Hoelder-type
  constant, including both variants of the combined-corollary constant;
* the second-derivative error bounds with the four constants K3..K6 and the
  two uniform-bound remark forms.

All integral left-hand sides come from :mod:`hhaudit.oracle`; right-hand
sides are closed-form evaluations.  Every bound operation first guards the
convexity/domain hypotheses on the widened interval and fails loudly rather
than silently evaluating outside a function's domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import (
    BoundReport,
    DEFAULT_TOL,
    Interval,
    PreconditionError,
    ToleranceConfig,
    conjugate_exponent,
    extend,
    make_report,
    sample_convexity,
)
from .exprlang import Expr, to_text
from .oracle import integrate_ref
from .special_fns import log_gamma

K1 = 0.125

_GUARD_PAIRS = 32

LEMMA_RESIDUAL_TOL = 1e-8


_LN2 = math.log(2.0)


def k2_printed_constant(q: float) -> float:
    """The combined-corollary constant exactly as printed (exponent p+1+1/(pq))."""
    p = conjugate_exponent(q)
    # log form keeps 2^(p+1+...) from overflowing for q near 1
    return math.exp(-(math.log(p + 1.0) + (p + 1.0 + 1.0 / (p * q)) * _LN2) / p)


def k2_derived_constant(q: float) -> float:
    """The same constant restated consistently with the Hoelder-type theorem:
    (1/((p+1) 2^(2p)))^(1/p).  Never larger than the printed form."""
    p = conjugate_exponent(q)
    return math.exp(-(math.log(p + 1.0) + 2.0 * p * _LN2) / p)


def min_first_order_constant(q: float) -> float:
    """min of the 1/8 constant and the derived Hoelder constant; 1/8 alone at q = 1."""
    if q == 1.0:
        return K1
    return min(K1, k2_derived_constant(q))


def _as_fn(f) -> Callable[[float], float]:
    if callable(f):
        return f
    raise TypeError(f"expected a callable or parsed expression, got {type(f).__name__}")


def _fn_label(f) -> str:
    return to_text(f) if isinstance(f, Expr) else getattr(f, "__name__", "<callable>")


def _require_convex(fn, region, cfg: ToleranceConfig, what: str) -> None:
    report = sample_convexity(fn, region, _GUARD_PAIRS, cfg=cfg, label=f"guard:{what}")
    if not report.satisfied:
        raise PreconditionError(
            f"{what} is not midpoint-convex on [{report.inputs['lo']!r}, {report.inputs['hi']!r}]"
            f" (worst gap {report.lhs!r} near x = {report.inputs['worst_at']!r})"
        )


def mean_integral(f, iv: Interval, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """(1/(b-a)) * integral of f over [a, b], from the reference integrator."""
    value, _ = integrate_ref(_as_fn(f), iv, cfg.abs_tol, cfg=cfg)
    return value / iv.width


def hh_classic_check(
    f: Expr, iv: Interval, cfg: ToleranceConfig = DEFAULT_TOL
) -> tuple[BoundReport, BoundReport]:
    """Classical two-sided bound: f(mid) <= mean integral <= (f(a)+f(b))/2."""
    fn = _as_fn(f)
    _require_convex(fn, iv, cfg, "f")
    mean = mean_integral(fn, iv, cfg)
    inputs = {"fn": _fn_label(f), "a": iv.a, "b": iv.b}
    lower = make_report("eq1.lower", fn(iv.midpoint), mean, inputs, cfg)
    upper = make_report("eq1.upper", mean, 0.5 * (fn(iv.a) + fn(iv.b)), inputs, cfg)
    return lower, upper


def lemma_identity_residual(
    which: str, f: Expr, iv: Interval, cfg: ToleranceConfig = DEFAULT_TOL
) -> float:
    """|LHS - RHS| of the stated integral identity, both sides via the oracle.

    ``lemma1`` ties the trapezoid defect to the t(1-t)-weighted integral of
    f''; ``lemma2`` ties the midpoint defect to the two tent-weighted
    integrals of f'.  For smooth f the residual should sit at oracle accuracy
    (contract: <= 1e-8).
    """
    if which not in ("lemma1", "lemma2"):
        raise ValueError(f"which must be 'lemma1' or 'lemma2', got {which!r}")
    fn = _as_fn(f)
    a, b = iv.a, iv.b
    width = iv.width
    mean = mean_integral(fn, iv, cfg)
    if which == "lemma1":
        lhs = 0.5 * (fn(a) + fn(b)) - mean
        jet2 = f.compiled(2)

        def weighted_second(t: float) -> float:
            return t * (1.0 - t) * jet2(t * a + (1.0 - t) * b)[2]

        inner, _ = integrate_ref(weighted_second, Interval(0.0, 1.0), cfg.abs_tol, cfg=cfg)
        rhs = 0.5 * width * width * inner
    else:
        lhs = mean - fn(iv.midpoint)
        jet1 = f.compiled(1)

        def deriv_at(t: float) -> float:
            return jet1(b + (a - b) * t)[1]

        left, _ = integrate_ref(lambda t: t * deriv_at(t), Interval(0.0, 0.5), cfg.abs_tol, cfg=cfg)
        right, _ = integrate_ref(
            lambda t: (t - 1.0) * deriv_at(t), Interval(0.5, 1.0), cfg.abs_tol, cfg=cfg
        )
        rhs = width * (left + right)
    return abs(lhs - rhs)


def three_point_check(
    f: Expr, iv: Interval, cfg: ToleranceConfig = DEFAULT_TOL
) -> tuple[BoundReport, BoundReport]:
    """Three-point bound: f(mid) <= mean integral <= [2 f(mid) + f(hi) + f(lo)] / 4,
    with lo/hi from the widened interval.  Needs f convex there."""
    fn = _as_fn(f)
    ext = extend(iv)
    _require_convex(fn, ext, cfg, "f")
    mean = mean_integral(fn, iv, cfg)
    fmid, flo, fhi = fn(ext.mid), fn(ext.lo), fn(ext.hi)
    inputs = {"fn": _fn_label(f), "a": iv.a, "b": iv.b}
    lower = make_report("k1.lower", fmid, mean, inputs, cfg)
    upper = make_report("k1.upper", mean, (2.0 * fmid + fhi + flo) / 4.0, inputs, cfg)
    return lower, upper


def abs_half_check(f: Expr, iv: Interval, cfg: ToleranceConfig = DEFAULT_TOL) -> BoundReport:
    """Half-value companion bound |mean - f(mid)/2| <= |f(hi) + f(lo)|/4, as printed.

    Fragile: a vertical shift of f changes the left side but can zero the
    right side, so violations are recorded as findings, not artifact bugs.
    """
    fn = _as_fn(f)
    ext = extend(iv)
    _require_convex(fn, ext, cfg, "f")
    mean = mean_integral(fn, iv, cfg)
    lhs = abs(mean - 0.5 * fn(ext.mid))
    rhs = abs(fn(ext.hi) + fn(ext.lo)) / 4.0
    inputs = {"fn": _fn_label(f), "a": iv.a, "b": iv.b}
    return make_report("k2", lhs, rhs, inputs, cfg, fragile=True)


@dataclass(frozen=True)
class FirstOrderBounds:
    """Midpoint-defect bounds from |f'|^q convexity on the widened interval.

    Hoelder-form fields (p, rhs_thm3, k2_printed, k2_derived) are None at
    q = 1, where only the power-mean form applies.
    """

    q: float
    p: float | None
    lhs: float
    rhs_thm2: float
    rhs_thm3: float | None
    k1: float
    k2_printed: float | None
    k2_derived: float | None
    rhs_min: float


def first_order_bounds(
    f: Expr, iv: Interval, q: float, cfg: ToleranceConfig = DEFAULT_TOL
) -> FirstOrderBounds:
    """Evaluate |mean integral - f(mid)| against the first-derivative bounds."""
    if q < 1.0:
        raise PreconditionError(f"exponent must satisfy q >= 1, got {q!r}")
    fn = _as_fn(f)
    ext = extend(iv)
    jet1 = f.compiled(1)

    def deriv_pow(x: float) -> float:
        return abs(jet1(x)[1]) ** q

    _require_convex(deriv_pow, ext, cfg, f"|f'|^q (q = {q!r})")
    mean = mean_integral(fn, iv, cfg)
    lhs = abs(mean - fn(ext.mid))
    d_lo = abs(jet1(ext.lo)[1])
    d_hi = abs(jet1(ext.hi)[1])
    s = d_lo**q + d_hi**q
    rhs_thm2 = (iv.width / 8.0) * s ** (1.0 / q)
    if q > 1.0:
        p = conjugate_exponent(q)
        thm3_const = math.exp(-((p + 1.0) * _LN2 + math.log(p + 1.0)) / p)
        rhs_thm3 = iv.width * thm3_const * (0.5 * s) ** (1.0 / q)
        k2p: float | None = k2_printed_constant(q)
        k2d: float | None = k2_derived_constant(q)
        rhs_min = min(rhs_thm2, rhs_thm3)
    else:
        p = rhs_thm3 = k2p = k2d = None
        rhs_min = rhs_thm2
    return FirstOrderBounds(
        q=q,
        p=p,
        lhs=lhs,
        rhs_thm2=rhs_thm2,
        rhs_thm3=rhs_thm3,
        k1=K1,
        k2_printed=k2p,
        k2_derived=k2d,
        rhs_min=rhs_min,
    )


@dataclass(frozen=True)
class SecondOrderBounds:
    """Three-point-defect bounds from |f''|^q convexity on the widened interval.

    The Hoelder-form fields rhs_k4 and rhs_k5 are None at q = 1.
    """

    q: float
    p: float | None
    lhs: float
    rhs_k3: float
    rhs_k4: float | None
    rhs_k5: float | None
    rhs_k6: float
    rhs_min: float


def _gamma_ratio_power(p: float) -> float:
    """(sqrt(pi) Gamma(p+1) / (2 Gamma(p+3/2)))^(1/p)."""
    log_ratio = 0.5 * math.log(math.pi) + log_gamma(p + 1.0) - math.log(2.0) - log_gamma(p + 1.5)
    return math.exp(log_ratio / p)


def second_order_bounds(
    f: Expr, iv: Interval, q: float, cfg: ToleranceConfig = DEFAULT_TOL
) -> SecondOrderBounds:
    """Evaluate |mean integral - [f(lo) + f(hi) + 2 f(mid)]/4| against K3..K6."""
    if q < 1.0:
        raise PreconditionError(f"exponent must satisfy q >= 1, got {q!r}")
    fn = _as_fn(f)
    ext = extend(iv)
    jet2 = f.compiled(2)

    def second_pow(x: float) -> float:
        return abs(jet2(x)[2]) ** q

    _require_convex(second_pow, ext, cfg, f"|f''|^q (q = {q!r})")
    mean = mean_integral(fn, iv, cfg)
    lhs = abs(mean - (fn(ext.lo) + fn(ext.hi) + 2.0 * fn(ext.mid)) / 4.0)
    dd_lo = abs(jet2(ext.lo)[2])
    dd_hi = abs(jet2(ext.hi)[2])
    w2 = iv.width**2
    avg_q = 0.5 * (dd_lo**q + dd_hi**q)
    rhs_k3 = (w2 / 3.0) * avg_q ** (1.0 / q)
    rhs_k6 = (
        w2
        * (2.0 / ((q + 1.0) * (q + 2.0) * (q + 3.0))) ** (1.0 / q)
        * (2.0 * dd_lo**q + (q + 1.0) * dd_hi**q) ** (1.0 / q)
    )
    if q > 1.0:
        p = conjugate_exponent(q)
        rhs_k4: float | None = 2.0 * w2 * _gamma_ratio_power(p) * avg_q ** (1.0 / q)
        rhs_k5: float | None = (
            w2
            * 2.0
            * (1.0 / (p + 1.0)) ** (1.0 / p)
            * (1.0 / ((q + 1.0) * (q + 2.0))) ** (1.0 / q)
            * (dd_lo**q + (q + 1.0) * dd_hi**q) ** (1.0 / q)
        )
        rhs_min = min(rhs_k3, rhs_k4, rhs_k5, rhs_k6)
    else:
        p = rhs_k4 = rhs_k5 = None
        rhs_min = min(rhs_k3, rhs_k6)
    return SecondOrderBounds(
        q=q,
        p=p,
        lhs=lhs,
        rhs_k3=rhs_k3,
        rhs_k4=rhs_k4,
        rhs_k5=rhs_k5,
        rhs_k6=rhs_k6,
        rhs_min=rhs_min,
    )


def uniform_bound_remarks(K: float, iv: Interval, p: float) -> tuple[float, float]:
    """Uniform |f''| <= K forms: (K(b-a)^2/3, (K(b-a)^2/2) * gamma-ratio^(1/p))."""
    if K < 0.0:
        raise ValueError(f"uniform bound K must be nonnegative, got {K!r}")
    if p <= 1.0:
        raise ValueError(f"the second remark form needs p > 1, got {p!r}")
    w2 = iv.width**2
    return K * w2 / 3.0, (K * w2 / 2.0) * _gamma_ratio_power(p)

"""The inequality battery on the widened interval.

Checks implemented here, each as an explicit (lhs, rhs) pair:

* the classical two-sided midpoint/endpoint bound for convex functions;
* the two integral identities tying the trapezoid and midpoint defects to
  weighted integrals of f'' and f';
* the three-point upper bound ``[2 f(mid) + f(hi) + f(lo)] / 4`` on the
  widened interval, and its half-value companion (fragile as printed);
* the first-derivative error bounds with constants 1/8 and the Hoelder-type
  constant, and the combined corollary with its constant as printed;
* the second-derivative error bounds with the four constants K3..K6, and
  the corollary that takes their minimum.

All integral left-hand sides come from :mod:`hhaudit.oracle`; right-hand
sides are closed-form evaluations.  The derivative bounds share one left
side per order: :meth:`Instance.first_order` and :meth:`Instance.second_order`
return it with a mapping from each target name to its right side.  Every
bound operation first checks its hypothesis on the widened interval with
:func:`hhaudit.core.convexity_guard` (convexity sampled at 32 pairs;
1 <= q < inf) and fails loudly rather than silently evaluating outside a
function's domain.  :class:`Instance` holds one function on one interval and
computes each guard, the mean integral and the shared bounds once for all
the checks run on it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from .core import (
    BoundReport,
    DEFAULT_TOL,
    DomainError,
    Interval,
    PreconditionError,
    ToleranceConfig,
    conjugate_exponent,
    convexity_guard,
    extend,
    make_report,
    power_mean,
    sample_convexity,  # unused here; hhbench's self-tests read this binding
)
from .exprlang import Expr, fn_label
from .oracle import integrate_ref

K1 = 0.125

LEMMA_RESIDUAL_TOL = 1e-8


_LN2 = math.log(2.0)


def k2_printed_constant(q: float) -> float:
    """The combined-corollary constant exactly as printed (exponent p+1+1/(pq))."""
    p = conjugate_exponent(q)
    # log form keeps 2^(p+1+...) from overflowing for q near 1
    return math.exp(-(math.log(p + 1.0) + (p + 1.0 + 1.0 / (p * q)) * _LN2) / p)


def k2_derived_constant(q: float) -> float:
    """The same constant restated consistently with the Hoelder-type theorem: (1/((p+1) 2^(2p)))^(1/p).
    Never larger than the printed form, and above K1 at every q > 1, since p + 1 < 2^p for p > 1."""
    p = conjugate_exponent(q)
    return math.exp(-(math.log(p + 1.0) + 2.0 * p * _LN2) / p)


def _gamma_ratio_power(p: float) -> float:
    """(sqrt(pi) Gamma(p+1) / (2 Gamma(p+3/2)))^(1/p)."""
    log_ratio = 0.5 * math.log(math.pi) + math.lgamma(p + 1.0) - _LN2 - math.lgamma(p + 1.5)
    return math.exp(log_ratio / p)


class Instance:
    """One function f on one base interval [a, b], at one exponent q.

    The battery's bounds share four hypotheses (f convex on [a, b]; f, |f'|^q
    and |f''|^q convex on the widened interval) and one left side, the mean
    integral.  An instance computes each of those, f at the widened ends and
    at the midpoint, and the first- and second-order bounds at most once.  A
    DomainError or PreconditionError is kept and raised again, as the same
    exception, to every later check that needs that piece.  Every report
    names f in its canonical form.
    """

    def __init__(self, f, iv: Interval, q: float = 1.0, cfg: ToleranceConfig = DEFAULT_TOL):
        if not callable(f):
            raise TypeError(f"expected a callable or parsed expression, got {type(f).__name__}")
        self.f, self.iv, self.q, self.cfg = f, iv, q, cfg
        self._memo: dict = {}

    @functools.cached_property
    def inputs(self) -> dict:
        return {"fn": fn_label(self.f), "a": self.iv.a, "b": self.iv.b}

    def _once(self, key: str, compute: Callable):
        if key not in self._memo:
            try:
                self._memo[key] = (True, compute())
            except (DomainError, PreconditionError) as exc:
                self._memo[key] = (False, exc)
        ok, value = self._memo[key]
        if not ok:
            raise value
        return value

    @functools.cached_property
    def ext(self) -> Interval:
        return extend(self.iv)

    def _guard(self, order: int, widened: bool = True) -> None:
        """:func:`convexity_guard` of f (order 0) or |f^(order)|^q, on [a, b] or the widened interval."""
        self._once(f"guard {order} {widened}",
                   lambda: convexity_guard(self.f, order, self.q, cfg=self.cfg)(self.ext if widened else self.iv))

    def _f_at(self, point: str) -> float:
        """f at the widened interval's ends "lo" and "hi", or at "mid", the base midpoint."""
        return self._once(point, lambda: self.f(
            self.iv.midpoint if point == "mid" else self.ext.a if point == "lo" else self.ext.b))

    def mean(self) -> float:
        """(1/(b-a)) * integral of f over [a, b], from the reference integrator."""
        iv, cfg = self.iv, self.cfg
        return self._once("mean", lambda: integrate_ref(self.f, iv, cfg).value / iv.width)

    def classic(self) -> tuple[BoundReport, BoundReport]:
        """Classical two-sided bound: f(mid) <= mean integral <= (f(a)+f(b))/2."""
        fn, iv, cfg = self.f, self.iv, self.cfg
        self._guard(0, widened=False)
        mean = self.mean()
        lower = make_report("eq1.lower", fn(iv.midpoint), mean, self.inputs, cfg)
        upper = make_report("eq1.upper", mean, 0.5 * (fn(iv.a) + fn(iv.b)), self.inputs, cfg)
        return lower, upper

    def lemma_residual(self, which: str) -> float:
        """|LHS - RHS| of the stated integral identity, both sides via the oracle.

        ``lemma1`` ties the trapezoid defect to the t(1-t)-weighted integral of
        f''; ``lemma2`` ties the midpoint defect to the two tent-weighted
        integrals of f'.  For smooth f the residual should sit at oracle
        accuracy (contract: <= 1e-8).
        """
        if which not in ("lemma1", "lemma2"):
            raise ValueError(f"which must be 'lemma1' or 'lemma2', got {which!r}")
        fn, cfg = self.f, self.cfg
        a, b = self.iv.a, self.iv.b
        width = self.iv.width
        mean = self.mean()
        if which == "lemma1":
            lhs = 0.5 * (fn(a) + fn(b)) - mean
            jet2 = fn.compiled(2)

            def weighted_second(t: float) -> float:
                return t * (1.0 - t) * jet2(t * a + (1.0 - t) * b)[2]

            inner = integrate_ref(weighted_second, Interval(0.0, 1.0), cfg).value
            rhs = 0.5 * width * width * inner
        else:
            lhs = mean - fn(self.iv.midpoint)
            jet1 = fn.compiled(1)

            def deriv_at(t: float) -> float:
                return jet1(b + (a - b) * t)[1]

            left = integrate_ref(lambda t: t * deriv_at(t), Interval(0.0, 0.5), cfg).value
            right = integrate_ref(lambda t: (t - 1.0) * deriv_at(t), Interval(0.5, 1.0), cfg).value
            rhs = width * (left + right)
        return abs(lhs - rhs)

    def three_point(self) -> tuple[BoundReport, BoundReport]:
        """Three-point bound: f(mid) <= mean integral <= [2 f(mid) + f(hi) + f(lo)] / 4,
        with lo/hi from the widened interval.  Needs f convex there."""
        self._guard(0)
        mean = self.mean()
        fmid, flo, fhi = self._f_at("mid"), self._f_at("lo"), self._f_at("hi")
        lower = make_report("k1.lower", fmid, mean, self.inputs, self.cfg)
        upper = make_report("k1.upper", mean, (2.0 * fmid + fhi + flo) / 4.0, self.inputs, self.cfg)
        return lower, upper

    def abs_half(self) -> BoundReport:
        """Half-value companion bound |mean - f(mid)/2| <= |f(hi) + f(lo)|/4, as printed.

        Fragile: a vertical shift of f changes the left side but can zero the
        right side, so violations are recorded as findings, not artifact bugs.
        """
        self._guard(0)
        mean = self.mean()
        lhs = abs(mean - 0.5 * self._f_at("mid"))
        rhs = abs(self._f_at("hi") + self._f_at("lo")) / 4.0
        return make_report("k2", lhs, rhs, self.inputs, self.cfg, fragile=True)

    def first_order(self) -> tuple[float, dict[str, float]]:
        """|mean integral - f(mid)| and its first-derivative right sides: thm2, and at q > 1 thm3 and cor1."""
        return self._once("first_order", self._first_order)

    def _first_order(self) -> tuple[float, dict[str, float]]:
        """thm2 is (b-a)/8 2^(1/q) M and thm3 (b-a) c_p M, with M the :func:`power_mean` of
        |f'| at the widened ends; no |f'|^q is formed, so M neither overflows nor underflows.
        cor1 is the combined corollary exactly as printed: min{K1, printed K2} times
        (b-a) S^(1/q), where (b-a) S^(1/q) = 8 thm2."""
        q, width = self.q, self.iv.width
        self._guard(1)
        lhs = abs(self.mean() - self._f_at("mid"))
        jet1 = self.f.compiled(1)
        mean_d = power_mean(q, abs(jet1(self.ext.a)[1]), abs(jet1(self.ext.b)[1]))
        rhs = {"thm2": (width / 8.0) * 2.0 ** (1.0 / q) * mean_d}
        if q > 1.0:
            p = conjugate_exponent(q)
            rhs["thm3"] = width * math.exp(-((p + 1.0) * _LN2 + math.log(p + 1.0)) / p) * mean_d
            rhs["cor1"] = min(K1, k2_printed_constant(q)) * 8.0 * rhs["thm2"]
        return lhs, rhs

    def second_order(self) -> tuple[float, dict[str, float]]:
        """|mean integral - [f(lo) + f(hi) + 2 f(mid)]/4| and its right sides: thm4 (K3), thm7 (K6) and
        cor2, their minimum, and at q > 1 thm5 (K4) and thm6 (K5), which cor2 then takes too."""
        return self._once("second_order", self._second_order)

    def _second_order(self) -> tuple[float, dict[str, float]]:
        """K3 and K4 are (b-a)^2 c M, M the :func:`power_mean` of |f''| at the widened ends.  K5 and
        K6 weight |f''(lo)|^q : |f''(hi)|^q as 1 : q+1 and 2 : q+1, so their means take w = 1/(q+2), 2/(q+3)."""
        q = self.q
        self._guard(2)
        mean = self.mean()
        lhs = abs(mean - (self._f_at("lo") + self._f_at("hi") + 2.0 * self._f_at("mid")) / 4.0)
        jet2 = self.f.compiled(2)
        dd_lo = abs(jet2(self.ext.a)[2])
        dd_hi = abs(jet2(self.ext.b)[2])
        w2 = self.iv.width**2
        mean_dd = power_mean(q, dd_lo, dd_hi)
        rhs = {"thm4": (w2 / 3.0) * mean_dd}
        if q > 1.0:
            p = conjugate_exponent(q)
            rhs["thm5"] = 2.0 * w2 * _gamma_ratio_power(p) * mean_dd
            rhs["thm6"] = (
                w2
                * 2.0
                * (1.0 / (p + 1.0)) ** (1.0 / p)
                * (1.0 / (q + 1.0)) ** (1.0 / q)
                * power_mean(q, dd_lo, dd_hi, 1.0 / (q + 2.0))
            )
        rhs["thm7"] = w2 * (2.0 / ((q + 1.0) * (q + 2.0))) ** (1.0 / q) * power_mean(q, dd_lo, dd_hi, 2.0 / (q + 3.0))
        rhs["cor2"] = min(rhs.values())
        return lhs, rhs

    def lemma_report(self, which: str) -> BoundReport:
        """The lemma residual against its 1e-8 contract."""
        return make_report(which, self.lemma_residual(which), LEMMA_RESIDUAL_TOL, self.inputs, self.cfg)

    def derivative_report(self, target: str) -> BoundReport:
        """One of thm2-thm7, cor1 and cor2, from the shared first- or second-order right sides."""
        if target in ("thm3", "thm5", "thm6", "cor1") and self.q <= 1.0:
            raise PreconditionError(f"{target} needs q > 1 (got q = {self.q!r})")
        lhs, rhs = self.first_order() if target in ("thm2", "thm3", "cor1") else self.second_order()
        return make_report(target, lhs, rhs[target], {**self.inputs, "q": self.q}, self.cfg)


# verify's function targets, in the order `--target all` runs them
TARGETS: dict[str, Callable[[Instance], list[BoundReport]]] = {
    "eq1": lambda inst: list(inst.classic()),
    "k1": lambda inst: list(inst.three_point()),
    "k2": lambda inst: [inst.abs_half()],
    "lemma1": lambda inst: [inst.lemma_report("lemma1")],
    "lemma2": lambda inst: [inst.lemma_report("lemma2")],
    **{t: (lambda inst, t=t: [inst.derivative_report(t)])
       for t in ("thm2", "thm3", "thm4", "thm5", "thm6", "thm7", "cor1", "cor2")},
}

# each module function below runs one check on a fresh Instance, so calls share nothing


def mean_integral(f, iv: Interval, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """(1/(b-a)) * integral of f over [a, b], from the reference integrator."""
    return Instance(f, iv, cfg=cfg).mean()


def hh_classic_check(f: Expr, iv: Interval, cfg=DEFAULT_TOL) -> tuple[BoundReport, BoundReport]:
    """Classical two-sided bound: f(mid) <= mean integral <= (f(a)+f(b))/2."""
    return Instance(f, iv, cfg=cfg).classic()


def lemma_identity_residual(which: str, f: Expr, iv: Interval, cfg=DEFAULT_TOL) -> float:
    """|LHS - RHS| of the lemma1 or lemma2 integral identity (contract: <= 1e-8)."""
    return Instance(f, iv, cfg=cfg).lemma_residual(which)


def three_point_check(f: Expr, iv: Interval, cfg=DEFAULT_TOL) -> tuple[BoundReport, BoundReport]:
    """Three-point bound: f(mid) <= mean integral <= [2 f(mid) + f(hi) + f(lo)] / 4."""
    return Instance(f, iv, cfg=cfg).three_point()


def abs_half_check(f: Expr, iv: Interval, cfg=DEFAULT_TOL) -> BoundReport:
    """Half-value companion bound |mean - f(mid)/2| <= |f(hi) + f(lo)|/4, as printed (fragile)."""
    return Instance(f, iv, cfg=cfg).abs_half()


def first_order_bounds(f: Expr, iv: Interval, q: float, cfg=DEFAULT_TOL) -> tuple[float, dict[str, float]]:
    """|mean integral - f(mid)| and its first-derivative right sides, keyed by target."""
    return Instance(f, iv, q, cfg).first_order()


def second_order_bounds(f: Expr, iv: Interval, q: float, cfg=DEFAULT_TOL) -> tuple[float, dict[str, float]]:
    """|mean integral - [f(lo) + f(hi) + 2 f(mid)]/4| and its K3..K6 right sides, keyed by target."""
    return Instance(f, iv, q, cfg).second_order()

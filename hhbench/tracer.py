"""Per-layer tracing from outside the program, by patching module attributes.

``hhaudit`` binds many functions under several names (``from .core import
sample_convexity`` in both ``hh_bounds`` and ``quadrature``, for example).
:meth:`Tracer.install` wraps each traced function once and rebinds every
``hhaudit`` module attribute that refers to it, so each call site is counted
whichever name it uses.  :meth:`Tracer.uninstall` puts the originals back.

A span's self time is its duration minus the time of the spans it directly
contains.  Statistics are aggregated per span name in memory; the full spans
of the first few ops are kept too and can be written out when the run ends.

``eval_jet`` recurses through the module-global name in ``exprlang``.  Only
the bindings in the modules that call it from outside (``hh_bounds`` and
``quadrature``) are wrapped, so every counted call is an outermost one.  Calls
made through ``Expr.__call__`` are counted as ``exprlang.value`` instead.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# span name -> (module, attribute) of the function to trace; every other
# hhaudit module attribute bound to the same object is patched as well
SPANS = {
    "cli.main": ("cli", "main"),
    "cli._build_parser": ("cli", "_build_parser"),
    "exprlang.parse": ("exprlang", "parse"),
    "core.sample_convexity": ("core", "sample_convexity"),
    "oracle.integrate_ref": ("oracle", "integrate_ref"),
    "hh_bounds.hh_classic_check": ("hh_bounds", "hh_classic_check"),
    "hh_bounds.lemma_identity_residual": ("hh_bounds", "lemma_identity_residual"),
    "hh_bounds.three_point_check": ("hh_bounds", "three_point_check"),
    "hh_bounds.abs_half_check": ("hh_bounds", "abs_half_check"),
    "hh_bounds.first_order_bounds": ("hh_bounds", "first_order_bounds"),
    "hh_bounds.second_order_bounds": ("hh_bounds", "second_order_bounds"),
    "hh_bounds.mean_integral": ("hh_bounds", "mean_integral"),
    "quadrature.adaptive_midpoint": ("quadrature", "adaptive_midpoint"),
    "quadrature.midpoint_error_bound": ("quadrature", "midpoint_error_bound"),
    "quadrature.midpoint_T2": ("quadrature", "midpoint_T2"),
    "quadrature.trapezoid_T1": ("quadrature", "trapezoid_T1"),
    "quadrature.prop4_check": ("quadrature", "prop4_check"),
    "special_fns.bessel_I": ("special_fns", "bessel_I"),
    "special_fns.normalized_I_series": ("special_fns", "normalized_I_series"),
    "special_fns.bessel_K": ("special_fns", "bessel_K"),
    "special_fns.q_digamma": ("special_fns", "q_digamma"),
    "special_fns.q_digamma_deriv": ("special_fns", "q_digamma_deriv"),
    "special_fns.bessel_prop_checks": ("special_fns", "bessel_prop_checks"),
    "special_fns.qdigamma_prop_checks": ("special_fns", "qdigamma_prop_checks"),
    "means.means_proposition_check": ("means", "means_proposition_check"),
}
EVAL_JET_SITES = ("hh_bounds", "quadrature")
SERIES = (
    "special_fns.bessel_I",
    "special_fns.normalized_I_series",
    "special_fns.bessel_K",
    "special_fns.q_digamma",
    "special_fns.q_digamma_deriv",
)
KEEP_SPANS_OPS = 3


class Stat:
    __slots__ = ("calls", "self_s", "fevals", "terms", "panels", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.fevals = 0
        self.terms = 0
        self.panels = 0
        self.keys: set = set()


class Tracer:
    def __init__(self, hh):
        self.hh = hh
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.stack: list[list[float]] = []
        self.op = 0
        self.spans: list[tuple] = []
        self.record_spans = True
        self.uncertified = 0
        self._patched: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        stats, stack, clock = self.stats, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st = stats[name]
                st.calls += 1
                st.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if self.record_spans and self.op < KEEP_SPANS_OPS:
                    self.spans.append((self.op, name, len(stack), t0, t1))
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name: str, f):
        st = self.stats[name]

        def g(x):
            st.fevals += 1
            return f(x)

        return g

    # -- hooks for the layers that report more than time ------------------

    def _convexity_args(self, args, kwargs):
        f, iv = args[0], args[1]
        lo, hi = (iv.lo, iv.hi) if hasattr(iv, "lo") else (iv.a, iv.b)
        name = "core.sample_convexity"
        self.stats[name].keys.add((self.op, kwargs.get("label"), lo, hi))
        return (self._counted(name, f), iv) + tuple(args[2:])

    def _integrate_args(self, args, kwargs):
        f, iv = args[0], args[1]
        what = id(f) if isinstance(f, self.hh.exprlang.Expr) else getattr(f, "__code__", f)
        self.stats["oracle.integrate_ref"].keys.add((self.op, what, iv.a, iv.b))
        return (self._counted("oracle.integrate_ref", f), iv) + tuple(args[2:])

    def _series_after(self, name):
        def after(args, result):
            self.stats[name].terms += result.terms_used
        return after

    def _bound_panels(self, args, kwargs):
        self.stats["quadrature.midpoint_error_bound"].panels += args[1].panel_count
        return args

    def _adaptive_after(self, args, result):
        self.stats["quadrature.adaptive_midpoint"].panels += result.partition.panel_count
        self.uncertified += not result.certified

    # -- install / uninstall ----------------------------------------------

    def _rebind(self, original, replacement, only=None):
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("hhaudit") or module is None:
                continue
            if only is not None and modname.rsplit(".", 1)[-1] not in only:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        hh = self.hh
        before = {
            "core.sample_convexity": self._convexity_args,
            "oracle.integrate_ref": self._integrate_args,
            "quadrature.midpoint_error_bound": self._bound_panels,
        }
        after = {name: self._series_after(name) for name in SERIES}
        after["quadrature.adaptive_midpoint"] = self._adaptive_after
        for name, (modname, attr) in SPANS.items():
            original = getattr(getattr(hh, modname), attr)
            self._rebind(original, self._wrap(name, original, before.get(name), after.get(name)))
        jet = hh.exprlang.eval_jet
        self._rebind(jet, self._wrap("exprlang.eval_jet", jet), only=EVAL_JET_SITES)
        expr_cls = hh.exprlang.Expr
        value = expr_cls.__call__
        expr_cls.__call__ = self._wrap("exprlang.value", value)
        self._patched.append((expr_cls, "__call__", value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Layer metrics as ``{name: (value, unit)}``, named
        ``<module>.<function>.<stat>``; counts and times are per op."""
        stats = self.stats
        out: dict[str, tuple[float, str]] = {}

        def per_call(total, calls):
            return total / calls if calls else 0.0

        for name in list(SPANS) + ["exprlang.eval_jet", "exprlang.value"]:
            out[f"{name}.calls"] = (stats[name].calls / ops, "1/op")
            out[f"{name}.self_s"] = (stats[name].self_s / ops, "s/op")
        for name in ("core.sample_convexity", "oracle.integrate_ref"):
            st = stats[name]
            out[f"{name}.fevals"] = (st.fevals / ops, "1/op")
            # distinct (op, what, lo, hi) keys per call: 1 when no call repeats work
            out[f"{name}.distinct_frac"] = (per_call(len(st.keys), st.calls), "frac")
        for name in SERIES:
            out[f"{name}.terms"] = (per_call(stats[name].terms, stats[name].calls), "1/call")
        adaptive = stats["quadrature.adaptive_midpoint"]
        out["quadrature.panels"] = (stats["quadrature.midpoint_error_bound"].panels / ops, "1/op")
        out["quadrature.adaptive_midpoint.panels"] = (per_call(adaptive.panels, adaptive.calls), "1/call")
        out["quadrature.adaptive_midpoint.uncertified_frac"] = (
            per_call(self.uncertified, adaptive.calls), "frac")
        return out

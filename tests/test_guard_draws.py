"""The convexity guard's grid pass against ``guard_oracle.grid``, which samples the same grid one call of f
per point, and :func:`~hhaudit.core.convexity_guard`, which samples a parsed function through its compiled
scan, against the same guard sampling point by point."""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

import guard_oracle
from hhaudit.core import (DomainError, Interval, PreconditionError, ToleranceConfig, convexity_guard, evaluator, extend,
                          sample_convexity)
from hhaudit.exprlang import parse

_TEXTS = ("x^2", "exp(x)", "cosh(x)", "1/x", "log(x)", "sqrt(x)", "x*log(x)", "x^2-x^2", "-x^2", "abs(x)")
_CALLABLES = (lambda x: x * x, math.exp, lambda x: 1.0 / x, math.log, math.sqrt,
              lambda x: x * x - x * x, lambda x: -x * x, lambda x: math.nan)
_EXPRS = {text: parse(text) for text in _TEXTS}


def _bits(v):
    return struct.pack("<d", v)


def _outcome(guard, f, iv, n, label):
    try:
        report = guard(f, iv, n, label=label)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    inputs = dict(report.inputs, worst_at=_bits(report.inputs["worst_at"]))
    return report.label, _bits(report.lhs), report.rhs, report.satisfied, inputs


@st.composite
def _spans(draw):
    """Interval or widened spans at scales 1, 1e200 (where x^2 overflows) and 1e+-300,
    some with negative lo, some containing 0."""
    scale = draw(st.sampled_from((1.0, 1e200, 1e300, 1e-300)))
    a = scale * draw(st.floats(-3.0, 3.0))
    b = a + scale * draw(st.floats(1e-3, 3.0))
    iv = Interval(a, b)
    return extend(iv) if draw(st.booleans()) else iv


@settings(max_examples=600, deadline=None)
@given(f=st.one_of(st.sampled_from(_TEXTS).map(_EXPRS.get), st.sampled_from(_CALLABLES)),
       iv=_spans(), n=st.sampled_from((4, 16, 32, 48, 200)), label=st.sampled_from(("convexity", "guard:f")))
def test_the_scan_matches_the_grid_reference_bitwise(f, iv, n, label):
    want = _outcome(guard_oracle.grid, f, iv, n, label)
    assert _outcome(sample_convexity, f, iv, n, label) == want
    assert _outcome(sample_convexity, evaluator(f), iv, n, label) == want


@pytest.mark.parametrize("text, iv, n", [
    ("1/x", Interval(-1.0, 1.0), 16),  # a hole at the grid's midpoint
    ("log(x)", Interval(-1e-300, 1e-300), 4),
    ("x^2-x^2", Interval(1e200, 3e200), 32),  # inf - inf is NaN
    ("-x^2", extend(Interval(-2.0, 5.0)), 200),  # concave: a finite worst gap
    ("x^2", Interval(-1e300, 1e300), 48),
])
def test_named_spans_match_the_grid_reference(text, iv, n):
    f = _EXPRS[text]
    want = _outcome(guard_oracle.grid, f, iv, n, "convexity")
    assert _outcome(sample_convexity, f, iv, n, "convexity") == want
    assert _outcome(sample_convexity, evaluator(f), iv, n, "convexity") == want


def _forms(f):
    """f as a plain callable and, where f is parsed, as its compiled evaluator too."""
    return (f, evaluator(f)) if hasattr(f, "compiled") else (f,)


def test_the_first_hole_in_grid_order_is_named():
    # defined up to the quarter point of [0, 1] only, so every later grid point is a hole and x_5 is named
    def f(x):
        if x <= 0.25:
            return x * x
        raise ValueError("hole")

    want = (DomainError, "function undefined at x = 0.3125: hole")
    assert _outcome(guard_oracle.grid, f, Interval(0.0, 1.0), 16, "convexity") == want
    assert _outcome(sample_convexity, f, Interval(0.0, 1.0), 16, "convexity") == want


def _inf_unless_hole(hole):
    """inf everywhere on [0, 1] but at ``hole``, where it raises, as a plain callable."""
    def f(x):
        if x == hole:
            raise ValueError("hole")
        return math.inf
    return f


def test_an_early_nan_gap_is_raised_ahead_of_a_later_hole():
    # every value is inf, so the gap of the first triple is inf - inf; x_5 = 0.3125 is a hole
    want = (DomainError, "convexity gap undefined (inf - inf) at the midpoint x = 0.0625")
    for f in (parse("1e308*10 + log((x - 0.3125)^2)"), _inf_unless_hole(0.3125)):
        assert _outcome(guard_oracle.grid, f, Interval(0.0, 1.0), 16, "convexity") == want
        for form in _forms(f):
            assert _outcome(sample_convexity, form, Interval(0.0, 1.0), 16, "convexity") == want


def test_a_hole_is_raised_after_a_refuting_gap():
    # 1/(x - 1/4) is concave left of its pole, so the first triples refute; the pole at x_4 still raises
    for f, cause in ((parse("1/(x - 0.25)"), "division by zero at x = 0.25"),
                     (lambda x: 1.0 / (x - 0.25), "function undefined at x = 0.25: float division by zero")):
        assert _outcome(guard_oracle.grid, f, Interval(0.0, 1.0), 16, "convexity") == (DomainError, cause)
        for form in _forms(f):
            assert _outcome(sample_convexity, form, Interval(0.0, 1.0), 16, "convexity") == (DomainError, cause)


def test_the_widest_triple_comes_last_and_names_the_midpoint():
    # inf at the ends and the midpoint only: the consecutive gaps are -inf or inf, the widest one inf - inf
    def f(x):
        return math.inf if x in (0.0, 0.5, 1.0) else x * x

    want = (DomainError, "convexity gap undefined (inf - inf) at the midpoint x = 0.5")
    assert _outcome(guard_oracle.grid, f, Interval(0.0, 1.0), 16, "convexity") == want
    assert _outcome(sample_convexity, f, Interval(0.0, 1.0), 16, "convexity") == want


@pytest.mark.parametrize("n", [0, 2, 3, 6, 50])
def test_a_step_count_that_4_does_not_divide_is_refused(n):
    want = (ValueError, f"need a positive multiple of 4 grid steps, got n = {n}")
    assert _outcome(guard_oracle.grid, math.exp, Interval(0.0, 1.0), n, "convexity") == want
    assert _outcome(sample_convexity, math.exp, Interval(0.0, 1.0), n, "convexity") == want
    with pytest.raises(ValueError, match=f"got n = {n}$"):
        convexity_guard(math.exp, steps=n)


def _guard(f, region, order, q, *, steps):
    convexity_guard(f, order, q, steps=steps)(region)


def _guard_outcome(guard, f, region, order, q, steps):
    try:
        guard(f, region, order, q, steps=steps)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def _regions(draw):
    """Spans at scales 1, 1e100 (where exp overflows), 1e200 (where x^2 does) and 1e-300,
    some with negative lo, some containing 0, some widened."""
    scale = draw(st.sampled_from((1.0, 1e100, 1e200, 1e-300)))
    a = scale * draw(st.floats(-3.0, 3.0))
    iv = Interval(a, a + scale * draw(st.floats(1e-3, 3.0)))
    return extend(iv) if draw(st.booleans()) else iv


@settings(max_examples=600, deadline=None)
@given(text=st.sampled_from(_TEXTS), region=_regions(), order=st.sampled_from((0, 1, 2)),
       q=st.sampled_from((1, 2, 2.0, 3.5, 300)), steps=st.sampled_from((4, 16, 32)))
def test_the_compiled_guard_loop_matches_the_point_by_point_guard(text, region, order, q, steps):
    f = parse(text)
    want = _guard_outcome(guard_oracle.guard, f, region, order, q, steps)
    assert _guard_outcome(_guard, f, region, order, q, steps) == want


def test_a_nan_gap_is_raised_ahead_of_a_hole_at_a_later_point():
    # x^4 is inf on the region, and the log's hole is the grid's midpoint 2.5e77, so a pass that evaluated
    # every point before forming the gaps would raise "f: log of nonpositive argument at x = 2.5e+77 ..." instead
    f = parse("x^4 + log((x - 2.5e77)^2 - 1)")
    want = (DomainError, "f: convexity gap undefined (inf - inf) at the midpoint x = 2.0625e+77")
    assert _guard_outcome(guard_oracle.guard, f, Interval(2e77, 3e77), 0, 1.0, 16) == want
    assert _guard_outcome(_guard, f, Interval(2e77, 3e77), 0, 1.0, 16) == want


def test_both_forms_pass_a_worst_gap_of_exactly_abs_tol():
    """A region and a panel (whose widened interval is [0, 1]) decide as the report does: a worst gap equal to
    ``abs_tol`` passes, and one ulp less tolerance refutes it."""
    f = parse("-x^2")
    gap = sample_convexity(f, Interval(0.0, 1.0), 16).lhs
    assert gap > 0.0
    for tol, passes in ((gap, True), (math.nextafter(gap, 0.0), False)):
        check = convexity_guard(f, steps=16, cfg=ToleranceConfig(abs_tol=tol))
        for run in (lambda: check(Interval(0.0, 1.0)), lambda: check.panels((0.25, 0.75))):
            if passes:
                run()
            else:
                with pytest.raises(PreconditionError, match="is not midpoint-convex on \\[0.0, 1.0\\]"):
                    run()


_BATTERY = ("x^2", "exp(x)+x^4", "cosh(x)", "x*log(x)", "1/x", "x^2-5")
_WIDENED = ((1.0, 2.0), (0.25, 1.0), (300.0, 800.0))  # each widened: inside (0, inf), across 0, past exp's overflow


def _battery(guard):
    """``guard(f, region, order, q)`` of every case of ``_GUARD_PIN``, or the exception's type and message."""
    got = {}
    for text in _BATTERY:
        for order in (0, 1, 2):
            for q in (1, 2):
                for i, (a, b) in enumerate(_WIDENED):
                    try:
                        got[f"{text} {order} {q} {i}"] = guard(parse(text), extend(Interval(a, b)), order, q)
                    except (ValueError, ArithmeticError) as exc:
                        got[f"{text} {order} {q} {i}"] = (type(exc).__name__, str(exc))
    return got


def test_guards_of_the_battery_are_pinned_bit_for_bit(scans):
    """The worst gap and its midpoint of every guard at orders 0-2, q = 1 and 2, over the battery on three
    widened regions, as float.hex, or the exception's type and message; recorded from ``guard_oracle.grid``."""

    def guard(f, region, order, q):
        scans.clear()
        convexity_guard(f, order, q)(region)
        (scan,) = scans
        return tuple(v.hex() for v in scan.result)

    assert _battery(guard) == _GUARD_PIN


@pytest.mark.parametrize("sample", [sample_convexity, guard_oracle.grid], ids=["sample_convexity", "reference"])
def test_the_report_view_of_the_battery_is_pinned_bit_for_bit(sample):
    """:func:`sample_convexity`, which no guard calls, and ``guard_oracle.grid`` report the same gaps and verdicts
    on the same cases."""

    def guard(f, region, order, q):
        report = guard_oracle.guard(f, region, order, q, steps=32, sample=sample)
        return report.lhs.hex(), report.inputs["worst_at"].hex()

    assert _battery(guard) == _GUARD_PIN


_GUARD_PIN = {
    'x^2 0 1 0': ('-0x1.0000000000000p-8', '0x1.2000000000000p-1'),
    'x^2 0 1 1': ('-0x1.2000000000000p-9', '-0x1.4000000000000p-4'),
    'x^2 0 1 2': ('-0x1.e848000000000p+9', '0x1.4500000000000p+6'),
    'x^2 0 2 0': ('-0x1.0000000000000p-8', '0x1.2000000000000p-1'),
    'x^2 0 2 1': ('-0x1.2000000000000p-9', '-0x1.4000000000000p-4'),
    'x^2 0 2 2': ('-0x1.e848000000000p+9', '0x1.4500000000000p+6'),
    'x^2 1 1 0': ('0x0.0p+0', '0x1.2000000000000p-1'),
    'x^2 1 1 1': ('0x0.0p+0', '-0x1.4000000000000p-4'),
    'x^2 1 1 2': ('0x0.0p+0', '0x1.4500000000000p+6'),
    'x^2 1 2 0': ('-0x1.0000000000000p-6', '0x1.2000000000000p-1'),
    'x^2 1 2 1': ('-0x1.2000000000000p-7', '-0x1.4000000000000p-4'),
    'x^2 1 2 2': ('-0x1.e848000000000p+11', '0x1.4500000000000p+6'),
    'x^2 2 1 0': ('0x0.0p+0', '0x1.2000000000000p-1'),
    'x^2 2 1 1': ('0x0.0p+0', '-0x1.4000000000000p-4'),
    'x^2 2 1 2': ('0x0.0p+0', '0x1.4500000000000p+6'),
    'x^2 2 2 0': ('0x0.0p+0', '0x1.2000000000000p-1'),
    'x^2 2 2 1': ('0x0.0p+0', '-0x1.4000000000000p-4'),
    'x^2 2 2 2': ('0x0.0p+0', '0x1.4500000000000p+6'),
    'exp(x)+x^4 0 1 0': ('-0x1.63dc2d5087400p-7', '0x1.2000000000000p-1'),
    'exp(x)+x^4 0 1 1': ('-0x1.1bd4b6a926400p-10', '-0x1.0000000000000p-5'),
    'exp(x)+x^4 0 1 2': ('DomainError', 'f: exp overflow at x = 737.5 (arg = 737.5)'),
    'exp(x)+x^4 0 2 0': ('-0x1.63dc2d5087400p-7', '0x1.2000000000000p-1'),
    'exp(x)+x^4 0 2 1': ('-0x1.1bd4b6a926400p-10', '-0x1.0000000000000p-5'),
    'exp(x)+x^4 0 2 2': ('DomainError', 'f: exp overflow at x = 737.5 (arg = 737.5)'),
    'exp(x)+x^4 1 1 0': ('-0x1.e82e16a843a00p-6', '0x1.2000000000000p-1'),
    'exp(x)+x^4 1 1 1': ('PreconditionError', "|f'|^q (q = 1) is not midpoint-convex on [-0.125, 1.375] (worst gap 0.0010436812091725312 near x = -0.078125)"),
    'exp(x)+x^4 1 1 2': ('DomainError', "|f'|^q (q = 1): exp overflow at x = 737.5 (arg = 737.5)"),
    'exp(x)+x^4 1 2 0': ('-0x1.137dc56cd9ff0p-2', '0x1.2000000000000p-1'),
    'exp(x)+x^4 1 2 1': ('-0x1.3e6e486e24000p-12', '-0x1.4000000000000p-4'),
    'exp(x)+x^4 1 2 2': ('DomainError', "|f'|^q (q = 2): function undefined at x = 362.5: (34, 'Numerical result out of range')"),
    'exp(x)+x^4 2 1 0': ('-0x1.9c170b5421d00p-5', '0x1.2000000000000p-1'),
    'exp(x)+x^4 2 1 1': ('-0x1.c0a67bd5b4b20p-6', '-0x1.4000000000000p-4'),
    'exp(x)+x^4 2 1 2': ('DomainError', "|f''|^q (q = 1): exp overflow at x = 737.5 (arg = 737.5)"),
    'exp(x)+x^4 2 2 0': ('-0x1.78648df2c9160p+0', '0x1.2000000000000p-1'),
    'exp(x)+x^4 2 2 1': ('-0x1.bfebc0dd18b40p-5', '-0x1.0000000000000p-5'),
    'exp(x)+x^4 2 2 2': ('DomainError', "|f''|^q (q = 2): function undefined at x = 362.5: (34, 'Numerical result out of range')"),
    'cosh(x) 0 1 0': ('-0x1.29ad137b01e00p-9', '0x1.2000000000000p-1'),
    'cosh(x) 0 1 1': ('-0x1.201680b8d0000p-10', '0x1.0000000000000p-6'),
    'cosh(x) 0 1 2': ('DomainError', 'f: cosh overflow at x = 737.5 (arg = 737.5)'),
    'cosh(x) 0 2 0': ('-0x1.29ad137b01e00p-9', '0x1.2000000000000p-1'),
    'cosh(x) 0 2 1': ('-0x1.201680b8d0000p-10', '0x1.0000000000000p-6'),
    'cosh(x) 0 2 2': ('DomainError', 'f: cosh overflow at x = 737.5 (arg = 737.5)'),
    'cosh(x) 1 1 0': ('-0x1.2f87438e36400p-10', '0x1.2000000000000p-1'),
    'cosh(x) 1 1 1': ('-0x1.203d84e76a000p-14', '0x1.0000000000000p-4'),
    'cosh(x) 1 1 2': ('DomainError', "|f'|^q (q = 1): cosh overflow at x = 737.5 (arg = 737.5)"),
    'cosh(x) 1 2 0': ('-0x1.b4641b9d06cc0p-8', '0x1.2000000000000p-1'),
    'cosh(x) 1 2 1': ('-0x1.205a0b8d9db18p-9', '0x1.0000000000000p-6'),
    'cosh(x) 1 2 2': ('DomainError', "|f'|^q (q = 2): function undefined at x = 362.5: (34, 'Numerical result out of range')"),
    'cosh(x) 2 1 0': ('-0x1.29ad137b01e00p-9', '0x1.2000000000000p-1'),
    'cosh(x) 2 1 1': ('-0x1.201680b8d0000p-10', '0x1.0000000000000p-6'),
    'cosh(x) 2 1 2': ('DomainError', "|f''|^q (q = 1): cosh overflow at x = 737.5 (arg = 737.5)"),
    'cosh(x) 2 2 0': ('-0x1.b4641b9d06c00p-8', '0x1.2000000000000p-1'),
    'cosh(x) 2 2 1': ('-0x1.205a0b8d9da00p-9', '0x1.0000000000000p-6'),
    'cosh(x) 2 2 2': ('DomainError', "|f''|^q (q = 2): function undefined at x = 362.5: (34, 'Numerical result out of range')"),
    'x*log(x) 0 1 0': ('-0x1.a4260b4ace000p-11', '0x1.3800000000000p+1'),
    'x*log(x) 0 1 1': ('DomainError', 'f: log of nonpositive argument at x = -0.125 (arg = -0.125)'),
    'x*log(x) 0 1 2': ('-0x1.eadfe21dcc000p-2', '0x1.fd60000000000p+9'),
    'x*log(x) 0 2 0': ('-0x1.a4260b4ace000p-11', '0x1.3800000000000p+1'),
    'x*log(x) 0 2 1': ('DomainError', 'f: log of nonpositive argument at x = -0.125 (arg = -0.125)'),
    'x*log(x) 0 2 2': ('-0x1.eadfe21dcc000p-2', '0x1.fd60000000000p+9'),
    'x*log(x) 1 1 0': ('PreconditionError', "|f'|^q (q = 1) is not midpoint-convex on [0.5, 2.5] (worst gap 0.29389333245105953 near x = 1.5)"),
    'x*log(x) 1 1 1': ('DomainError', "|f'|^q (q = 1): log of nonpositive argument at x = -0.125 (arg = -0.125)"),
    'x*log(x) 1 1 2': ('PreconditionError', "|f'|^q (q = 1) is not midpoint-convex on [50.0, 1050.0] (worst gap 0.8756340539366585 near x = 550.0)"),
    'x*log(x) 1 2 0': ('PreconditionError', "|f'|^q (q = 2) is not midpoint-convex on [0.5, 2.5] (worst gap 0.0921677591769463 near x = 1.5)"),
    'x*log(x) 1 2 1': ('DomainError', "|f'|^q (q = 2): log of nonpositive argument at x = -0.125 (arg = -0.125)"),
    'x*log(x) 1 2 2': ('PreconditionError', "|f'|^q (q = 2) is not midpoint-convex on [50.0, 1050.0] (worst gap 9.717612536954434 near x = 550.0)"),
    'x*log(x) 2 1 0': ('-0x1.1b04370012000p-12', '0x1.3800000000000p+1'),
    'x*log(x) 2 1 1': ('DomainError', "|f''|^q (q = 1): log of nonpositive argument at x = -0.125 (arg = -0.125)"),
    'x*log(x) 2 1 2': ('-0x1.f0560ccb24000p-21', '0x1.fd60000000000p+9'),
    'x*log(x) 2 2 0': ('-0x1.5c7b11369a400p-12', '0x1.3800000000000p+1'),
    'x*log(x) 2 2 1': ('DomainError', "|f''|^q (q = 2): log of nonpositive argument at x = -0.125 (arg = -0.125)"),
    'x*log(x) 2 2 2': ('-0x1.7667c7b706600p-29', '0x1.fd60000000000p+9'),
    '1/x 0 1 0': ('-0x1.1b04370011c00p-12', '0x1.3800000000000p+1'),
    '1/x 0 1 1': ('PreconditionError', 'f is not midpoint-convex on [-0.125, 1.375] (worst gap 72.0 near x = 0.015625)'),
    '1/x 0 1 2': ('-0x1.f0560ccb24000p-21', '0x1.fd60000000000p+9'),
    '1/x 0 2 0': ('-0x1.1b04370011c00p-12', '0x1.3800000000000p+1'),
    '1/x 0 2 1': ('PreconditionError', 'f is not midpoint-convex on [-0.125, 1.375] (worst gap 72.0 near x = 0.015625)'),
    '1/x 0 2 2': ('-0x1.f0560ccb24000p-21', '0x1.fd60000000000p+9'),
    '1/x 1 1 0': ('-0x1.5c7b11369a200p-12', '0x1.3800000000000p+1'),
    '1/x 1 1 1': ('PreconditionError', "|f'|^q (q = 1) is not midpoint-convex on [-0.125, 1.375] (worst gap 3456.0 near x = 0.015625)"),
    '1/x 1 1 2': ('-0x1.7667c7b706400p-29', '0x1.fd60000000000p+9'),
    '1/x 1 2 0': ('-0x1.877dbe477ec00p-13', '0x1.3800000000000p+1'),
    '1/x 1 2 1': ('PreconditionError', "|f'|^q (q = 2) is not midpoint-convex on [-0.125, 1.375] (worst gap 16220160.0 near x = 0.015625)"),
    '1/x 1 2 2': ('-0x1.3bc5edfc21f80p-47', '0x1.fd60000000000p+9'),
    '1/x 2 1 0': ('-0x1.1e16f57780a00p-11', '0x1.3800000000000p+1'),
    '1/x 2 1 1': ('PreconditionError', "|f''|^q (q = 1) is not midpoint-convex on [-0.125, 1.375] (worst gap 487424.0 near x = 0.015625)"),
    '1/x 2 1 2': ('-0x1.78a1580a07700p-37', '0x1.fd60000000000p+9'),
    '1/x 2 2 0': ('-0x1.1533aee8c7480p-12', '0x1.3800000000000p+1'),
    '1/x 2 2 1': ('PreconditionError', "|f''|^q (q = 2) is not midpoint-convex on [-0.125, 1.375] (worst gap 272696868864.0 near x = 0.015625)"),
    '1/x 2 2 2': ('-0x1.4fc70401b6380p-64', '0x1.fd60000000000p+9'),
    'x^2-5 0 1 0': ('-0x1.0000000000000p-8', '0x1.2000000000000p-1'),
    'x^2-5 0 1 1': ('-0x1.2000000000000p-9', '-0x1.4000000000000p-4'),
    'x^2-5 0 1 2': ('-0x1.e848000000000p+9', '0x1.4500000000000p+6'),
    'x^2-5 0 2 0': ('-0x1.0000000000000p-8', '0x1.2000000000000p-1'),
    'x^2-5 0 2 1': ('-0x1.2000000000000p-9', '-0x1.4000000000000p-4'),
    'x^2-5 0 2 2': ('-0x1.e848000000000p+9', '0x1.4500000000000p+6'),
    'x^2-5 1 1 0': ('0x0.0p+0', '0x1.2000000000000p-1'),
    'x^2-5 1 1 1': ('0x0.0p+0', '-0x1.4000000000000p-4'),
    'x^2-5 1 1 2': ('0x0.0p+0', '0x1.4500000000000p+6'),
    'x^2-5 1 2 0': ('-0x1.0000000000000p-6', '0x1.2000000000000p-1'),
    'x^2-5 1 2 1': ('-0x1.2000000000000p-7', '-0x1.4000000000000p-4'),
    'x^2-5 1 2 2': ('-0x1.e848000000000p+11', '0x1.4500000000000p+6'),
    'x^2-5 2 1 0': ('0x0.0p+0', '0x1.2000000000000p-1'),
    'x^2-5 2 1 1': ('0x0.0p+0', '-0x1.4000000000000p-4'),
    'x^2-5 2 1 2': ('0x0.0p+0', '0x1.4500000000000p+6'),
    'x^2-5 2 2 0': ('0x0.0p+0', '0x1.2000000000000p-1'),
    'x^2-5 2 2 1': ('0x0.0p+0', '-0x1.4000000000000p-4'),
    'x^2-5 2 2 2': ('0x0.0p+0', '0x1.4500000000000p+6'),
}

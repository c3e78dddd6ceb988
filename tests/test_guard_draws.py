"""The convexity guard on precomputed draws against the seeded guard in ``guard_oracle``, and
:func:`~hhaudit.core.convexity_guard`, which samples a parsed function through its compiled scan,
against the same guard sampling point by point."""

import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

import guard_oracle
from hhaudit.core import (DomainError, Interval, PreconditionError, ToleranceConfig, convexity_guard, evaluator, extend,
                          sample_convexity)
from hhaudit.exprlang import parse, to_text

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
       iv=_spans(), n=st.sampled_from((3, 16, 32, 50, 200)), label=st.sampled_from(("convexity", "guard:f")))
def test_precomputed_draws_match_the_seeded_guard_bitwise(f, iv, n, label):
    want = _outcome(guard_oracle.sample_convexity, f, iv, n, label)
    assert _outcome(sample_convexity, f, iv, n, label) == want
    assert _outcome(sample_convexity, evaluator(f), iv, n, label) == want


@pytest.mark.parametrize("text, iv, n", [
    ("1/x", Interval(-1.0, 1.0), 16),  # a hole at a structural point
    ("log(x)", Interval(-1e-300, 1e-300), 3),
    ("x^2-x^2", Interval(1e200, 3e200), 32),  # inf - inf is NaN
    ("-x^2", extend(Interval(-2.0, 5.0)), 200),  # concave: a finite worst gap
    ("x^2", Interval(-1e300, 1e300), 50),
])
def test_named_spans_match_the_seeded_guard(text, iv, n):
    f = _EXPRS[text]
    want = _outcome(guard_oracle.sample_convexity, f, iv, n, "convexity")
    assert _outcome(sample_convexity, f, iv, n, "convexity") == want
    assert _outcome(sample_convexity, evaluator(f), iv, n, "convexity") == want


def test_a_pair_of_holes_names_the_first_draw():
    # defined at the structural points and around the first pair's midpoint only,
    # so both points of that pair are holes and the draw probed first is named
    rng = random.Random(0)
    u, v = rng.random(), rng.random()
    defined = {0.0, 0.25, 0.5, 0.75, 1.0}

    def f(x):
        if x in defined or abs(x - 0.5 * (u + v)) < 0.25 * abs(u - v):
            return x * x
        raise ValueError("hole")

    want = _outcome(guard_oracle.sample_convexity, f, Interval(0.0, 1.0), 16, "convexity")
    assert want == (DomainError, f"function undefined at x = {u!r}: hole")
    assert _outcome(sample_convexity, f, Interval(0.0, 1.0), 16, "convexity") == want


def _draws(n):
    rng = random.Random(0)
    return [(rng.random(), rng.random()) for _ in range(n)]


def _inf_unless_hole(hole):
    """inf everywhere on [0, 1] but at ``hole``, where it raises, as a plain callable."""
    def f(x):
        if x == hole:
            raise ValueError("hole")
        return math.inf
    return f


def test_an_early_nan_gap_is_raised_ahead_of_a_later_pairs_hole():
    # every value is inf, so the first pair's gap is inf - inf; the fourth pair's left end is a hole
    (u, v), *_, (hole, _) = _draws(4)
    want = (DomainError, f"convexity gap undefined (inf - inf) at the midpoint x = {0.5 * (u + v)!r}")
    for f in (parse(f"1e308*10 + log((x - {hole!r})^2)"), _inf_unless_hole(hole)):
        assert _outcome(guard_oracle.sample_convexity, f, Interval(0.0, 1.0), 16, "convexity") == want
        assert _outcome(sample_convexity, f, Interval(0.0, 1.0), 16, "convexity") == want
        assert _outcome(sample_convexity, evaluator(f), Interval(0.0, 1.0), 16, "convexity") == want


def test_a_hole_at_the_quarter_point_is_raised_ahead_of_every_pair():
    # the first pair's gap would be inf - inf, but no pair is evaluated after a structural hole
    for f, cause in ((parse("1e308*10 + 1/(x - 0.25)"), "division by zero at x = 0.25"),
                     (_inf_unless_hole(0.25), "function undefined at x = 0.25: hole")):
        assert _outcome(guard_oracle.sample_convexity, f, Interval(0.0, 1.0), 16, "convexity") == (DomainError, cause)
        assert _outcome(sample_convexity, f, Interval(0.0, 1.0), 16, "convexity") == (DomainError, cause)
        assert _outcome(sample_convexity, evaluator(f), Interval(0.0, 1.0), 16, "convexity") == (DomainError, cause)


def test_too_few_pairs_is_the_same_error():
    assert _outcome(sample_convexity, math.exp, Interval(0.0, 1.0), 2, "convexity") == (
        ValueError, "need at least 3 sample pairs, got n = 2")


def _reference_guard(f, region, order, q, *, pairs, sample=guard_oracle.sample_convexity):
    """:func:`convexity_guard` of one region on ``guard_oracle``'s sampling, which calls f, or |f^(order)|^q from the
    order-``order`` jet, one point at a time, with the same labels and messages; or on another ``sample`` of the
    same signature.  Returns the passing report."""
    if order == 0:
        what, fn = "f", f.compiled(0)
    else:
        what = "|f" + "'" * order + f"|^q (q = {q!r})"
        if order == 2 and "abs" in to_text(f):
            raise PreconditionError(f"{what} bounds need f twice differentiable, and f contains abs")
        jet = f.compiled(order)
        fn = lambda x: abs(jet(x)[order]) ** q
    try:
        report = sample(fn, region, pairs, label=f"guard:{what}")
    except DomainError as exc:
        raise DomainError(f"{what}: {exc}") from exc
    if not report.satisfied:
        raise PreconditionError(f"{what} is not midpoint-convex on [{region.a!r}, {region.b!r}]"
                                f" (worst gap {report.lhs!r} near x = {report.inputs['worst_at']!r})")
    return report


def _guard(f, region, order, q, *, pairs):
    convexity_guard(f, order, q, pairs=pairs)(region)


def _guard_outcome(guard, f, region, order, q, pairs):
    try:
        guard(f, region, order, q, pairs=pairs)
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
       q=st.sampled_from((1, 2, 2.0, 3.5, 300)), pairs=st.sampled_from((3, 16, 32)))
def test_the_compiled_guard_loop_matches_the_point_by_point_guard(text, region, order, q, pairs):
    f = parse(text)
    want = _guard_outcome(_reference_guard, f, region, order, q, pairs)
    assert _guard_outcome(_guard, f, region, order, q, pairs) == want


def test_a_nan_gap_is_raised_ahead_of_a_hole_at_a_later_point():
    # a later pair's point is a hole of the log, so a pass that evaluated every point before
    # scanning the gaps would raise "f: log of nonpositive argument at x = ..." instead
    f = parse("x^4 + log((x - 2.3397441655619037e+77)^2 - 5.033759532751502e+150)")
    want = (DomainError, "f: convexity gap undefined (inf - inf) at the midpoint x = 2.8011881272326755e+77")
    assert _guard_outcome(_reference_guard, f, Interval(2e77, 3e77), 0, 1.0, 16) == want
    assert _guard_outcome(_guard, f, Interval(2e77, 3e77), 0, 1.0, 16) == want


def test_both_forms_pass_a_worst_gap_of_exactly_abs_tol():
    """A region and a panel (whose widened interval is [0, 1]) decide as the report does: a worst gap equal to
    ``abs_tol`` passes, and one ulp less tolerance refutes it."""
    f = parse("-x^2")
    gap = sample_convexity(f, Interval(0.0, 1.0), 16).lhs
    assert gap > 0.0
    for tol, passes in ((gap, True), (math.nextafter(gap, 0.0), False)):
        check = convexity_guard(f, pairs=16, cfg=ToleranceConfig(abs_tol=tol))
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
    widened regions, as float.hex, or the exception's type and message; recorded before the guard became one pass."""

    def guard(f, region, order, q):
        scans.clear()
        convexity_guard(f, order, q)(region)
        (scan,) = scans
        return tuple(v.hex() for v in scan.result)

    assert _battery(guard) == _GUARD_PIN


def test_the_report_view_of_the_battery_is_pinned_bit_for_bit():
    """:func:`sample_convexity`, which no guard calls, reports the same gaps and verdicts on the same cases."""

    def guard(f, region, order, q):
        report = _reference_guard(f, region, order, q, pairs=32, sample=sample_convexity)
        return report.lhs.hex(), report.inputs["worst_at"].hex()

    assert _battery(guard) == _GUARD_PIN


_GUARD_PIN = {
    'x^2 0 1 0': ('-0x1.787fb01a94000p-9', '0x1.30974dbc1cad8p+1'),
    'x^2 0 1 1': ('-0x1.a78fa61de7000p-10', '0x1.48e2f49a2b044p+0'),
    'x^2 0 1 2': ('-0x1.670ea5ce18c00p+9', '0x1.eee783d36802ep+9'),
    'x^2 0 2 0': ('-0x1.787fb01a94000p-9', '0x1.30974dbc1cad8p+1'),
    'x^2 0 2 1': ('-0x1.a78fa61de7000p-10', '0x1.48e2f49a2b044p+0'),
    'x^2 0 2 2': ('-0x1.670ea5ce18c00p+9', '0x1.eee783d36802ep+9'),
    'x^2 1 1 0': ('0x0.0p+0', '0x1.0d1aaa4468676p+1'),
    'x^2 1 1 1': ('0x0.0p+0', '0x1.13a7ff669c9b1p+0'),
    'x^2 1 1 2': ('0x0.0p+0', '0x1.a998148d9be9ep+9'),
    'x^2 1 2 0': ('-0x1.787fb01a94000p-7', '0x1.30974dbc1cad8p+1'),
    'x^2 1 2 1': ('-0x1.a78fa61de7000p-8', '0x1.48e2f49a2b044p+0'),
    'x^2 1 2 2': ('-0x1.670ea5ce18c00p+11', '0x1.eee783d36802ep+9'),
    'x^2 2 1 0': ('0x0.0p+0', '0x1.0d1aaa4468676p+1'),
    'x^2 2 1 1': ('0x0.0p+0', '0x1.13a7ff669c9b1p+0'),
    'x^2 2 1 2': ('0x0.0p+0', '0x1.a998148d9be9ep+9'),
    'x^2 2 2 0': ('0x0.0p+0', '0x1.0d1aaa4468676p+1'),
    'x^2 2 2 1': ('0x0.0p+0', '0x1.13a7ff669c9b1p+0'),
    'x^2 2 2 2': ('0x0.0p+0', '0x1.a998148d9be9ep+9'),
    'exp(x)+x^4 0 1 0': ('-0x1.cf54400e55000p-4', '0x1.30974dbc1cad8p+1'),
    'exp(x)+x^4 0 1 1': ('-0x1.21be1963438c0p-6', '0x1.1fd2fee36657cp-1'),
    'exp(x)+x^4 0 1 2': ('DomainError', 'f: exp overflow at x = 800.0 (arg = 800.0)'),
    'exp(x)+x^4 0 2 0': ('-0x1.cf54400e55000p-4', '0x1.30974dbc1cad8p+1'),
    'exp(x)+x^4 0 2 1': ('-0x1.21be1963438c0p-6', '0x1.1fd2fee36657cp-1'),
    'exp(x)+x^4 0 2 2': ('DomainError', 'f: exp overflow at x = 800.0 (arg = 800.0)'),
    'exp(x)+x^4 1 1 0': ('-0x1.8f866a1435800p-4', '0x1.30974dbc1cad8p+1'),
    'exp(x)+x^4 1 1 1': ('-0x1.c7f4108b78200p-6', '0x1.48e2f49a2b044p+0'),
    'exp(x)+x^4 1 1 2': ('DomainError', "|f'|^q (q = 1): exp overflow at x = 800.0 (arg = 800.0)"),
    'exp(x)+x^4 1 2 0': ('-0x1.f7aadab13e5d0p+3', '0x1.6a8ca9eceee52p+0'),
    'exp(x)+x^4 1 2 1': ('-0x1.3fc7025151b4cp-2', '0x1.672b2ca6b71d9p-3'),
    'exp(x)+x^4 1 2 2': ('DomainError', "|f'|^q (q = 2): function undefined at x = 550.0: (34, 'Numerical result out of range')"),
    'exp(x)+x^4 2 1 0': ('-0x1.997b5e171b000p-5', '0x1.30974dbc1cad8p+1'),
    'exp(x)+x^4 2 1 1': ('-0x1.6d82225daec00p-6', '0x1.48e2f49a2b044p+0'),
    'exp(x)+x^4 2 1 2': ('DomainError', "|f''|^q (q = 1): exp overflow at x = 800.0 (arg = 800.0)"),
    'exp(x)+x^4 2 2 0': ('-0x1.5200993bc4f00p+4', '0x1.30974dbc1cad8p+1'),
    'exp(x)+x^4 2 2 1': ('-0x1.3097cfa9f976ep+1', '0x1.672b2ca6b71d9p-3'),
    'exp(x)+x^4 2 2 2': ('DomainError', "|f''|^q (q = 2): function undefined at x = 550.0: (34, 'Numerical result out of range')"),
    'cosh(x) 0 1 0': ('-0x1.006512acf6800p-7', '0x1.30974dbc1cad8p+1'),
    'cosh(x) 0 1 1': ('-0x1.9c01c33812400p-10', '0x1.48e2f49a2b044p+0'),
    'cosh(x) 0 1 2': ('DomainError', 'f: cosh overflow at x = 800.0 (arg = 800.0)'),
    'cosh(x) 0 2 0': ('-0x1.006512acf6800p-7', '0x1.30974dbc1cad8p+1'),
    'cosh(x) 0 2 1': ('-0x1.9c01c33812400p-10', '0x1.48e2f49a2b044p+0'),
    'cosh(x) 0 2 2': ('DomainError', 'f: cosh overflow at x = 800.0 (arg = 800.0)'),
    'cosh(x) 1 1 0': ('-0x1.f812aabf72c00p-8', '0x1.30974dbc1cad8p+1'),
    'cosh(x) 1 1 1': ('-0x1.6164993c02000p-10', '0x1.48e2f49a2b044p+0'),
    'cosh(x) 1 1 2': ('DomainError', "|f'|^q (q = 1): cosh overflow at x = 800.0 (arg = 800.0)"),
    'cosh(x) 1 2 0': ('-0x1.8c40429db0120p-4', '0x1.6a8ca9eceee52p+0'),
    'cosh(x) 1 2 1': ('-0x1.5be6ef94bca00p-7', '0x1.48e2f49a2b044p+0'),
    'cosh(x) 1 2 2': ('DomainError', "|f'|^q (q = 2): function undefined at x = 550.0: (34, 'Numerical result out of range')"),
    'cosh(x) 2 1 0': ('-0x1.006512acf6800p-7', '0x1.30974dbc1cad8p+1'),
    'cosh(x) 2 1 1': ('-0x1.9c01c33812400p-10', '0x1.48e2f49a2b044p+0'),
    'cosh(x) 2 1 2': ('DomainError', "|f''|^q (q = 1): cosh overflow at x = 800.0 (arg = 800.0)"),
    'cosh(x) 2 2 0': ('-0x1.8c40429db0140p-4', '0x1.6a8ca9eceee52p+0'),
    'cosh(x) 2 2 1': ('-0x1.5be6ef94bcb00p-7', '0x1.48e2f49a2b044p+0'),
    'cosh(x) 2 2 2': ('DomainError', "|f''|^q (q = 2): function undefined at x = 550.0: (34, 'Numerical result out of range')"),
    'x*log(x) 0 1 0': ('-0x1.3c7691547f000p-11', '0x1.30974dbc1cad8p+1'),
    'x*log(x) 0 1 1': ('DomainError', 'f: log of nonpositive argument at x = -0.125 (arg = -0.125)'),
    'x*log(x) 0 1 2': ('-0x1.738171bb88000p-2', '0x1.eee783d36802ep+9'),
    'x*log(x) 0 2 0': ('-0x1.3c7691547f000p-11', '0x1.30974dbc1cad8p+1'),
    'x*log(x) 0 2 1': ('DomainError', 'f: log of nonpositive argument at x = -0.125 (arg = -0.125)'),
    'x*log(x) 0 2 2': ('-0x1.738171bb88000p-2', '0x1.eee783d36802ep+9'),
    'x*log(x) 1 1 0': ('PreconditionError', "|f'|^q (q = 1) is not midpoint-convex on [0.5, 2.5] (worst gap 0.14591373174069666 near x = 1.0627410039996081)"),
    'x*log(x) 1 1 1': ('DomainError', "|f'|^q (q = 1): log of nonpositive argument at x = -0.125 (arg = -0.125)"),
    'x*log(x) 1 1 2': ('PreconditionError', "|f'|^q (q = 1) is not midpoint-convex on [50.0, 1050.0] (worst gap 0.5785471478280595 near x = 297.36034288987645)"),
    'x*log(x) 1 2 0': ('PreconditionError', "|f'|^q (q = 2) is not midpoint-convex on [0.5, 2.5] (worst gap 0.09065582392099802 near x = 1.7061561789053634)"),
    'x*log(x) 1 2 1': ('DomainError', "|f'|^q (q = 2): log of nonpositive argument at x = -0.125 (arg = -0.125)"),
    'x*log(x) 1 2 2': ('PreconditionError', "|f'|^q (q = 2) is not midpoint-convex on [50.0, 1050.0] (worst gap 6.01537232022342 near x = 297.36034288987645)"),
    'x*log(x) 2 1 0': ('-0x1.bf4879dbaf000p-13', '0x1.30974dbc1cad8p+1'),
    'x*log(x) 2 1 1': ('DomainError', "|f''|^q (q = 1): log of nonpositive argument at x = -0.125 (arg = -0.125)"),
    'x*log(x) 2 1 2': ('-0x1.8ddba9e678000p-21', '0x1.eee783d36802ep+9'),
    'x*log(x) 2 2 0': ('-0x1.1a0ab5efcf800p-12', '0x1.30974dbc1cad8p+1'),
    'x*log(x) 2 2 1': ('DomainError', "|f''|^q (q = 2): log of nonpositive argument at x = -0.125 (arg = -0.125)"),
    'x*log(x) 2 2 2': ('-0x1.34da1d631ae00p-29', '0x1.eee783d36802ep+9'),
    '1/x 0 1 0': ('-0x1.bf4879dbaf800p-13', '0x1.30974dbc1cad8p+1'),
    '1/x 0 1 1': ('PreconditionError', 'f is not midpoint-convex on [-0.125, 1.375] (worst gap 119.73345538080471 near x = 0.17537531741881088)'),
    '1/x 0 1 2': ('-0x1.8ddba9e678000p-21', '0x1.eee783d36802ep+9'),
    '1/x 0 2 0': ('-0x1.bf4879dbaf800p-13', '0x1.30974dbc1cad8p+1'),
    '1/x 0 2 1': ('PreconditionError', 'f is not midpoint-convex on [-0.125, 1.375] (worst gap 119.73345538080471 near x = 0.17537531741881088)'),
    '1/x 0 2 2': ('-0x1.8ddba9e678000p-21', '0x1.eee783d36802ep+9'),
    '1/x 1 1 0': ('-0x1.1a0ab5efcfa00p-12', '0x1.30974dbc1cad8p+1'),
    '1/x 1 1 1': ('-0x1.d3386a84b8000p-10', '0x1.48e2f49a2b044p+0'),
    '1/x 1 1 2': ('-0x1.34da1d631b200p-29', '0x1.eee783d36802ep+9'),
    '1/x 1 2 0': ('-0x1.4c5ccdeb23880p-13', '0x1.30974dbc1cad8p+1'),
    '1/x 1 2 1': ('-0x1.d8a6018b0b180p-9', '0x1.48e2f49a2b044p+0'),
    '1/x 1 2 2': ('-0x1.13d5f04abad00p-47', '0x1.eee783d36802ep+9'),
    '1/x 2 1 0': ('-0x1.da4bf0390fa00p-12', '0x1.30974dbc1cad8p+1'),
    '1/x 2 1 1': ('-0x1.6bf94e001e900p-8', '0x1.48e2f49a2b044p+0'),
    '1/x 2 1 2': ('-0x1.3fb75389d3600p-37', '0x1.eee783d36802ep+9'),
    '1/x 2 2 0': ('-0x1.eda8fa57d7200p-13', '0x1.30974dbc1cad8p+1'),
    '1/x 2 2 1': ('-0x1.2d6cbac1984c0p-6', '0x1.48e2f49a2b044p+0'),
    '1/x 2 2 2': ('-0x1.368d22908c680p-64', '0x1.eee783d36802ep+9'),
    'x^2-5 0 1 0': ('-0x1.787fb01a94000p-9', '0x1.30974dbc1cad8p+1'),
    'x^2-5 0 1 1': ('-0x1.a78fa61de7000p-10', '0x1.48e2f49a2b044p+0'),
    'x^2-5 0 1 2': ('-0x1.670ea5ce18c00p+9', '0x1.eee783d36802ep+9'),
    'x^2-5 0 2 0': ('-0x1.787fb01a94000p-9', '0x1.30974dbc1cad8p+1'),
    'x^2-5 0 2 1': ('-0x1.a78fa61de7000p-10', '0x1.48e2f49a2b044p+0'),
    'x^2-5 0 2 2': ('-0x1.670ea5ce18c00p+9', '0x1.eee783d36802ep+9'),
    'x^2-5 1 1 0': ('0x0.0p+0', '0x1.0d1aaa4468676p+1'),
    'x^2-5 1 1 1': ('0x0.0p+0', '0x1.13a7ff669c9b1p+0'),
    'x^2-5 1 1 2': ('0x0.0p+0', '0x1.a998148d9be9ep+9'),
    'x^2-5 1 2 0': ('-0x1.787fb01a94000p-7', '0x1.30974dbc1cad8p+1'),
    'x^2-5 1 2 1': ('-0x1.a78fa61de7000p-8', '0x1.48e2f49a2b044p+0'),
    'x^2-5 1 2 2': ('-0x1.670ea5ce18c00p+11', '0x1.eee783d36802ep+9'),
    'x^2-5 2 1 0': ('0x0.0p+0', '0x1.0d1aaa4468676p+1'),
    'x^2-5 2 1 1': ('0x0.0p+0', '0x1.13a7ff669c9b1p+0'),
    'x^2-5 2 1 2': ('0x0.0p+0', '0x1.a998148d9be9ep+9'),
    'x^2-5 2 2 0': ('0x0.0p+0', '0x1.0d1aaa4468676p+1'),
    'x^2-5 2 2 1': ('0x0.0p+0', '0x1.13a7ff669c9b1p+0'),
    'x^2-5 2 2 2': ('0x0.0p+0', '0x1.a998148d9be9ep+9'),
}

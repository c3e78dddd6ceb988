"""The convexity guard on precomputed draws against the seeded guard in ``guard_oracle``, and
:func:`~hhaudit.core.convexity_guard`, which samples a parsed function through its compiled loop,
against the same guard sampling point by point."""

import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

import guard_oracle
from hhaudit.core import DomainError, Interval, PreconditionError, convexity_guard, evaluator, extend, sample_convexity
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


def test_too_few_pairs_is_the_same_error():
    assert _outcome(sample_convexity, math.exp, Interval(0.0, 1.0), 2, "convexity") == (
        ValueError, "need at least 3 sample pairs, got n = 2")


def _reference_guard(f, region, order, q, *, pairs):
    """:func:`convexity_guard` of one region on ``guard_oracle``'s sampling, which calls f, or |f^(order)|^q from the
    order-``order`` jet, one point at a time, with the same labels and messages."""
    if order == 0:
        what, fn = "f", f.compiled(0)
    else:
        what = "|f" + "'" * order + f"|^q (q = {q!r})"
        if order == 2 and "abs" in to_text(f):
            raise PreconditionError(f"{what} bounds need f twice differentiable, and f contains abs")
        jet = f.compiled(order)
        fn = lambda x: abs(jet(x)[order]) ** q
    try:
        report = guard_oracle.sample_convexity(fn, region, pairs, label=f"guard:{what}")
    except DomainError as exc:
        raise DomainError(f"{what}: {exc}") from exc
    if not report.satisfied:
        raise PreconditionError(f"{what} is not midpoint-convex on [{region.a!r}, {region.b!r}]"
                                f" (worst gap {report.lhs!r} near x = {report.inputs['worst_at']!r})")


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
    # a later pair's point is a hole of the log, so a loop that evaluated every point before
    # scanning the gaps would raise "f: log of nonpositive argument at x = ..." instead
    f = parse("x^4 + log((x - 2.3397441655619037e+77)^2 - 5.033759532751502e+150)")
    want = (DomainError, "f: convexity gap undefined (inf - inf) at the midpoint x = 2.8011881272326755e+77")
    assert _guard_outcome(_reference_guard, f, Interval(2e77, 3e77), 0, 1.0, 16) == want
    assert _guard_outcome(_guard, f, Interval(2e77, 3e77), 0, 1.0, 16) == want

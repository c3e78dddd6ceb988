"""The convexity guard on precomputed draws against the seeded guard in ``guard_oracle``."""

import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

import guard_oracle
from hhaudit.core import DomainError, Interval, extend, sample_convexity
from hhaudit.exprlang import evaluator, parse

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

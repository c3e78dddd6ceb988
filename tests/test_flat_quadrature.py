"""The flat quadrature passes against the per-object loops in ``quadrature_oracle``:
the same floats bit for bit, the same exception types and messages."""

import math
import struct

import pytest
from hypothesis import assume, given, settings, strategies as st

import quadrature_oracle as oracle
from hhaudit.core import DomainError, Interval
from hhaudit.exprlang import parse
from hhaudit.quadrature import Partition, adaptive_midpoint, midpoint_error_bound, trapezoid_T1

_FUNCTIONS = {text: parse(text) for text in ("x^2", "x^3", "exp(x)", "cosh(x)", "log(x)", "x*log(x)", "1/x")}
_SCALES = st.sampled_from((1.0, 1e-300, 1e300, 1e-8, 1e8))
_BAD = (math.nan, math.inf, -math.inf)


@st.composite
def _points(draw):
    """Uniform, random (sorted or not), and adjacent-float grids at several magnitudes,
    sometimes with a NaN or an infinity put in."""
    scale = draw(_SCALES)
    kind = draw(st.sampled_from(("uniform", "random", "adjacent")))
    if kind == "uniform":
        a, width, m = draw(st.floats(-4.0, 4.0)), draw(st.floats(1e-6, 8.0)), draw(st.integers(1, 40))
        pts = [(a + width * i / m) * scale for i in range(m + 1)]
    elif kind == "random":
        pts = [x * scale for x in draw(st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=30))]
        if draw(st.booleans()):
            pts.sort()
    else:
        pts = [draw(st.floats(-4.0, 4.0)) * scale]
        for ulps in draw(st.lists(st.integers(1, 3), min_size=1, max_size=12)):
            for _ in range(ulps):
                pts.append(math.nextafter(pts[-1], math.inf))
    if draw(st.integers(0, 9)) == 0:
        pts[draw(st.integers(0, len(pts) - 1))] = draw(st.sampled_from(_BAD))
    return tuple(pts)


def _outcome(fn, *args, **kwargs):
    """("ok", result bits) or (exception type, message)."""
    try:
        value = fn(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    if isinstance(value, float):
        return "ok", "nan" if math.isnan(value) else struct.pack("<d", value)
    return "ok", tuple(struct.pack("<d", x) for x in value.points)


def _both(pts):
    """The partition built by each side, or None where the oracle rejects it."""
    try:
        return Partition(pts), oracle.Partition(pts)
    except ValueError:
        return None


@settings(max_examples=400, deadline=None)
@given(pts=_points())
def test_partition_checks_match_the_oracle(pts):
    want = _outcome(oracle.Partition, pts)
    got = _outcome(Partition, pts)
    if want[0] == "ok" and pts[-1] == math.inf:
        # the one grid the point-by-point loop let through
        assert got == (ValueError, "partition points must be finite, got inf as the last point")
    else:
        assert got == want


@settings(max_examples=400, deadline=None)
@given(pts=_points(), fn=st.sampled_from(sorted(_FUNCTIONS)), q=st.sampled_from((1.0, 1.5, 2.0, 3.0)),
       levels=st.integers(0, 2))
def test_midpoint_error_bound_and_trapezoid_match_the_oracle(pts, fn, q, levels):
    pair = _both(pts)
    assume(pair is not None and math.isfinite(pts[-1]))
    _, old = pair
    for _ in range(levels):
        try:
            old = old.bisected()
        except ValueError:
            break
    new = Partition(old.points)
    f = _FUNCTIONS[fn]
    want = _outcome(oracle.midpoint_error_bound, f, old, q, guard="panel")
    assert _outcome(midpoint_error_bound, f, new, q) == want
    assert _outcome(trapezoid_T1, f, new) == _outcome(oracle.trapezoid_T1, f, old)


@pytest.mark.parametrize("fn, pts, error, message", [
    # log(x) on a widened end <= 0: the DomainError names the panel
    ("log(x)", (0.1, 1.0), DomainError, "subinterval 0 [0.1, 1.0]: "),
    ("log(x)", (2.0, 3.0, 3.5, 4.0), None, None),
    ("log(x)", (0.5, 1.0, 4.0), DomainError, "subinterval 1 [1.0, 4.0]: "),
    # a panel too narrow to widen
    ("x^2", (1.0, 1.0000000000000002, 1.0000000000000004), ValueError,
     "extended interval needs lo < mid < hi, got (1.0000000000000002, 1.0000000000000004, 1.0000000000000004)"),
])
def test_named_failures_match_the_oracle(fn, pts, error, message):
    f = parse(fn)
    want = _outcome(oracle.midpoint_error_bound, f, oracle.Partition(pts), 1.0, guard="panel")
    assert _outcome(midpoint_error_bound, f, Partition(pts), 1.0) == want
    if error is None:
        assert want[0] == "ok"
    else:
        assert want[0] is error and want[1].startswith(message)


@pytest.mark.parametrize("fn, b, q, target", [
    ("abs(x+9)+exp(x)", 2.0, 1.0, 1e-2),
    ("abs(x+9)+x^3", 3.0, 2.0, 1e-2),
    ("abs(x-1.3)", 2.0, 1.5, 1e-3),
])
def test_adaptive_first_order_shares_match_the_oracle(fn, b, q, target):
    """The first-order adaptive certificate is the sum of the unguarded per-panel bounds."""
    f = parse(fn)
    res = adaptive_midpoint(f, Interval(1.0, b), target, q)
    assert res.order == 1 and res.partition.panel_count > 1
    shares = [oracle.midpoint_error_bound(f, oracle.Partition(panel), q, guard="none") for panel in res.partition.panels()]
    assert res.e2_bound == math.fsum(shares)


@pytest.mark.parametrize("pts", [(0.0, math.nan, 1.0), (math.nan, 1.0), (0.0, 1.0, math.nan), (-math.inf, 0.0),
                                 (0.0, math.inf, 1.0), (0.0, 0.0, 1.0), (1.0, 0.5)])
def test_partition_messages_match_the_oracle(pts):
    want = _outcome(oracle.Partition, pts)
    assert want[0] is ValueError
    assert _outcome(Partition, pts) == want

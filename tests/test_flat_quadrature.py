"""The flat quadrature passes and the partition guard against the per-object loops in
``quadrature_oracle``: the same floats bit for bit, the same exception types and messages.  A uniform
partition's guard is one scan of the union of its widened panels instead of the per-panel loop: it is held to the
loop's outcome class in ``test_guard_union.py``, and the panel it names is pinned here."""

import math
import struct

import pytest
from hypothesis import assume, given, settings, strategies as st

import quadrature_oracle as oracle
from hhaudit.core import DomainError, Interval, PreconditionError, _uniform, convexity_guard
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
    """("ok", result bits, or None for no result) or (exception type, message)."""
    try:
        value = fn(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    if value is None:
        return "ok", None
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
    got = _outcome(midpoint_error_bound, f, new, q)
    if _uniform(new.points):
        # one scan of the union; past it, the flat pass is the oracle's unguarded loop bit for bit
        guard = _outcome(convexity_guard(f, 1, q, steps=16).panels, new.points)
        assert got == (guard if guard[0] != "ok" else _outcome(oracle.midpoint_error_bound, f, old, q, guard="none"))
    else:
        want = _outcome(oracle.midpoint_error_bound, f, old, q, guard="panel")
        # every panel is widened before any is scanned, so a later panel too narrow to widen, or whose widened end
        # overflows, comes ahead of an earlier panel's failure, which the loop met first
        assert got == want or ((got[0] is ValueError or "widened interval of" in got[1])
                               and want[0] in (PreconditionError, DomainError))
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


# f, the grid, and what the guard at order 0 and at order 1 (either q, or by q) meets first: None, or the
# exception type with the start of its message
_PARTITION_GUARDS = {
    "convex": ("exp(x)", tuple(1.0 + i / 16 for i in range(17)), None, None),
    "refuted at panel 2": ("-x^3", (-3.0, -2.0, -1.0, 1.0, 2.0), (PreconditionError, "subinterval 2 "), None),
    "refuted at panels 0 and 3": ("10*x - x^4/4", (-4.0, -3.0, -2.0, -1.0, 0.5, 1.5, 2.5),
                                  (PreconditionError, "subinterval 0 "), (PreconditionError, "subinterval 3 ")),
    # the wide panel 1 reaches below 2.5, the narrow panel 0 does not
    "hole in panel 1": ("log(x-2.5)", (3.0, 3.1, 5.0, 6.0),
                        (PreconditionError, "subinterval 0 "), (DomainError, "subinterval 1 [3.1, 5.0]: |f'|^q")),
    "convex, hole in panel 1": ("-log(x-2.5)", (3.0, 3.1, 5.0, 6.0),
                                (DomainError, "subinterval 1 [3.1, 5.0]: f: "), (DomainError, "subinterval 1 ")),
    "widened end overflows": ("exp(-x)", (2e307, 3e307, 5e307, 7e307),
                              (DomainError, "subinterval 2 [5e+307, 7e+307]: widened interval of [5e+307, 7e+307]"
                                            " overflows: (4e+307, inf)"),
                              (DomainError, "subinterval 2 [5e+307, 7e+307]: widened interval")),
    # f overflows to -inf; |f'| = 2x stays finite, and only its square overflows.  The grid's points are not
    # exact midpoints of their neighbours, so the affine 2x shows gaps of its rounding, far above abs_tol here
    "inf - inf gap": ("-x^2", (1e199, 2e199, 1e200, 2e200),
                      (DomainError, "subinterval 0 [1e+199, 2e+199]: f: convexity gap undefined (inf - inf)"),
                      {1.0: (PreconditionError, "subinterval 0 [1e+199, 2e+199]: |f'|^q (q = 1.0) is not midpoint-convex"),
                       2.0: (DomainError, "subinterval 0 [1e+199, 2e+199]: |f'|^q (q = 2.0): ")}),
    "too narrow to widen": ("x^2", (0.5, 1.0000000000000002, 1.0000000000000004, 2.0),
                            (ValueError, "extended interval needs lo < mid < hi"),
                            (ValueError, "extended interval needs lo < mid < hi")),
    # panel 3, [1, 2], widens past 2.2: only the refutation of panel 2 may be reported
    "refuted at panel 2, hole in panel 3": ("-x^3 - log(2.2 - x)", (-3.0, -2.0, -1.0, 1.0, 2.0),
                                            (PreconditionError, "subinterval 2 "), (PreconditionError, "subinterval 2 ")),
    # a dip of depth 100 and width 1e-7 inside the narrow panel 0: its own grid, of step 1.25e-5, refutes it, where
    # one scan of the union at the mean panel density, of step 0.17, held no point of panel 0's widened interval
    "refuted in a narrow panel": ("x^2 - 1e-12/(1e-14 + (x-1.00005)^2)", (1.0, 1.0001, 3.0),
                                  (PreconditionError, "subinterval 0 [1.0, 1.0001]: f is not midpoint-convex on "
                                                      "[0.99995, 1.00015] (worst gap 49.99"),
                                  (PreconditionError, "subinterval 0 [1.0, 1.0001]: |f'|^q")),
}


@pytest.mark.parametrize("order, q", [(0, 1.0), (0, 2.0), (1, 1.0), (1, 2.0)])
@pytest.mark.parametrize("case", list(_PARTITION_GUARDS))
def test_the_partition_guard_matches_the_per_panel_loop(case, order, q):
    """All but "convex" are non-uniform partitions, guarded panel by panel; "convex" passes either way."""
    fn, pts, *first = _PARTITION_GUARDS[case]
    f = parse(fn)
    want = _outcome(oracle.guard_panels, f, oracle.Partition(pts), order, q)
    assert _outcome(convexity_guard(f, order, q, steps=16).panels, pts) == want
    expected = first[order].get(q) if isinstance(first[order], dict) else first[order]
    if expected is None:
        assert want == ("ok", None)
    else:
        assert want[0] is expected[0] and want[1].startswith(expected[1])
    if case == "refuted at panel 2, hole in panel 3":
        with pytest.raises(DomainError):
            convexity_guard(f, order, q, steps=16).panels(pts[3:])


# f, a uniform grid, the failure the union scan meets at both orders, and the per-panel loop's.  The panel named is
# the one whose [x_i, x_{i+1}] holds the hole or the worst gap's midpoint x: x_i < x <= x_{i+1}, so a shared end
# goes to the panel on its left, and the end panel for x beyond the ends.  The region named is the union.
_UNION_FAILURES = {
    "hole left of x_0": ("log(x-0.3)", (0.5, 1.0, 1.5), (DomainError, "subinterval 0 [0.5, 1.0]: "), DomainError),
    "hole right of x_m": ("-log(2.2 - x)", (1.0, 1.5, 2.0), (DomainError, "subinterval 1 [1.5, 2.0]: "), DomainError),
    "hole at a shared end": ("1/(x-1)", (0.0, 1.0, 2.0, 3.0),
                             (DomainError, "subinterval 0 [0.0, 1.0]: "), DomainError),
    # a hole anywhere in the union raises ahead of a refutation, as in any region: the loop refuted panel 2 first
    "refuted at panel 2, hole in panel 4": ("-x^3 - log(2.2 - x)", (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0),
                                            (DomainError, "subinterval 4 [1.0, 2.0]: "), PreconditionError),
}


@pytest.mark.parametrize("order, q", [(0, 1.0), (1, 1.0), (1, 2.0)])
@pytest.mark.parametrize("case", list(_UNION_FAILURES))
def test_the_union_scan_names_the_panel_of_its_failure(case, order, q):
    fn, pts, (error, prefix), loop = _UNION_FAILURES[case]
    f = parse(fn)
    assert _uniform(pts)
    got = _outcome(convexity_guard(f, order, q, steps=16).panels, pts)
    assert got[0] is error and got[1].startswith(prefix)
    assert _outcome(oracle.guard_panels, f, oracle.Partition(pts), order, q)[0] is loop


def test_the_union_scan_names_the_union_and_the_panel_of_the_worst_gap():
    """-x^3 on (-1, 0, 1): the worst gap of the union [-1.5, 1.5] is at 0.5, in panel 1; the loop refuted panel 0."""
    f = parse("-x^3")
    got = _outcome(convexity_guard(f, steps=16).panels, (-1.0, 0.0, 1.0))
    assert got == (PreconditionError, "subinterval 1 [0.0, 1.0]: f is not midpoint-convex on [-1.5, 1.5] (worst gap 1.5 near x = 0.5)")
    want = _outcome(oracle.guard_panels, f, oracle.Partition((-1.0, 0.0, 1.0)), 0, 1.0)
    assert want[0] is PreconditionError and want[1].startswith("subinterval 0 [-1.0, 0.0]: f is not midpoint-convex on [-1.5, 0.5] ")

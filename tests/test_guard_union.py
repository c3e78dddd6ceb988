"""The partition guard against the per-panel loop (``quadrature_oracle.guard_panels``, each panel's widened
interval on its own 16-step grid).

A uniform partition's guard is one scan of the union of its widened panels.  The widened panels overlap, so f
convex on each is f convex on their union: the hypothesis is the same.  The union's grid holds every panel's grid
up to rounding, and its stride-8 triples are the panels' widest ones, so both guards see the same triples in exact
arithmetic.  The outcome classes (pass, PreconditionError, DomainError, ValueError) must agree but for the pinned
cases, each a rounding of the grid or a hole that the union scan meets ahead of an earlier panel's refutation.  A
non-uniform partition is guarded panel by panel, each at its own resolution: the loop's outcome, message and all.
Also: the scan's memory at the panel cap, and the generic scan of a plain callable against the compiled scan of
the same text.
"""

import itertools
import tracemalloc

import pytest

import quadrature_oracle as oracle
from test_guard_draws import _BATTERY as _AUDIT_BATTERY
from test_guard_grid_vs_pairs import _BATTERY, _FAMILIES, _INTERVALS
from hhaudit import core
from hhaudit.core import DomainError, Interval, PreconditionError, convexity_guard
from hhaudit.exprlang import parse
from hhaudit.quadrature import Partition

_PANELS = (1, 2, 3, 4, 16, 64)
_ORDERS = ((0, 1.0), (1, 1.0), (1, 2.0))

# (f, [a, b], m, order, q): (the per-panel loop's outcome, the union scan's)
_PINNED = {
    # 1/x across 0 at m = 3: panel 0's widened right end is 0.0, a hole; the union's grid steps over 0 (its point
    # nearest 0 is 2.2e-16), and the pole's spike there is refuted instead
    ("1/x", (-1.0, 1.0), 3, 0, 1.0): ("DomainError", "PreconditionError"),
    ("1/x", (-1.0, 1.0), 3, 1, 1.0): ("DomainError", "PreconditionError"),
    ("1/x", (-1.0, 1.0), 3, 1, 2.0): ("DomainError", "PreconditionError"),
    # 1/x across 0 elsewhere: the per-panel loop refutes a panel left of 0 before it reaches the one holding the
    # pole; the union scan meets the pole, a grid point, first
    ("1/x", (-1.0, 1.0), 4, 0, 1.0): ("PreconditionError", "DomainError"),
    ("1/x", (-1.0, 1.0), 16, 0, 1.0): ("PreconditionError", "DomainError"),
    ("1/x", (-1.0, 1.0), 64, 0, 1.0): ("PreconditionError", "DomainError"),
    ("1/x", (-0.3, 0.1), 2, 0, 1.0): ("PreconditionError", "DomainError"),
    ("1/x", (-0.3, 0.1), 2, 1, 1.0): ("PreconditionError", "DomainError"),
    ("1/x", (-0.3, 0.1), 2, 1, 2.0): ("PreconditionError", "DomainError"),
    ("1/x", (-0.3, 0.1), 3, 0, 1.0): ("PreconditionError", "DomainError"),
    ("1/x", (-0.3, 0.1), 16, 0, 1.0): ("PreconditionError", "DomainError"),
    ("1/x", (-0.3, 0.1), 16, 1, 1.0): ("PreconditionError", "DomainError"),
    ("1/x", (-0.3, 0.1), 16, 1, 2.0): ("PreconditionError", "DomainError"),
    # the affine 1000x + 5, near 9000 on [4.33, 9.67]: the panels' worst rounding gap is half an ulp there,
    # 9.1e-13, the union's grid one ulp, 1.8e-12, past abs_tol = 1e-12
    ("1000*x+5", (5.0, 9.0), 3, 0, 1.0): ("pass", "PreconditionError"),
}


def _outcome(run):
    try:
        run()
    except (PreconditionError, DomainError, ValueError) as exc:
        return type(exc).__name__
    return "pass"


def test_the_union_scan_has_the_outcome_class_of_the_per_panel_loop():
    cases, differ = 0, {}
    for text in _BATTERY + _FAMILIES:
        f = parse(text)
        for (a, b), m, (order, q) in itertools.product(_INTERVALS, _PANELS, _ORDERS):
            points = Partition.uniform(Interval(a, b), m).points
            per_panel = _outcome(lambda: oracle.guard_panels(f, oracle.Partition(points), order, q))
            union = _outcome(lambda: convexity_guard(f, order, q, steps=16).panels(points))
            cases += 1
            if union != per_panel:
                differ[(text, (a, b), m, order, q)] = (per_panel, union)
    assert cases == len(_BATTERY + _FAMILIES) * len(_INTERVALS) * len(_PANELS) * len(_ORDERS)
    assert differ == _PINNED


def _message_or_error(run):
    try:
        run()
    except (PreconditionError, DomainError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "pass"


def test_a_non_uniform_partition_is_guarded_panel_by_panel():
    """Quadratically graded panels, and a first panel 1e-4 of the interval wide: the per-panel loop's outcome and
    message, exactly."""
    cases = 0
    for text in _BATTERY + _FAMILIES:
        f = parse(text)
        for (a, b), (order, q) in itertools.product(_INTERVALS, _ORDERS):
            grids = [tuple(a + (b - a) * (i / m) ** 2 for i in range(m + 1)) for m in (2, 3, 16)]
            for points in (*grids, (a, a + 1e-4 * (b - a), b)):
                assert not core._uniform(points)
                per_panel = _message_or_error(lambda: oracle.guard_panels(f, oracle.Partition(points), order, q))
                assert _message_or_error(lambda: convexity_guard(f, order, q, steps=16).panels(points)) == per_panel
                cases += 1
    assert cases == len(_BATTERY + _FAMILIES) * len(_INTERVALS) * len(_ORDERS) * 4


def test_the_partition_guard_at_the_panel_cap_keeps_no_value_per_point():
    """x^4 on 65,536 panels: 524,296 grid steps, of which the scan keeps four values and the widening pass none."""
    f = parse("x^4")
    points = Partition.uniform(Interval(1.0, 2.0), 65536).points
    guard = convexity_guard(f, steps=16)
    guard.panels(points[:3])  # compile f's scan outside the measurement
    tracemalloc.start()
    try:
        guard.panels(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("text", _AUDIT_BATTERY)
def test_the_generic_scan_of_a_plain_callable_matches_the_compiled_scan(scans, text):
    """The union scan of three uniform partitions, run by the guard through f's compiled scan, and by
    ``core._generic_scan`` on a plain callable of f's value: the same (worst gap, its midpoint) bit for bit, or
    the same error, and the same guard outcome."""
    f = parse(text)
    value = f.compiled(0)
    plain = lambda x: value(x)  # no ``scan`` attribute, so the guard takes the generic scan
    for a, b, m in ((1.0, 2.0, 16), (0.25, 1.0, 1), (300.0, 800.0, 64)):  # inside (0, inf), across 0, past exp's overflow
        points = Partition.uniform(Interval(a, b), m).points
        scans.clear()
        compiled = _message(lambda: convexity_guard(f, steps=16).panels(points))
        (scan,) = scans
        try:
            generic = core._generic_scan()(scan.lo, scan.hi, scan.steps, scan.wide, f=plain)
        except DomainError as exc:
            generic = None, str(exc)
        if scan.result is None:
            assert generic[0] is None and compiled.endswith(generic[1])
        else:
            assert tuple(v.hex() for v in generic) == tuple(v.hex() for v in scan.result)
        assert _message(lambda: convexity_guard(plain, steps=16).panels(points)) == compiled


def _message(run):
    try:
        run()
    except (PreconditionError, DomainError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "pass"

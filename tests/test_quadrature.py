import math
import random
import time

import pytest

from hhaudit.core import DomainError, Interval, PreconditionError, ToleranceConfig, convexity_guard, extend, widen
from hhaudit.exprlang import parse
from hhaudit.oracle import PANEL_CAP, integrate_ref
from hhaudit.quadrature import (
    Partition,
    adaptive_midpoint,
    midpoint_T2,
    midpoint_error_bound,
    prop4_check,
    trapezoid_T1,
)
from conftest import draw_interval


class TestPartition:
    def test_uniform(self):
        p = Partition.uniform(Interval(0.0, 1.0), 4)
        assert p.points == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert p.panel_count == 4

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            Partition((0.0, 0.0, 1.0))

    def test_rejects_an_infinite_last_point(self):
        with pytest.raises(ValueError, match="got inf as the last point"):
            Partition((0.0, 1.0, math.inf))


class TestCompositeRules:
    def test_t1_square(self):
        assert trapezoid_T1(parse("x^2"), Partition((0.0, 0.5, 1.0))) == 0.375

    def test_t2_square(self):
        assert midpoint_T2(parse("x^2"), Partition((0.0, 0.5, 1.0))) == 0.3125

    def test_affine_exact_both(self):
        f = parse("3*x - 2")
        p = Partition((0.0, 0.3, 1.1, 2.0))
        exact = 3.0 * 2.0**2 / 2.0 - 2.0 * 2.0
        assert math.isclose(trapezoid_T1(f, p), exact, rel_tol=1e-14)
        assert math.isclose(midpoint_T2(f, p), exact, rel_tol=1e-14)

    def test_single_panel_formulas(self):
        f = parse("exp(x)")
        assert math.isclose(trapezoid_T1(f, Partition((0.0, 1.0))), (1.0 + math.e) / 2.0, rel_tol=1e-15)
        assert math.isclose(midpoint_T2(f, Partition((0.0, 1.0))), math.exp(0.5), rel_tol=1e-15)

    def test_bracketing_for_convex(self, battery):
        rng = random.Random(21)
        for _, expr in battery:
            iv = draw_interval(rng)
            p = Partition.uniform(iv, rng.randint(1, 6))
            integral = integrate_ref(expr, iv).value
            t1, t2 = trapezoid_T1(expr, p), midpoint_T2(expr, p)
            assert t2 <= integral + 1e-10
            assert integral <= t1 + 1e-10


class TestMidpointErrorBound:
    def test_square_two_panels(self):
        bound = midpoint_error_bound(parse("x^2"), Partition((0.0, 0.5, 1.0)), 1.0)
        assert abs(bound - 5.0 / 32.0) <= 1e-12
        true_err = abs(1.0 / 3.0 - 0.3125)
        assert abs(true_err - 1.0 / 48.0) <= 1e-12
        assert true_err <= bound

    def test_affine(self):
        bound = midpoint_error_bound(parse("2*x"), Partition((0.0, 1.0, 2.0)), 1.0)
        assert math.isclose(bound, 0.125 * 2.0 * (1.0 * 4.0), rel_tol=1e-13)
        assert abs(midpoint_T2(parse("2*x"), Partition((0.0, 1.0, 2.0))) - 4.0) <= 1e-14

    def test_exp_q2_certificate_sound(self):
        f = parse("exp(x)")
        p = Partition((0.0, 1.0))
        bound = midpoint_error_bound(f, p, 2.0)
        true_err = abs((math.e - 1.0) - math.exp(0.5))
        assert abs(true_err - 0.0695605577589169) <= 1e-12
        assert true_err <= bound

    def test_rejects_q_below_one(self):
        with pytest.raises(PreconditionError):
            midpoint_error_bound(parse("x^2"), Partition((0.0, 1.0)), 0.5)

    def test_domain_failure_names_subinterval(self):
        # the widened end -0.35 is the hole: left of x_0, so panel 0 is named
        with pytest.raises(DomainError) as info:
            midpoint_error_bound(parse("log(x)"), Partition((0.1, 1.0)), 1.0)
        assert str(info.value) == "subinterval 0 [0.1, 1.0]: |f'|^q (q = 1.0): log of nonpositive argument at x = -0.35 (arg = -0.35)"

    def test_certificate_soundness_battery(self, battery):
        rng = random.Random(31)
        findings = []
        for _, expr in battery:
            for _ in range(5):
                iv = draw_interval(rng)
                p = Partition.uniform(iv, rng.randint(1, 5))
                q = rng.choice((1.0, 1.5, 2.0))
                bound = midpoint_error_bound(expr, p, q)
                integral = integrate_ref(expr, iv).value
                if abs(integral - midpoint_T2(expr, p)) > bound:
                    findings.append((expr, iv, q))
        # soundness violations would indict the printed proposition; none expected here
        assert findings == []

    def test_refinement_monotone_for_monotone_derivative(self):
        f = parse("exp(x)")
        previous = midpoint_error_bound(f, Partition.uniform(Interval(0.0, 1.0), 1), 1.0)
        for k in range(1, 7):
            current = midpoint_error_bound(f, Partition.uniform(Interval(0.0, 1.0), 2**k), 1.0)
            assert current <= previous + 1e-15
            previous = current


class TestProp4:
    def test_affine_equality(self):
        r = prop4_check(parse("x"), Partition((0.0, 1.0)))
        assert abs(r.lhs - 0.5) <= 1e-12
        assert abs(r.rhs - 0.5) <= 1e-12
        assert r.satisfied and r.fragile

    def test_square(self):
        r = prop4_check(parse("x^2"), Partition((0.0, 2.0)))
        assert abs(r.lhs - 10.0 / 3.0) <= 1e-12
        assert abs(r.rhs - 10.0) <= 1e-12
        assert abs(r.inputs["max_bound"] - 18.0) <= 1e-12
        assert r.satisfied

    def test_rejects_a_function_that_is_not_callable(self):
        # the guard's first call of f raises it, as in midpoint_error_bound and prop5_check
        with pytest.raises(TypeError):
            prop4_check(5.0, Partition((0.0, 1.0)))

    def test_shift_counterexample(self):
        r = prop4_check(parse("x^2-5"), Partition((0.0, 2.0)))
        assert abs(r.lhs - 20.0 / 3.0) <= 1e-12
        assert r.rhs == 0.0
        assert not r.satisfied and r.fragile


class TestAdaptiveMidpoint:
    def test_square_certified(self):
        res = adaptive_midpoint(parse("x^2"), Interval(0.0, 1.0), 1e-3, 1.0)
        assert res.certified
        assert res.e2_bound <= 1e-3
        assert abs(res.t2 - 1.0 / 3.0) <= res.e2_bound

    def test_affine_t2_exact(self):
        res = adaptive_midpoint(parse("x"), Interval(0.0, 5.0), 1e-2, 1.0)
        assert abs(res.t2 - 12.5) <= 1e-12

    def test_exp_certified_against_oracle(self):
        res = adaptive_midpoint(parse("exp(x)"), Interval(0.0, 2.0), 1e-4, 1.0)
        assert res.certified and res.e2_bound <= 1e-4
        assert abs(res.t2 - (math.e**2 - 1.0)) <= res.e2_bound
        oracle_value = integrate_ref(parse("exp(x)"), Interval(0.0, 2.0)).value
        assert abs(oracle_value - (math.e**2 - 1.0)) <= 1e-11

    def test_depth_exhaustion_flagged(self):
        # the first-order certificate is O(h): 1e-9 lies beyond the panel cap
        res = adaptive_midpoint(parse("exp(x)+abs(x+9)"), Interval(0.0, 2.0), 1e-9)
        assert not res.certified and res.order == 1
        assert res.e2_bound > 1e-9
        assert res.partition.panel_count == PANEL_CAP
        assert abs(res.t2 - (math.e**2 - 1.0 + 20.0)) <= res.e2_bound

    def test_target_below_the_rounding_floor_stops_at_once(self):
        # f'' = 0: only T2's rounding is left, and it grows with every panel
        start = time.perf_counter()
        res = adaptive_midpoint(parse("x"), Interval(1.0, 2.0), 1e-20)
        assert time.perf_counter() - start < 0.01
        assert not res.certified and res.order == 2
        assert res.partition.panel_count == 1
        assert 0.0 < res.e2_bound <= 1.0e-14

    def test_guard_failure_propagates(self):
        with pytest.raises(DomainError):
            adaptive_midpoint(parse("log(x-0.5)"), Interval(0.1, 1.0), 1e-4, 1.0)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            adaptive_midpoint(parse("x"), Interval(0.0, 1.0), 0.0, 1.0)

    @pytest.mark.parametrize("b, panels", [
        (1.0000000000000002, 1),  # f'' = 0: no split can shrink the rounding term
        (1.0000000000000004, 1),
        (1.0000000000000009, 1),
    ])
    def test_refinement_stops_at_float_resolution(self, b, panels):
        res = adaptive_midpoint(parse("x"), Interval(1.0, b), 1e-40, 1.0)
        assert not res.certified and res.order == 2
        assert res.partition.panel_count == panels
        assert res.e2_bound > 1e-40
        assert res.t2 == res.t1 == midpoint_T2(parse("x"), res.partition)

    @pytest.mark.parametrize("b, panels", [
        # refinement stops where a half of 1 ulp could not be split again; a panel
        # that holds a midpoint, as each half of a split does, can always be widened
        (1.0000000000000004, 1),
        (1.0000000000000009, 2),
    ])
    def test_first_order_refinement_stops_where_panels_cannot_be_widened(self, b, panels):
        res = adaptive_midpoint(parse("abs(x+9)"), Interval(1.0, b), 1e-40, 1.0)
        assert not res.certified and res.order == 1
        assert res.partition.panel_count == panels

    def test_level_zero_that_cannot_be_widened_stays_one_panel_at_second_order(self):
        # the second-order certificate reads f only on [a, b], so the widened hull is never built
        res = adaptive_midpoint(parse("x"), Interval(1.0000000000000002, 1.0000000000000004), 1e-40, 1.0)
        assert (res.order, res.partition.panel_count, res.certified) == (2, 1, False)

    def test_level_zero_that_cannot_be_widened_raises_at_first_order(self):
        # the fallback's |f'|^q guard and share read the widened hull, which does not exist here
        with pytest.raises(ValueError, match="extended interval needs lo < mid < hi"):
            adaptive_midpoint(parse("abs(x+9)"), Interval(1.0000000000000002, 1.0000000000000004), 1e-40, 1.0)

    @pytest.mark.parametrize("fn, b, want", [
        ("x^2", 1e154, "the order-2 certificate share of [1e+150, 1e+154] overflows: (dx)^3"),
        ("abs(x)", 1e160, "the order-1 certificate share of [1e+150, 1e+160] overflows: (dx)^2"),
    ])
    def test_a_share_that_overflows_is_a_domain_error(self, fn, b, want):
        with pytest.raises(DomainError) as info:
            adaptive_midpoint(parse(fn), Interval(1e150, b), 1e300)
        assert str(info.value) == want

    @staticmethod
    def _count_evaluations(f, orders):
        calls = dict.fromkeys(orders, 0)
        for order in orders:
            evaluator = f.compiled(order)

            def counted(x, order=order, evaluator=evaluator):
                calls[order] += 1
                return evaluator(x)

            def scan(lo, hi, n, wide, order=order, evaluator=evaluator, **q):  # the guards sample through it
                calls[order] += n + 1
                return evaluator.scan(lo, hi, n, wide, **q)

            counted.scan = scan
            f._evaluators[order] = counted
        return calls

    @pytest.mark.parametrize("fn, b, target, cfg, panels", [
        ("exp(x)", 2.0, 1e-3, ToleranceConfig(), 33),
        ("x^2", 1.0, 1e-5, ToleranceConfig(), 108),
        ("x^2", 1.0, 10.0, ToleranceConfig(), 1),
    ])
    def test_work_per_level(self, fn, b, target, cfg, panels):
        """Second order: one (f, f', f'') jet per grid point over the whole run, N + 1
        after the guard and none of f' alone; T1 reuses the jets' f values and T2
        evaluates f N times.  The certificate is the second-order bound on the final
        partition, recomputed here from the grid points, bit for bit."""
        guard = self._count_evaluations(g := parse(fn), (2,))
        convexity_guard(g, 2, 1.0, cfg=cfg)(extend(Interval(0.0, b)))  # the |f''|^q guard alone
        f = parse(fn)
        calls = self._count_evaluations(f, (0, 1, 2))
        res = adaptive_midpoint(f, Interval(0.0, b), target, 1.0, cfg)
        assert res.order == 2 and res.partition.panel_count == panels
        assert res.certified
        pts = res.partition.points
        jets = [parse(fn).compiled(2)(x) for x in pts]
        g = [abs(jet[2]) for jet in jets]  # |f''|^q at q = 1
        trunc = math.fsum((r - l) ** 3 * (0.5 * (gl + gr)) for l, r, gl, gr in zip(pts, pts[1:], g, g[1:]))
        f0, f1, f2 = (max(abs(jet[k]) for jet in jets) for k in range(3))
        h = max(r - l for l, r in res.partition.panels())
        c = 2.0 * (panels + 8) * 2.0**-53
        assert res.e2_bound == (1.0 + c) * trunc / 24.0 + c * b * (f0 + (b + h) * (f1 + h * f2))
        assert guard[2] > 0
        assert calls[2] - guard[2] == panels + 1
        assert calls[1] == 0
        assert calls[0] == panels
        assert res.t1 == trapezoid_T1(parse(fn), res.partition)

    @pytest.mark.parametrize("fn, b, target, cfg, panels", [
        ("exp(x)+abs(x+9)", 2.0, 1e-3, ToleranceConfig(), 4195),
        ("x^2+abs(x+9)", 1.0, 1e-9, ToleranceConfig(), PANEL_CAP),
        ("x^2+abs(x+9)", 1.0, 10.0, ToleranceConfig(), 1),
    ])
    def test_first_order_work_per_level(self, monkeypatch, fn, b, target, cfg, panels):
        """With abs in f: two f' evaluations per panel evaluated, 2N - 1 panels for N
        final ones, then N + 1 evaluations of f for T1 and N for T2."""
        guard = self._count_evaluations(g := parse(fn), (1,))
        convexity_guard(g, 1, 1.0, cfg=cfg)(extend(Interval(0.0, b)))  # the |f'|^q guard alone
        f = parse(fn)
        calls = self._count_evaluations(f, (0, 1))
        res = adaptive_midpoint(f, Interval(0.0, b), target, 1.0, cfg)
        assert res.order == 1 and res.partition.panel_count == panels
        assert res.certified == (panels < PANEL_CAP)
        assert guard[1] > 0
        assert calls[1] - guard[1] == 2 * (2 * panels - 1)
        assert calls[0] == 2 * panels + 1

    def test_exp_to_1e_8_certifies_in_under_1e5_evaluations(self):
        f = parse("exp(x)")
        calls = self._count_evaluations(f, (0, 1, 2, 3))
        res = adaptive_midpoint(f, Interval(0.0, 2.0), 1e-8)
        assert res.certified and res.order == 2
        assert sum(calls.values()) < 1e5
        assert abs(res.t2 - (math.e**2 - 1.0)) <= res.e2_bound

    def test_affine_certifies_at_one_panel(self):
        # f'' = 0, so only T2's rounding is left in the certificate
        res = adaptive_midpoint(parse("x"), Interval(0.7, 2.1), 1e-6)
        assert res.certified and res.partition.panel_count == 1
        assert 0.0 < res.e2_bound < 1e-12

    def test_abs_kink_falls_back_to_first_order(self):
        res = adaptive_midpoint(parse("abs(x-1.3)"), Interval(1.0, 2.0), 1e-3)
        assert res.certified and res.order == 1
        assert abs(res.t2 - 0.29) <= res.e2_bound

    def test_concave_second_derivative_falls_back_to_first_order(self):
        # f' = 2.5 x^1.5 is convex, f'' = 3.75 x^0.5 is not
        res = adaptive_midpoint(parse("x^2.5"), Interval(1.0, 2.0), 1e-3)
        assert res.certified and res.order == 1
        assert abs(res.t2 - (2.0**3.5 - 1.0) / 3.5) <= res.e2_bound


_PANELLED = parse("exp(x)")  # the function whose panels the partition cases guard


@pytest.mark.parametrize("call, want", [
    # a uniform partition: one scan of the union of the 16 widened panels, 8 steps a panel and 8 more
    (lambda: midpoint_error_bound(_PANELLED, Partition.uniform(Interval(1.0, 2.0), 16), 2.0), [136]),
    (lambda: prop4_check(_PANELLED, Partition.uniform(Interval(1.0, 2.0), 16)), [136]),
    # the |f''|^q guard passes on [a, b], so the |f'|^q guard never runs
    (lambda: adaptive_midpoint(parse("exp(x)"), Interval(0.0, 2.0), 1e-3), [32]),
    # abs refuses the |f''|^q guard before it samples, so only the |f'|^q guard samples
    (lambda: adaptive_midpoint(parse("x^2+abs(x+9)"), Interval(0.0, 1.0), 10.0), [32]),
], ids=["midpoint_error_bound", "prop4_check", "adaptive order 2", "adaptive order 1"])
def test_guard_traffic(scans, call, want):
    """One scan of a uniform partition's union on 8(m + 1) steps, or one guard of a region on a 32-step one."""
    call()
    assert [scan.steps for scan in scans] == want


@pytest.mark.parametrize("call", [
    lambda partition: midpoint_error_bound(_PANELLED, partition, 2.0),
    lambda partition: prop4_check(_PANELLED, partition),
], ids=["midpoint_error_bound", "prop4_check"])
def test_the_partition_guard_scans_each_widened_panel_once(scans, call):
    """A non-uniform partition: one 16-step scan of each panel's widened interval, at that panel's own resolution."""
    partition = Partition((1.0, 1.25, 1.5, 2.0, 3.0))
    call(partition)
    assert [(scan.lo, scan.hi, scan.steps) for scan in scans] == [(*widen(left, right), 16) for left, right in partition.panels()]


@pytest.mark.parametrize("call", [
    lambda partition: midpoint_error_bound(_PANELLED, partition, 2.0),
    lambda partition: prop4_check(_PANELLED, partition),
], ids=["midpoint_error_bound", "prop4_check"])
def test_the_partition_guard_scans_the_union_of_a_uniform_partition_once(scans, call):
    """A uniform partition: one scan from panel 0's lo* to panel m - 1's hi*, 8 steps a panel and 8 more, with the
    stride-8 triples that are each panel's widest."""
    partition = Partition((1.0, 1.25, 1.5, 1.75))
    call(partition)
    assert [widen(left, right) for left, right in partition.panels()] == [(0.875, 1.375), (1.125, 1.625), (1.375, 1.875)]
    assert [(scan.lo, scan.hi, scan.steps, scan.wide) for scan in scans] == [(0.875, 1.875, 32, 8)]


@pytest.mark.parametrize("fn, a, b, target, q, want", [
    ("exp(x)", 0.0, 2.0, 1e-6, 1.0,
     ("0x1.98e653ed83d59p+2", "0x1.98e6475d32e0fp+2", "0x1.0c077acdf6e76p-20", 1034, True, 2)),
    ("exp(x)", 0.0, 2.0, 1e-6, 2.0,
     ("0x1.98e653ed83d59p+2", "0x1.98e6475d32e0fp+2", "0x1.0c078325070eap-20", 1034, True, 2)),
    ("x^2+abs(x+9)", 0.0, 2.0, 1e-3, 1.0,
     ("0x1.6aaaaae200000p+4", "0x1.6aaaaa8f00000p+4", "0x1.0620000000000p-10", 3008, True, 1)),
    ("x", 1.0, 2.0, 1e-20, 1.0,
     ("0x1.8000000000000p+0", "0x1.8000000000000p+0", "0x1.6800000000000p-47", 1, False, 2)),
    ("x", 1.0, 1.0000000000000004, 1e-40, 1.0,
     ("0x1.0000000000001p-51", "0x1.0000000000001p-51", "0x1.2000000000003p-99", 1, False, 2)),
    ("abs(x+9)", 1.0, 1.0000000000000009, 1e-40, 1.0,
     ("0x1.4000000000000p-47", "0x1.4000000000000p-47", "0x1.0000000000000p-103", 2, False, 1)),
    ("exp(x)+abs(x+9)", 0.0, 2.0, 1e-9, 1.0,
     ("0x1.a63992e375a18p+4", "0x1.a63992e34266ap+4", "0x1.0c5f19b5634b1p-14", PANEL_CAP, False, 1)),
], ids=["order 2 q=1", "order 2 q=2", "order 1", "rounding floor", "float resolution", "order 1 float resolution",
        "panel cap"])
def test_adaptive_midpoint_bit_for_bit(fn, a, b, target, q, want):
    """t1, t2 and e2_bound by ``float.hex``, with panels, certified and order, pinned: a change to the
    refinement loop or to how T1 gets its values must reproduce every one."""
    res = adaptive_midpoint(parse(fn), Interval(a, b), target, q)
    got = (res.t1.hex(), res.t2.hex(), res.e2_bound.hex(), res.partition.panel_count, res.certified, res.order)
    assert got == want

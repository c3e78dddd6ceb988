"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import random
import subprocess
import sys
from contextlib import contextmanager

import pytest

from hhaudit.core import Interval, PreconditionError, ToleranceConfig
from hhaudit.exprlang import parse
from hhaudit.hh_bounds import (
    abs_half_check,
    first_order_bounds,
    hh_classic_check,
    k2_derived_constant,
    k2_printed_constant,
    lemma_identity_residual,
    second_order_bounds,
    three_point_check,
)
from hhaudit.means import means_proposition_check
from hhaudit.oracle import integrate_ref
from hhaudit.quadrature import Partition, adaptive_midpoint, midpoint_T2, midpoint_error_bound
from hhaudit.special_fns import (
    bessel_K,
    beta,
    log_gamma,
    normalized_I,
    q_digamma,
    qdigamma_prop_checks,
)
from hhaudit.cli import main as cli_main
from conftest import CONVEX_BATTERY, draw_interval, draw_narrow_interval, normalized_I_identity

EULER_GAMMA = 0.5772156649015329


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"acceptance {num:02d}: FAIL - {text}")
        raise
    print(f"acceptance {num:02d}: PASS - {text}")


def test_criterion_01_classical_two_sided_bound():
    with criterion(1, "classical bound holds on the convex battery; affine gives equality"):
        rng = random.Random(101)
        exprs = [parse(t) for t in CONVEX_BATTERY]
        worst = math.inf
        for _ in range(200):
            iv = draw_interval(rng)
            for expr in exprs:
                lower, upper = hh_classic_check(expr, iv)
                worst = min(worst, lower.margin, upper.margin)
        assert worst >= -1e-12
        affine = parse("x")
        for _ in range(50):
            iv = draw_interval(rng)
            lower, upper = hh_classic_check(affine, iv)
            assert abs(lower.lhs - lower.rhs) <= 1e-12
            assert abs(upper.lhs - upper.rhs) <= 1e-12


def test_criterion_02_lemma_identities():
    with criterion(2, "both integral identities hold to 1e-8 on smooth functions"):
        rng = random.Random(202)
        exprs = [parse(t) for t in ("x^2", "x^3", "exp(x)")]
        for _ in range(50):
            iv = draw_interval(rng)
            for expr in exprs:
                assert lemma_identity_residual("lemma1", expr, iv) <= 1e-8
                assert lemma_identity_residual("lemma2", expr, iv) <= 1e-8


def test_criterion_03_three_point_bound():
    with criterion(3, "three-point bound holds on the battery; closed form on [0, 2]"):
        rng = random.Random(303)
        exprs = [parse(t) for t in CONVEX_BATTERY]
        for _ in range(200):
            iv = draw_interval(rng)
            for expr in exprs:
                lower, upper = three_point_check(expr, iv)
                assert lower.satisfied and upper.satisfied
        lower, upper = three_point_check(parse("x^2"), Interval(0.0, 2.0))
        assert abs(lower.lhs - 1.0) <= 1e-12
        assert abs(lower.rhs - 4.0 / 3.0) <= 1e-12
        assert abs(upper.rhs - 3.0) <= 1e-12


def test_criterion_04_half_value_fragility_reproduced(capsys):
    with criterion(4, "half-value bound is violated by a vertical shift, exit code 1"):
        shifted = abs_half_check(parse("x^2-5"), Interval(0.0, 2.0))
        assert abs(shifted.lhs - 5.0 / 3.0) <= 1e-12
        assert shifted.rhs == 0.0
        assert not shifted.satisfied
        code = cli_main(["verify", "--target", "k2", "--fn", "x^2-5", "--a", "0", "--b", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert len(json.loads(out)["findings"]) == 1
        code = cli_main(["verify", "--target", "k2", "--fn", "x^2", "--a", "0", "--b", "2"])
        capsys.readouterr()
        assert code == 0


def _derivative_bound_tally(seed: int):
    rng = random.Random(seed)
    tally = {}
    findings = []
    for fn_text in CONVEX_BATTERY:
        expr = parse(fn_text)
        for q in (1.0, 1.5, 2.0, 3.0):
            for trial in range(100):
                iv = draw_interval(rng)
                fb = first_order_bounds(expr, iv, q)
                first_pairs = [("thm2", fb.lhs, fb.rhs_thm2)]
                if q > 1.0:
                    first_pairs.append(("thm3", fb.lhs, fb.rhs_thm3))
                sb = second_order_bounds(expr, iv, q)
                second_pairs = [("thm4", sb.lhs, sb.rhs_k3), ("thm7", sb.lhs, sb.rhs_k6)]
                if q > 1.0:
                    second_pairs.append(("thm5", sb.lhs, sb.rhs_k4))
                    second_pairs.append(("thm6", sb.lhs, sb.rhs_k5))
                for name, lhs, rhs in first_pairs + second_pairs:
                    key = (name, "pass" if lhs <= rhs + 1e-12 else "fail")
                    tally[key] = tally.get(key, 0) + 1
                    if key[1] == "fail":
                        findings.append(
                            {"theorem": name, "fn": fn_text, "a": iv.a, "b": iv.b, "q": q,
                             "trial": trial, "lhs": lhs, "rhs": rhs}
                        )
    return tally, findings


def test_criterion_05_derivative_bound_tally(tmp_path):
    with criterion(5, "derivative-bound audit is complete and deterministic; violations persisted"):
        tally, findings = _derivative_bound_tally(505)
        tally2, findings2 = _derivative_bound_tally(505)
        assert tally == tally2 and findings == findings2
        per_theorem = {}
        for (name, verdict), count in tally.items():
            per_theorem[name] = per_theorem.get(name, 0) + count
        # every instance is tallied: 4 fns x 100 trials x {4 q for the
        # power-mean forms, 3 q for the Hoelder-only forms}
        assert per_theorem["thm2"] == per_theorem["thm4"] == per_theorem["thm7"] == 1600
        assert per_theorem["thm3"] == per_theorem["thm5"] == per_theorem["thm6"] == 1200
        out = tmp_path / "derivative_bound_findings.json"
        out.write_text(json.dumps({"tally": {f"{k[0]}.{k[1]}": v for k, v in tally.items()},
                                   "findings": findings}, indent=2, sort_keys=True))
        print(f"  tally: { {f'{k[0]}.{k[1]}': v for k, v in sorted(tally.items())} }")
        print(f"  findings: {len(findings)} persisted to {out}")


def test_criterion_06_corollary_constant_audit():
    with criterion(6, "derived combined constant is tighter and reproduces the Hoelder bound"):
        expr = parse("exp(x)")
        iv = Interval(0.0, 1.0)
        for i in range(100):
            q = 1.0 + 9.0 * (i + 1) / 100.0
            k2d, k2p = k2_derived_constant(q), k2_printed_constant(q)
            assert k2d <= k2p + 1e-15
            fb = first_order_bounds(expr, iv, q)
            s_root = (math.exp(-0.5 * q) + math.exp(1.5 * q)) ** (1.0 / q)
            assert math.isclose(fb.rhs_thm3, k2d * iv.width * s_root, rel_tol=1e-12)


def test_criterion_07_quadrature_certificates():
    with criterion(7, "midpoint certificates dominate the true error; adaptive run certifies 1e-4"):
        bound = midpoint_error_bound(parse("x^2"), Partition((0.0, 0.5, 1.0)), 1.0)
        assert abs(bound - 5.0 / 32.0) <= 1e-12
        true_err = abs(1.0 / 3.0 - midpoint_T2(parse("x^2"), Partition((0.0, 0.5, 1.0))))
        assert abs(true_err - 1.0 / 48.0) <= 1e-12
        assert true_err <= bound
        res = adaptive_midpoint(parse("exp(x)"), Interval(0.0, 2.0), 1e-4, 1.0)
        assert res.certified
        assert res.e2_bound <= 1e-4
        assert abs(res.t2 - (math.e**2 - 1.0)) <= res.e2_bound


def test_criterion_08_means_propositions(capsys):
    with criterion(8, "means propositions agree with the direct bound path; domain guard exits 2"):
        cases = [("P1", "x^2", {"n": 2}), ("P1", "x^3", {"n": 3}), ("P1", "x^-2", {"n": -2}),
                 ("P2", "1/x^2", {}), ("P3", "1/x", {})]
        rng = random.Random(808)
        for i in range(50):
            prop, fn_text, extra = cases[i % len(cases)]
            expr = parse(fn_text)
            iv = draw_narrow_interval(rng)
            q = (1.0, 1.5, 2.0, 3.0)[i % 4]
            first, second = means_proposition_check(prop, iv.a, iv.b, q=q, **extra)
            fb = first_order_bounds(expr, iv, q)
            assert math.isclose(second.lhs, fb.lhs, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(second.rhs, fb.rhs_min, rel_tol=1e-12, abs_tol=1e-12)
            direct = abs_half_check(expr, iv)
            assert math.isclose(first.lhs, 2.0 * direct.lhs, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(first.rhs, 2.0 * direct.rhs, rel_tol=1e-12, abs_tol=1e-12)
        code = cli_main(["verify", "--target", "prop2", "--a", "1", "--b", "4"])
        capsys.readouterr()
        assert code == 2


def test_criterion_09_special_functions():
    with criterion(9, "Bessel closed forms, Beta identities, and the derivative identity hold"):
        for x in (0.1, 1.0, 5.0):
            assert math.isclose(normalized_I(0.5, x), math.sinh(x) / x, rel_tol=1e-10)
            assert math.isclose(normalized_I(-0.5, x), math.cosh(x), rel_tol=1e-10)
        for x in (0.5, 1.0, 3.0):
            closed = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
            assert math.isclose(bessel_K(0.5, x).value, closed, rel_tol=1e-8)
        rng = random.Random(909)
        for _ in range(100):
            x, y = rng.uniform(1e-9, 10.0), rng.uniform(1e-9, 10.0)
            quotient = math.exp(log_gamma(x) + log_gamma(y) - log_gamma(x + y))
            assert math.isclose(beta(x, y), quotient, rel_tol=1e-12)
        for p in (0.5, 1.0, 2.0, 3.5):
            lhs = beta(p + 1.0, p + 1.0)
            rhs = 2.0 ** (1.0 - 2.0 * (p + 1.0)) * math.sqrt(math.pi) * math.exp(
                log_gamma(p + 1.0) - log_gamma(p + 1.5)
            )
            assert math.isclose(lhs, rhs, rel_tol=1e-12)
        for p in (-0.5, 0.5, 1.0, 2.5):
            for x in (0.5, 1.0, 2.0, 3.5, 5.0):
                gap, allowed = normalized_I_identity(p, x)
                assert gap <= allowed, (p, x)


def test_criterion_10_q_digamma():
    with criterion(10, "q-digamma matches the classical limit; slope bounds satisfied"):
        cfg = ToleranceConfig(max_series_terms=500_000)
        classical = {1.0: -EULER_GAMMA, 2.0: 1.0 - EULER_GAMMA,
                     5.0: 1.0 + 1.0 / 2.0 + 1.0 / 3.0 + 1.0 / 4.0 - EULER_GAMMA}
        for x, psi in classical.items():
            assert abs(q_digamma(0.999, x, cfg).value - psi) <= 5e-3
        for q, a, b in ((0.5, 1.0, 2.0), (2.0, 2.0, 3.0), (0.3, 3.0, 4.0)):
            slope_report, refine_report = qdigamma_prop_checks(q, a, b)
            assert slope_report.satisfied and refine_report.satisfied


def test_criterion_11_cli_determinism():
    with criterion(11, "fixed command and seed give byte-identical reports"):
        cmd = [sys.executable, "-m", "hhaudit", "verify", "--target", "all",
               "--fn", "exp(x)", "--trials", "100", "--seed", "7"]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty document

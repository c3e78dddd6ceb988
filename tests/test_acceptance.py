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

from hhaudit.core import Interval, ToleranceConfig
from hhaudit.exprlang import parse
from hhaudit.hh_bounds import Instance, _gamma_ratio_power, k2_derived_constant, k2_printed_constant
from hhaudit.means import means_proposition_check
from hhaudit.quadrature import Partition, adaptive_midpoint, midpoint_T2, midpoint_error_bound
from hhaudit.special_fns import (
    bessel_K,
    normalized_I_series,
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
                lower, upper = Instance(expr, iv).classic()
                worst = min(worst, lower.margin, upper.margin)
        assert worst >= -1e-12
        affine = parse("x")
        for _ in range(50):
            iv = draw_interval(rng)
            lower, upper = Instance(affine, iv).classic()
            assert abs(lower.lhs - lower.rhs) <= 1e-12
            assert abs(upper.lhs - upper.rhs) <= 1e-12


def test_criterion_02_lemma_identities():
    with criterion(2, "both integral identities hold to 1e-8 on smooth functions"):
        rng = random.Random(202)
        exprs = [parse(t) for t in ("x^2", "x^3", "exp(x)")]
        for _ in range(50):
            iv = draw_interval(rng)
            for expr in exprs:
                inst = Instance(expr, iv)
                assert inst.lemma_residual("lemma1") <= 1e-8
                assert inst.lemma_residual("lemma2") <= 1e-8


def test_criterion_03_three_point_bound():
    with criterion(3, "three-point bound holds on the battery; closed form on [0, 2]"):
        rng = random.Random(303)
        exprs = [parse(t) for t in CONVEX_BATTERY]
        for _ in range(200):
            iv = draw_interval(rng)
            for expr in exprs:
                lower, upper = Instance(expr, iv).three_point()
                assert lower.satisfied and upper.satisfied
        lower, upper = Instance(parse("x^2"), Interval(0.0, 2.0)).three_point()
        assert abs(lower.lhs - 1.0) <= 1e-12
        assert abs(lower.rhs - 4.0 / 3.0) <= 1e-12
        assert abs(upper.rhs - 3.0) <= 1e-12


def test_criterion_04_half_value_fragility_reproduced(capsys):
    with criterion(4, "half-value bound is violated by a vertical shift, exit code 1"):
        shifted = Instance(parse("x^2-5"), Interval(0.0, 2.0)).abs_half()
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
                inst = Instance(expr, iv, q)
                pairs = []
                # thm3, thm5 and thm6 have a right side at q > 1 only
                for (lhs, rhs), names in ((inst.first_order(), ("thm2", "thm3")),
                                          (inst.second_order(), ("thm4", "thm7", "thm5", "thm6"))):
                    pairs += [(name, lhs, rhs[name]) for name in names if name in rhs]
                for name, lhs, rhs in pairs:
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
            _, rhs = Instance(expr, iv, q).first_order()
            s_root = (math.exp(-0.5 * q) + math.exp(1.5 * q)) ** (1.0 / q)
            assert math.isclose(rhs["thm3"], k2d * iv.width * s_root, rel_tol=1e-12)


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
            lhs, rhs = Instance(expr, iv, q).first_order()
            assert math.isclose(second.lhs, lhs, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(second.rhs, min(rhs["thm2"], rhs.get("thm3", math.inf)), rel_tol=1e-12, abs_tol=1e-12)
            direct = Instance(expr, iv).abs_half()
            assert math.isclose(first.lhs, 2.0 * direct.lhs, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(first.rhs, 2.0 * direct.rhs, rel_tol=1e-12, abs_tol=1e-12)
        code = cli_main(["verify", "--target", "prop2", "--a", "1", "--b", "4"])
        capsys.readouterr()
        assert code == 2


def test_criterion_09_special_functions():
    with criterion(9, "Bessel closed forms, the Beta identity of K4, and the derivative identity hold"):
        for x in (0.1, 1.0, 5.0):
            assert math.isclose(normalized_I_series(0.5, x).value, math.sinh(x) / x, rel_tol=1e-10)
            assert math.isclose(normalized_I_series(-0.5, x).value, math.cosh(x), rel_tol=1e-10)
        for x in (0.5, 1.0, 3.0):
            closed = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
            assert math.isclose(bessel_K(0.5, x).value, closed, rel_tol=1e-8)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.mp.workdps(40):
            for p in (0.5, 1.0, 2.0, 3.5):  # thm5's constant: 4^p B(p+1, p+1)
                exact = 4 ** mpmath.mpf(p) * mpmath.beta(p + 1.0, p + 1.0)
                assert math.isclose(_gamma_ratio_power(p) ** p, float(exact), rel_tol=1e-12)
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

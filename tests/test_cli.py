import json
import os
import subprocess
import sys

import pytest

from hhaudit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_satisfied_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--target", "k1", "--fn", "x^2", "--a", "0", "--b", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"] == {"checked": 2, "satisfied": 2, "violated": 0, "guarded_out": 0}

    def test_violation_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--target", "k2", "--fn", "x^2-5", "--a", "0", "--b", "2")
        assert code == 1
        doc = json.loads(out)
        assert doc["counts"]["violated"] == 1
        assert len(doc["findings"]) == 1
        assert doc["findings"][0]["fragile"] is True

    def test_domain_guard_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--target", "prop2", "--a", "1", "--b", "4")
        assert code == 2
        assert "3a - b" in err

    def test_unparseable_fn_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--target", "k1", "--fn", "x^^2", "--a", "0", "--b", "1")
        assert code == 2
        assert "offset 2" in err

    def test_unknown_target_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--target", "nonsense", "--fn", "x", "--a", "0", "--b", "1")
        assert code == 2

    def test_missing_fn_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--target", "eq1", "--a", "0", "--b", "1")
        assert code == 2
        assert "--fn" in err

    def test_half_interval_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--target", "k1", "--fn", "x^2", "--a", "0")
        assert code == 2

    @pytest.mark.parametrize("panels", ["0", "65537", "3000000"])
    def test_panels_outside_the_cap_exit_two(self, capsys, panels):
        # a partition beyond integrate's 65,536-panel cap once ran for minutes
        code, out, err = run_cli(capsys, "verify", "--target", "prop5", "--fn", "x^2", "--a", "1", "--b", "2",
                                 "--panels", panels)
        assert (code, out) == (2, "")
        assert err == f"error: need 1 to 65536 panels, got m = {panels}\n"

    def test_overflowing_mean_integral_exits_two(self, capsys):
        # lemma1 has no guard, so the reference integrator meets the overflow first
        code, out, err = run_cli(capsys, "verify", "--target", "lemma1", "--fn", "x^2", "--a", "1e200", "--b", "2e200")
        assert (code, out) == (2, "")
        assert "not finite on the panel [1e+200, 2e+200]" in err

    def test_overflowing_guard_gap_exits_two(self, capsys):
        # x^2 is inf on the whole interval, so every gap of eq1's guard is inf - inf
        code, out, err = run_cli(capsys, "verify", "--target", "eq1", "--fn", "x^2", "--a", "1e200", "--b", "2e200")
        assert (code, out) == (2, "")
        assert err == "error: f: convexity gap undefined (inf - inf) at the midpoint x = 1.03125e+200\n"

    @pytest.mark.parametrize("argv", [
        # x^3 is concave left of 0; |f'|^2 = (3x^2 - 1)^2 is not convex on the widened [0.205, 1.305]
        ("--target", "eq1", "--fn", "x^3", "--a=-0.42", "--b=2.02"),
        ("--target", "thm2", "--fn", "x^3-x", "--a=0.48", "--b=1.03", "--q", "2"),
    ], ids=["eq1 x^3", "thm2 x^3-x"])
    def test_a_grid_guard_refutes_what_the_pairs_missed(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "is not midpoint-convex" in err

    def test_derivative_guard_domain_error_names_its_hypothesis(self, capsys):
        # thm2's |f'|^q guard probes the widened interval [0, 2], where log is undefined
        code, out, err = run_cli(capsys, "verify", "--target", "thm2", "--fn", "log(x)", "--a", "0.5", "--b", "1.5",
                                 "--q", "2")
        assert (code, out) == (2, "")
        assert err == "error: |f'|^q (q = 2.0): log of nonpositive argument at x = 0.0 (arg = 0.0)\n"

    def test_overflowing_guard_average_names_the_guard(self, capsys):
        # f(x) + f(y) overflows for this concave f; the average of halves does not
        code, out, err = run_cli(capsys, "verify", "--target", "k1", "--fn", "1.7e308 - 1e300*x^2", "--a", "1", "--b", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: f is not midpoint-convex on [0.5, 2.5] (worst gap ")

    def test_overflowing_mean_integral_guards_out_every_target_of_all(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--target", "all", "--fn", "x^2", "--a", "1e200", "--b", "2e200")
        assert code == 0
        assert json.loads(out)["counts"] == {"checked": 13, "satisfied": 0, "violated": 0, "guarded_out": 13}

    def test_overflowing_widened_interval_guards_out_every_target_of_all(self, capsys):
        # b is finite but (3b - a)/2 is not
        code, out, _ = run_cli(capsys, "verify", "--target", "all", "--fn", "x^2", "--a=1e307", "--b=1.2e308")
        assert code == 0
        assert json.loads(out)["counts"] == {"checked": 13, "satisfied": 0, "violated": 0, "guarded_out": 13}

    @pytest.mark.parametrize("fn", ["x^2", "1"])
    def test_overflowing_widened_interval_exits_two(self, capsys, fn):
        # a constant once passed, checked at an infinite end instead of (3b - a)/2
        code, out, err = run_cli(capsys, "verify", "--target", "k1", "--fn", fn, "--a=1e307", "--b=1.2e308")
        assert (code, out) == (2, "")
        assert err.startswith("error: widened interval of [1e+307, 1.2e+308] overflows: (")

    def test_overflowing_midpoint_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--target", "prop6", "--a", "1e308", "--b", "1.5e308")
        assert (code, out) == (2, "")
        assert err == "error: extended interval needs lo < mid < hi, got (inf, inf, inf)\n"

    @pytest.mark.parametrize("argv", [
        ("--target", "prop1", "--n", "400", "--trials", "100"),
        ("--target", "prop7", "--p", "400", "--trials", "20"),
    ], ids=["prop1", "prop7"])
    def test_random_mode_counts_an_overflowing_closed_form_as_guarded_out(self, capsys, argv):
        code, out, _ = run_cli(capsys, "verify", *argv, "--seed", "1")
        assert code == 0
        assert json.loads(out)["counts"]["guarded_out"] > 0

    def test_prop3_power_mean_at_a_huge_exponent_neither_overflows_nor_underflows(self, capsys):
        # lo^(-2q) once underflowed to a right side of 0 (14 findings) or overflowed (6 guarded out)
        code, out, _ = run_cli(capsys, "verify", "--target", "prop3", "--q", "1e6", "--trials", "20", "--seed", "1")
        doc = json.loads(out)
        assert (code, doc["findings"]) == (0, [])
        assert doc["counts"] == {"checked": 40, "satisfied": 40, "violated": 0, "guarded_out": 0}

    @pytest.mark.parametrize("target, extra", [("thm2", ()), ("prop5", ("--panels", "4"))])
    def test_derivative_bound_at_a_huge_exponent_keeps_its_right_side(self, capsys, target, extra):
        # |f'|^q at q = 2000 once underflowed, so the right side read 0 and the bound a finding
        code, out, _ = run_cli(capsys, "verify", "--target", target, "--fn", "0.5*x^2", "--a", "0.1", "--b", "0.3",
                               "--q", "2000", *extra)
        (report,) = json.loads(out)["reports"]
        assert code == 0
        assert 0.0 < report["lhs"] < report["rhs"]

    def test_undefined_side_is_a_domain_error(self, capsys):
        # the right side's (b - a)^2 overflows against a zero integral of f'', so the residual is NaN
        code, out, err = run_cli(capsys, "verify", "--target", "lemma1", "--fn", "1", "--a", "5e307", "--b", "1.2e308")
        assert (code, out) == (2, "")
        assert err.startswith("error: lemma1: a side is undefined (lhs nan")

    def test_undefined_side_is_guarded_out_in_all(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--target", "all", "--fn", "1", "--a", "5e307", "--b", "1.2e308")
        assert code == 0
        assert json.loads(out)["counts"] == {"checked": 14, "satisfied": 3, "violated": 0, "guarded_out": 11}

    def test_fixed_overflowing_closed_form_names_the_target(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--target", "prop1", "--n", "400", "--a", "1", "--b", "7")
        assert (code, out) == (2, "")
        assert err == "error: prop1: a value overflowed ((34, 'Numerical result out of range'))\n"

    @pytest.mark.parametrize("fn, message", [("(" * 201 + "x" + ")" * 201, "too many nested parentheses (offset 200)"),
                                             ("+".join(["x"] * 340), "expression nested deeper than 100 levels (offset 0)")],
                             ids=["parentheses", "sum"])
    def test_too_deep_fn_exits_two(self, capsys, fn, message):
        # Python's parser refuses more than 200 nested parentheses; a long sum would overflow the stack of repr
        # and the emitter
        code, out, err = run_cli(capsys, "verify", "--target", "eq1", "--fn", fn, "--a", "1", "--b", "2")
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_a_number_that_is_not_finite_exits_two_at_parse(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--target", "thm2", "--fn", "1e999*x", "--a", "1", "--b", "2",
                                 "--q", "2")
        assert (code, out) == (2, "")
        assert err == "error: number '1e999' is not finite (offset 0)\n"

    def test_integrate_guard_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "--fn", "log(x-0.5)", "--a", "0.1", "--b", "1", "--err", "1e-4")
        assert code == 2
        assert "log" in err

    @pytest.mark.parametrize("fn, b, want", [
        ("x^2", "1e154", "the order-2 certificate share of [1e+150, 1e+154] overflows: (dx)^3"),
        ("abs(x)", "1e160", "the order-1 certificate share of [1e+150, 1e+160] overflows: (dx)^2"),
    ])
    def test_integrate_share_overflow_exits_two(self, capsys, fn, b, want):
        code, out, err = run_cli(capsys, "integrate", "--fn", fn, "--a", "1e150", "--b", b, "--err", "1e300")
        assert (code, out) == (2, "")
        assert err == f"error: {want}\n"


class TestVerify:
    def test_single_instance_reports(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--target", "thm2", "--fn", "x^2", "--a", "0", "--b", "1")
        assert code == 0
        doc = json.loads(out)
        (report,) = doc["reports"]
        assert abs(report["lhs"] - 1.0 / 12.0) <= 1e-12
        assert abs(report["rhs"] - 0.5) <= 1e-12

    def test_thm3_needs_q_above_one(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--target", "thm3", "--fn", "x^2", "--a", "0", "--b", "1")
        assert code == 2
        assert "q > 1" in err

    def test_all_target_single_instance_guards_hoelder_forms(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--target", "all", "--fn", "exp(x)", "--a", "0", "--b", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"]["guarded_out"] == 4  # thm3, thm5, thm6, cor1 at q = 1
        c = doc["counts"]
        assert c["checked"] == c["satisfied"] + c["violated"] + c["guarded_out"]

    def test_random_mode_deterministic(self, capsys):
        args = ("verify", "--target", "eq1", "--fn", "cosh(x)", "--trials", "20", "--seed", "11")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_different_seeds_differ(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--target", "eq1", "--fn", "x^2", "--trials", "5", "--seed", "1")
        _, out2, _ = run_cli(capsys, "verify", "--target", "eq1", "--fn", "x^2", "--trials", "5", "--seed", "2")
        assert out1 != out2

    def test_computed_exponent_with_overflowing_derivatives(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--target", "eq1", "--fn", "x^log(1e200)", "--a", "1", "--b", "2")
        assert code == 0
        assert json.loads(out)["counts"]["satisfied"] == 2

    def test_random_mode_redraws_where_f_overflows(self, capsys):
        # x^600.5 overflows for x above about 3.26; such a draw used to end the run with exit 2
        code, out, _ = run_cli(capsys, "verify", "--target", "eq1", "--fn", "x^600.5", "--trials", "3", "--seed", "1")
        assert code == 0
        assert json.loads(out)["counts"] == {"checked": 6, "satisfied": 6, "violated": 0, "guarded_out": 0}

    def test_random_mode_redraws_where_f_is_nan(self, capsys):
        # inf - inf from x >= 1.8 on: such a draw was taken, then guarded out on every target
        code, out, _ = run_cli(capsys, "verify", "--target", "eq1", "--fn", "1e308*x-1e308*x",
                               "--trials", "3", "--seed", "1")
        doc = json.loads(out)
        assert code == 0
        assert doc["counts"] == {"checked": 6, "satisfied": 6, "violated": 0, "guarded_out": 0}
        assert all(r["inputs"]["b"] < 1.8 for r in doc["reports"])

    def test_trial_index_recorded(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--target", "k1", "--fn", "x^2", "--trials", "3", "--seed", "0")
        doc = json.loads(out)
        trials = {r["inputs"]["trial"] for r in doc["reports"]}
        assert trials == {0, 1, 2}

    def test_prop_targets(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--target", "prop1", "--a", "1", "--b", "2", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        labels = [r["label"] for r in doc["reports"]]
        assert labels == ["p1.display1", "p1.display2"]

    def test_prop6_and_prop8(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--target", "prop6", "--p", "0.5", "--a", "1", "--b", "2")
        assert code == 0
        assert {r["label"] for r in json.loads(out)["reports"]} == {"prop6.i1", "prop6.i11"}
        code, out, _ = run_cli(capsys, "verify", "--target", "prop8", "--qbase", "0.5", "--a", "1", "--b", "2")
        assert code == 0

    def test_prop7_precondition(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--target", "prop7", "--p", "0.5", "--a", "1", "--b", "1.5")
        assert code == 2
        assert "p > 1" in err

    def test_random_prop7_guards_out_only_the_interval_outside_its_hypothesis(self, capsys):
        # trial 36 draws [0.6957..., 2.1321...], where 3a > b fails; every K_p(x) of the others evaluates
        code, out, _ = run_cli(capsys, "verify", "--target", "prop7", "--p", "2", "--trials", "40", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"]["checked"] == 40 and doc["counts"]["guarded_out"] == 1
        assert 36 not in {r["inputs"]["trial"] for r in doc["reports"]}

    def test_fixed_prop7_with_a_large_second_kind_value_exits_zero(self, capsys):
        # trial 10's interval: K_3(0.0502) = 6.3e4 is within its relative target
        code, out, err = run_cli(capsys, "verify", "--target", "prop7", "--p", "2",
                                 "--a", "0.6145063744705737", "--b", "1.7431900727782172")
        assert (code, err) == (0, "")
        assert json.loads(out)["counts"]["satisfied"] == 1

    def test_second_order_target_on_an_abs_kink_exits_two(self, capsys):
        # f'' = 0 off the kink samples as convex; unguarded, thm4 compares lhs 0.31 with rhs 0
        code, out, err = run_cli(capsys, "verify", "--target", "thm4", "--fn", "abs(x-1.3)", "--a", "1", "--b", "2")
        assert (code, out) == (2, "")
        assert err == "error: |f''|^q (q = 1.0) bounds need f twice differentiable, and f contains abs\n"

    def test_classic_bound_of_abs_with_its_kink_at_the_midpoint(self, capsys):
        # eq1's guard samples f at the midpoint 1.0, where abs has a value but no derivative
        code, out, _ = run_cli(capsys, "verify", "--target", "eq1", "--fn", "abs(x-1)", "--a", "0.5", "--b", "1.5")
        assert code == 0
        doc = json.loads(out)
        assert [(r["label"], r["lhs"], r["rhs"], r["satisfied"]) for r in doc["reports"]] == [
            ("eq1.lower", 0.0, 0.25, True), ("eq1.upper", 0.25, 0.5, True)]

    def test_all_guards_out_the_second_order_targets_of_an_abs_kink(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--target", "all", "--fn", "abs(x-1.3)", "--trials", "5", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"]["guarded_out"] == 5 * 7  # thm4-thm7 and cor2 need f'', thm3 and cor1 q > 1
        assert not {"thm4", "thm5", "thm6", "thm7", "cor2"} & {r["label"] for r in doc["reports"]}

    def test_lemma_targets(self, capsys):
        for target in ("lemma1", "lemma2"):
            code, out, _ = run_cli(capsys, "verify", "--target", target, "--fn", "exp(x)", "--a", "0", "--b", "1")
            assert code == 0
            (report,) = json.loads(out)["reports"]
            assert report["lhs"] <= 1e-8

    def test_pretty_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--target", "k1", "--fn", "x^2", "--a", "0", "--b", "2", "--pretty")
        assert code == 0
        assert "k1.lower" in out and "checked=2" in out


class TestIntegrate:
    def test_certified_value(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--fn", "x^2", "--a", "0", "--b", "1", "--err", "1e-3")
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] is True
        assert doc["certificate"] <= 1e-3
        assert abs(doc["t2"] - 1.0 / 3.0) <= doc["certificate"]

    def test_affine(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--fn", "x", "--a", "0", "--b", "5", "--err", "1e-3")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["t2"] - 12.5) <= 1e-12

    @pytest.mark.parametrize("b, err, panels", [("1.0000000000000004", "1e-40", 1), ("1.0000000000000002", "1e-300", 1)])
    def test_refinement_below_float_resolution_is_uncertified(self, capsys, b, err, panels):
        # f'' = 0: only T2's rounding is left, and no split can shrink it
        code, out, _ = run_cli(capsys, "integrate", "--fn", "x", "--a", "1", "--b", b, "--err", err)
        assert code == 3
        doc = json.loads(out)
        assert doc["certified"] is False
        assert doc["panels"] == panels


class TestSpecial:
    def test_norm_i(self, capsys):
        code, out, _ = run_cli(capsys, "special", "normI", "--p", "0.5", "--x", "1")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value"] - 1.1752011936438014) <= 1e-9

    def test_bessel_k(self, capsys):
        code, out, _ = run_cli(capsys, "special", "besselK", "--p", "0.5", "--x", "1")
        assert code == 0
        assert abs(json.loads(out)["value"] - 0.4610685044478945) <= 1e-8

    def test_qdigamma_derivative(self, capsys):
        code, out, _ = run_cli(capsys, "special", "qdigamma", "--q", "0.5", "--x", "1", "--order", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] > 0
        assert doc["tail_bound"] <= 1e-12

    def test_missing_params(self, capsys):
        code, _, err = run_cli(capsys, "special", "normI", "--x", "1")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (("special", "besselK", "--p", "0", "--x", "1e-310"),
         "tail of the second-kind integral not boundable (p=0.0, x=1e-310)"),
        (("special", "besselK", "--p", "800", "--x", "1"),
         "second-kind Bessel function beyond the float range (p=800.0, x=1.0)"),
        (("verify", "--target", "prop7", "--p", "800", "--a", "1", "--b", "1.5"),
         "second-kind Bessel function beyond the float range (p=800.0, x=1.5)"),
        (("special", "normI", "--p", "inf", "--x", "1"),
         "the first-kind Bessel series needs finite arguments, got p = inf"),
        (("special", "besselI", "--p", "1", "--x", "nan"),
         "the first-kind Bessel series needs finite arguments, got x = nan"),
        (("verify", "--target", "prop6", "--p", "inf", "--a", "1", "--b", "1.5"),
         "the first-kind Bessel series needs finite arguments, got p = inf"),
        (("special", "besselK", "--p", "nan", "--x", "1"), "bessel_K needs finite arguments, got p = nan"),
        (("special", "qdigamma", "--q", "2", "--x", "inf"), "q-digamma needs finite arguments, got x = inf"),
        (("special", "qdigamma", "--q", "nan", "--x", "1"), "q-digamma needs finite arguments, got q = nan"),
    ])
    def test_an_argument_out_of_range_exits_two_naming_it(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


class TestEnvOverride:
    def test_hh_tol_env(self, capsys, monkeypatch):
        # a loose tolerance flips the shifted half-value check back to satisfied
        monkeypatch.setenv("HH_TOL", "10.0")
        code, out, _ = run_cli(capsys, "verify", "--target", "k2", "--fn", "x^2-5", "--a", "0", "--b", "2")
        assert code == 0
        assert json.loads(out)["counts"]["violated"] == 0

    def test_bad_hh_tol(self, capsys, monkeypatch):
        monkeypatch.setenv("HH_TOL", "not-a-number")
        code, out, err = run_cli(capsys, "verify", "--target", "k1", "--fn", "x^2", "--a", "0", "--b", "2")
        assert (code, out, err) == (2, "", "error: HH_TOL must be a number, got 'not-a-number'\n")

    @pytest.mark.parametrize("raw", ["inf", "1e309"])
    def test_infinite_hh_tol_exits_two(self, capsys, monkeypatch, raw):
        # an infinite slack would mark the known k2 finding satisfied
        monkeypatch.setenv("HH_TOL", raw)
        code, out, err = run_cli(capsys, "verify", "--target", "k2", "--fn", "x^2-5", "--a", "0", "--b", "2")
        assert (code, out) == (2, "")
        assert err == "error: tolerances must be finite and positive, got abs_tol=inf, rel_tol=1e-10\n"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hhaudit", "verify", "--target", "k1", "--fn", "x^2", "--a", "0", "--b", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["counts"]["satisfied"] == 2


@pytest.mark.parametrize("argv, read", [
    # 200 trials print about 700 kB, more than a pipe holds: print meets the reader's closed end
    (("verify", "--target", "all", "--fn", "exp(x)+x^4", "--trials", "200", "--seed", "7", "--q", "2"), 10),
    # a short document fits the buffer: the flush after main meets the end closed before the start
    (("special", "besselK", "--p", "0.5", "--x", "1"), 0),
])
def test_a_closed_stdout_exits_two_with_one_error_line(argv, read):
    with subprocess.Popen([sys.executable, "-m", "hhaudit", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.read(read)
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 2
    assert err == "error: stdout was closed before the output was written\n"  # no Traceback


def test_a_closed_stderr_exits_two():
    # the read end is closed before the child starts: main's error line, then entry's, meet the closed pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "hhaudit", "verify", "--target", "eq1", "--fn", "x^^2", "--a", "1",
                               "--b", "2"], stdout=subprocess.PIPE, stderr=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stdout) == (2, b"")


@pytest.mark.parametrize("argv, code", [
    (("verify", "--target", "eq1", "--fn", "x^2", "--a", "-1e-3", "--b", "1"), 0),
    (("verify", "--target", "eq1", "--fn", "-x^2+5", "--a", "1", "--b", "2"), 2),  # concave: one error line
    (("special", "besselK", "--p", "-.5e1", "--x", "2"), 0),
])
def test_a_value_that_starts_with_a_minus_reads_as_its_equals_form(capsys, argv, code):
    # argparse alone takes "-1e-3" or "-x^2+5" after an option for an option, and prints its usage
    i = next(i for i, token in enumerate(argv) if token[:1] == "-" != token[1:2])
    joined = (*argv[: i - 1], f"{argv[i - 1]}={argv[i]}", *argv[i + 1 :])
    got = run_cli(capsys, *argv)
    assert got == run_cli(capsys, *joined)
    assert got[0] == code and len(got[2].splitlines()) == code // 2


@pytest.mark.parametrize("argv", [
    ("verify", "--target", "eq1", "--fn", "x^2", "--a", "1", "--b", "2", "--", "-5"),
    ("special", "normI", "--p", "0.5", "--x", "1", "--", "-5"),
])
def test_a_minus_led_token_after_the_end_of_options_marker_stays_apart(capsys, argv):
    # "--" ends the options and takes no value, so "-5" stays a token of its own
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err.splitlines()[-1]) == (2, "", "hhaudit: error: unrecognized arguments: -- -5")


def test_repeated_calls_in_one_process_match_separate_processes(capsys):
    # the argument parser is built once per process; usage errors must not leave state behind
    calls = [
        ("verify", "--target", "nope", "--fn", "x^2"),
        ("verify", "--target", "k1", "--fn", "x^2", "--a", "0", "--b", "2"),
        ("integrate", "--fn", "x^2", "--a", "0", "--b", "1"),
        ("verify", "--target", "k2", "--fn", "x^2-5", "--a", "0", "--b", "2", "--pretty"),
        ("special", "normI", "--p", "2", "--x", "1"),
        ("verify", "--target", "k1", "--fn", "x^2", "--a", "0", "--b", "2"),
    ]
    in_process = [run_cli(capsys, *argv) for argv in calls]
    for argv, got in zip(calls, in_process):
        alone = subprocess.run([sys.executable, "-m", "hhaudit", *argv], capture_output=True, text=True)
        assert got == (alone.returncode, alone.stdout, alone.stderr), argv
    assert [code for code, _, _ in in_process] == [2, 0, 2, 1, 0, 0]


def test_a_repeated_verify_call_compiles_nothing(capsys, monkeypatch):
    # every evaluator of a function already seen in this process comes from the cache
    from hhaudit import exprlang

    sources = []

    def counting_compile(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(exprlang, "compile", counting_compile, raising=False)
    exprlang._CACHE.clear()
    argv = ("verify", "--target", "all", "--fn", "exp(x)+x^4", "--trials", "3", "--seed", "5", "--q", "2")
    first = run_cli(capsys, *argv)
    assert len(sources) == 3  # f, (f, f') and (f, f', f'')
    assert run_cli(capsys, *argv) == first
    assert len(sources) == 3


def _strict(token):
    raise ValueError(f"{token} is not JSON (RFC 8259)")


def _run(argv, fresh, capsys):
    """(exit code, stdout, stderr) of ``hhaudit *argv``: in a fresh ``python -m hhaudit`` process, or through main."""
    if fresh:
        proc = subprocess.run([sys.executable, "-m", "hhaudit", *argv], capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr
    return run_cli(capsys, *argv)


# each subcommand runs one case as `python -m hhaudit` (the last field), the others in-process
CANONICAL_JSON = [
    # verify has k2 findings, so it exits 1
    (("verify", "--target", "all", "--fn", "x^2-5", "--trials", "50", "--seed", "7"), 1, False),
    # integrate covers both certificate orders, and at 1e-12 the uncertified exit 3
    (("integrate", "--fn", "exp(x)", "--a", "0", "--b", "2", "--err", "1e-6"), 0, True),
    (("integrate", "--fn", "x^2+abs(x+9)", "--a", "0", "--b", "2", "--err", "1e-3"), 0, False),
    # a second-order guard of [a, b] whose widened hull leaves sqrt's domain
    (("integrate", "--fn", "sqrt(x)", "--a", "0.5", "--b", "2", "--err", "1e-8"), 0, False),
    (("integrate", "--fn", "exp(x)", "--a", "0", "--b", "2", "--err", "1e-12"), 3, False),
    # an interval too narrow to widen: one uncertified second-order panel
    (("integrate", "--fn", "x", "--a", "1.0000000000000002", "--b", "1.0000000000000004", "--err", "1e-40"), 3, False),
    # besselK at a large value (p = 10, x = 0.01) and a small one (p = 7, x = 300), the q-digamma on both sides of q = 1
    (("special", "besselK", "--p", "0.5", "--x", "1"), 0, True),
    (("special", "besselK", "--p", "10", "--x", "0.01"), 0, False),
    (("special", "besselK", "--p", "7", "--x", "300"), 0, False),
    (("special", "qdigamma", "--q", "0.5", "--x", "2", "--order", "3"), 0, False),
    (("special", "qdigamma", "--q", "2", "--x", "2"), 0, False),
    # prop3 a means display pair, prop4 and prop5 the partition guard (prop4 also at the 65,536-panel cap, one union
    # scan of 524,296 steps), and prop7 over 20 random intervals the five bessel_K calls of each
    (("verify", "--target", "prop3", "--a", "1", "--b", "2"), 0, False),
    (("verify", "--target", "prop4", "--fn", "x^4", "--a", "1", "--b", "2", "--panels", "16"), 0, False),
    (("verify", "--target", "prop4", "--fn", "x^4", "--a", "1", "--b", "2", "--panels", "65536"), 0, False),
    (("verify", "--target", "prop5", "--fn", "exp(x)", "--trials", "20", "--seed", "3", "--panels", "16"), 0, False),
    (("verify", "--target", "prop7", "--trials", "20", "--seed", "1"), 0, False),
]


@pytest.mark.parametrize("argv, code, fresh", CANONICAL_JSON, ids=[" ".join(argv) for argv, _, _ in CANONICAL_JSON])
def test_stdout_is_canonical_compact_json(capsys, monkeypatch, argv, code, fresh):
    # sorted keys, no spaces, and no NaN or Infinity token
    monkeypatch.delenv("HH_TOL", raising=False)
    got, out, _ = _run(argv, fresh, capsys)
    assert got == code
    assert out == json.dumps(json.loads(out, parse_constant=_strict), sort_keys=True) + "\n"


ONE_ERROR_LINE = [
    # a malformed --fn, and a concave one that starts with a minus, given as a separate token
    (("--target", "eq1", "--fn", "x^^2", "--a", "1", "--b", "2"), "error: ", False),
    (("--target", "eq1", "--fn", "-x^2+5", "--a", "1", "--b", "2"), "error: ", False),
    # a 60,000-term sum fits in one 128 KiB argument and reaches Python's parser, whose depth handling differs
    # between 3.10 and 3.11, so it runs in a fresh process
    (("--target", "eq1", "--fn", "x" + "+x" * 59999, "--a", "1", "--b", "2"), "error: ", True),
    # convexity hypotheses that the guard's grid refutes: x^3 across 0 for eq1, the |f'|^2 of x^3-x for thm2
    (("--target", "eq1", "--fn", "x^3", "--a=-0.42", "--b=2.02"), "error: ", False),
    (("--target", "thm2", "--fn", "x^3-x", "--a=0.48", "--b=1.03", "--q", "2"), "error: ", False),
    # the same two refuted by the partition guard's union scan, whose line names the subinterval
    (("--target", "prop4", "--fn", "x^3", "--a=-1", "--b=1", "--panels", "4"), "error: subinterval 0 ", False),
    (("--target", "prop5", "--fn", "x^3-x", "--a=0.2", "--b=1.2", "--panels", "4", "--q", "2"),
     "error: subinterval 0 ", False),
]


@pytest.mark.parametrize("argv, start, fresh", ONE_ERROR_LINE,
                         ids=[" ".join(argv)[:40] for argv, _, _ in ONE_ERROR_LINE])
def test_a_refused_verify_prints_one_error_line_and_nothing_on_stdout(capsys, monkeypatch, argv, start, fresh):
    monkeypatch.delenv("HH_TOL", raising=False)
    code, out, err = _run(("verify", *argv), fresh, capsys)
    lines = err.splitlines()
    assert (code, out, len(lines)) == (2, "", 1)
    assert lines[0].startswith(start)

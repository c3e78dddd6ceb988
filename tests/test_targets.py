"""The verify target table: each target computes only the reports it prints,
and the propositions check their own hypotheses before evaluating anything."""

import json
import re

import pytest

from hhaudit import cli, special_fns
from hhaudit.core import Interval, PreconditionError
from hhaudit.exprlang import parse
from hhaudit.hh_bounds import TARGETS
from hhaudit.oracle import integrate_ref
from hhaudit.quadrature import Partition, midpoint_T2, midpoint_error_bound, prop5_check

PROP6_LABELS = ["prop6.i1", "prop6.i11"]
BESSEL_EVALUATORS = ("bessel_I", "bessel_K", "normalized_I_series", "_normalized_series")


@pytest.fixture
def bessel_calls(monkeypatch):
    """Count each call of a Bessel evaluator through its special_fns binding."""
    counts = dict.fromkeys(BESSEL_EVALUATORS, 0)

    def wrap(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in BESSEL_EVALUATORS:
        monkeypatch.setattr(special_fns, name, wrap(name, getattr(special_fns, name)))
    return counts


def verify(capsys, *argv):
    code = cli.main(["verify", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_covers_every_target_and_builds_the_choices():
    props = [f"prop{i}" for i in range(1, 10)]
    assert list(cli._TARGETS) == [*TARGETS, *props]
    parser = cli._build_parser()
    for target in (*cli._TARGETS, "all"):
        assert parser.parse_args(["verify", "--target", target]).target == target
    with pytest.raises(SystemExit):
        parser.parse_args(["verify", "--target", "prop10"])
    needs_fn = {name for name, (fn_required, _) in cli._TARGETS.items() if fn_required}
    assert needs_fn == {*TARGETS, "prop4", "prop5"}


@pytest.mark.parametrize("target", ["eq1", "cor2", "prop4", "prop5"])
def test_function_targets_need_fn(capsys, target):
    code, _, err = verify(capsys, "--target", target, "--a", "1", "--b", "2")
    assert code == 2
    assert err == f"error: target {target!r} needs --fn\n"


def test_prop6_evaluates_no_second_kind_function(capsys, bessel_calls):
    # only prop7 reads K_p: prop6 must not evaluate it, here at the widened lo = 0.025
    code, out, err = verify(capsys, "--target", "prop6", "--p", "2", "--a", "0.6", "--b", "1.75")
    assert (code, err) == (0, "")
    assert [r["label"] for r in json.loads(out)["reports"]] == PROP6_LABELS
    assert bessel_calls["bessel_K"] == 0
    assert bessel_calls["normalized_I_series"] > 0


def test_prop6_random_mode_runs_every_trial(capsys):
    code, out, _ = verify(capsys, "--target", "prop6", "--p", "2", "--trials", "40", "--seed", "1")
    assert code == 0
    assert json.loads(out)["counts"]["checked"] == 40 * len(PROP6_LABELS)


def test_prop7_evaluates_no_first_kind_function(capsys, bessel_calls):
    code, out, _ = verify(capsys, "--target", "prop7", "--p", "2", "--a", "1", "--b", "2")
    assert code == 0
    assert [r["label"] for r in json.loads(out)["reports"]] == ["prop7.ii"]
    assert bessel_calls["normalized_I_series"] == bessel_calls["_normalized_series"] == 0
    assert bessel_calls["bessel_K"] == 5


@pytest.mark.parametrize("p,b,message", [
    ("0.5", "2", "prop7 needs p > 1, got p = 0.5"),
    ("-2", "2", "prop7 needs p > 1, got p = -2.0"),
    ("2", "4", "extended interval leaves (0, inf): 3a - b = -1.0 must be positive"),
], ids=["p", "p = -2", "3a > b"])
def test_prop7_hypothesis_fails_before_any_bessel_call(capsys, bessel_calls, p, b, message):
    code, out, err = verify(capsys, "--target", "prop7", "--p", p, "--a", "1", "--b", b)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert set(bessel_calls.values()) == {0}
    with pytest.raises(PreconditionError, match=re.escape(message)):
        special_fns.bessel_prop7(float(p), 1.0, float(b))


@pytest.mark.parametrize("p,b", [(2.0, 4.0), (0.5, 2.0)])
def test_bessel_prop_checks_leaves_out_prop7_when_its_hypothesis_fails(p, b):
    reports = special_fns.bessel_prop_checks(p, 1.0, b)
    assert [r.label for r in reports] == PROP6_LABELS
    assert reports == special_fns.bessel_prop6(p, 1.0, b)


def test_bessel_prop_checks_is_prop6_then_prop7():
    reports = special_fns.bessel_prop_checks(2.0, 1.0, 2.0)
    assert reports == [*special_fns.bessel_prop6(2.0, 1.0, 2.0), special_fns.bessel_prop7(2.0, 1.0, 2.0)]


def test_bessel_order_has_one_message(capsys):
    errors = []
    for argv in (["special", "normI", "--p", "-1", "--x", "1"],
                 ["special", "besselI", "--p", "-1", "--x", "1"],
                 ["verify", "--target", "prop6", "--p", "-1", "--a", "1", "--b", "2"]):
        assert cli.main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors == ["error: Bessel order must satisfy p > -1, got p = -1.0\n"] * 3


def test_q_digamma_base_has_one_message():
    messages = []
    for call in (lambda: special_fns.q_digamma(1.0, 2.0),
                 lambda: special_fns.q_digamma_deriv(-0.5, 2.0, 1),
                 lambda: special_fns.qdigamma_prop_checks(1.0, 1.0, 2.0)):
        with pytest.raises(ValueError) as exc:
            call()
        messages.append(str(exc.value).split(", got")[0])
    assert messages == ["q-digamma needs q > 0 and q != 1"] * 3


def test_prop5_check_is_the_true_error_against_the_certificate():
    f = parse("cosh(x)")
    partition = Partition.uniform(Interval(1.0, 2.0), 4)
    report = prop5_check(f, partition, 2.0)
    integral = integrate_ref(f, Interval(1.0, 2.0)).value
    assert report.label == "prop5" and report.satisfied
    assert report.lhs == abs(integral - midpoint_T2(f, partition))
    assert report.rhs == midpoint_error_bound(f, partition, 2.0)
    assert report.inputs == {"fn": "cosh(x)", "a": 1.0, "b": 2.0, "q": 2.0, "panels": 4}

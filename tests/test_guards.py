"""The hypothesis checks of hhaudit.core, reached the same way from every module.

A bad parameter must fail with the same error and message whichever entry
point meets it first.
"""

import contextlib
import io
import json
import math
import re

import pytest

from hhaudit import cli
from hhaudit.core import DomainError, Interval, PreconditionError
from hhaudit.exprlang import parse
from hhaudit.hh_bounds import Instance
from hhaudit.means import means_proposition_check
from hhaudit.quadrature import Partition, adaptive_midpoint, midpoint_error_bound, prop4_check
from hhaudit.special_fns import bessel_prop_checks, qdigamma_prop_checks


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("q", [0.5, math.nan, math.inf])
def test_bad_exponent_is_one_error_everywhere(q):
    f, iv = parse("x^2"), Interval(1.0, 2.0)
    expected = f"exponent must satisfy 1 <= q < inf, got q = {q!r}"
    calls = {
        "derivative_report": lambda: Instance(f, iv, q).derivative_report("thm2"),
        "midpoint_error_bound": lambda: midpoint_error_bound(f, Partition.uniform(iv, 4), q),
        "adaptive_midpoint": lambda: adaptive_midpoint(f, iv, 1e-3, q),
        "means_proposition_check": lambda: means_proposition_check("P1", iv.a, iv.b, q=q),
    }
    for name, call in calls.items():
        with pytest.raises(PreconditionError) as exc:
            call()
        assert str(exc.value) == expected, name
    for argv in (("verify", "--target", "prop5"), ("integrate", "--err", "1e-3")):
        code, out, err = run(*argv, "--fn", "x^2", "--a", "1", "--b", "2", "--q", repr(q))
        assert (code, out, err) == (2, "", f"error: {expected}\n"), argv


BAD_PARAMETERS = [
    (("thm2", "--fn", "x^2", "--q", "0.5", "--trials", "3"), "exponent must satisfy 1 <= q < inf, got q = 0.5"),
    (("all", "--fn", "x^2", "--q", "0.5", "--a", "1", "--b", "2"), "exponent must satisfy 1 <= q < inf, got q = 0.5"),
    (("all", "--fn", "x^2", "--q", "inf", "--a", "1", "--b", "2"), "exponent must satisfy 1 <= q < inf, got q = inf"),
    (("all", "--fn", "x^2", "--q", "nan", "--a", "1", "--b", "2"), "exponent must satisfy 1 <= q < inf, got q = nan"),
    (("all", "--fn", "x^2", "--q", "nan", "--trials", "2"), "exponent must satisfy 1 <= q < inf, got q = nan"),
    (("prop6", "--q", "0.5", "--trials", "3"), "exponent must satisfy 1 <= q < inf, got q = 0.5"),
    (("prop1", "--n", "0", "--trials", "3"), "P1 needs integer n outside {-1, 0}, got 0"),
    (("prop1", "--n", "0", "--a", "1", "--b", "2"), "P1 needs integer n outside {-1, 0}, got 0"),
    (("prop6", "--p", "-2", "--trials", "3"), "Bessel order must satisfy p > -1, got p = -2.0"),
    (("prop7", "--p", "inf", "--trials", "3"), "bessel_K needs finite arguments, got p = inf"),
    (("prop7", "--p", "nan", "--trials", "3"), "bessel_K needs finite arguments, got p = nan"),
    (("prop8", "--qbase", "1", "--trials", "3"), "q-digamma needs q > 0 and q != 1, got q = 1.0"),
    (("prop9", "--qbase", "nan", "--trials", "3"), "q-digamma needs finite arguments, got q = nan"),
]


@pytest.mark.parametrize("argv, message", BAD_PARAMETERS, ids=[" ".join(argv) for argv, _ in BAD_PARAMETERS])
def test_a_bad_parameter_exits_two_before_any_interval(argv, message):
    # in random mode and under --target all too, where a failed hypothesis counts as guarded out
    assert run("verify", "--target", *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("thm3", "--fn", "x^2", "--q", "1"),  # Hoelder's q > 1
    ("prop7", "--p", "0.5"),  # p > 1
    ("prop7", "--p", "-2"),  # K_p is defined at every finite p, so only the hypothesis fails
], ids=["thm3 q = 1", "prop7 p = 0.5", "prop7 p = -2"])
def test_a_failed_hypothesis_is_guarded_out_per_trial(argv):
    code, out, _ = run("verify", "--target", *argv, "--trials", "3")
    assert code == 0 and json.loads(out)["counts"] == {"checked": 3, "guarded_out": 3, "satisfied": 0, "violated": 0}


@pytest.mark.parametrize("target", [math.nan, math.inf, 0.0, -1e-3])
def test_adaptive_midpoint_needs_a_positive_finite_target(target):
    with pytest.raises(ValueError, match="target error must be positive and finite"):
        adaptive_midpoint(parse("x^2"), Interval(1.0, 2.0), target)


def test_integrate_rejects_nan_err():
    code, out, err = run("integrate", "--fn", "x^2", "--a", "1", "--b", "2", "--err", "nan")
    assert (code, out, err) == (2, "", "error: target error must be positive and finite, got nan\n")


@pytest.mark.parametrize("check, prefix", [
    (lambda: prop4_check(parse("-x^3"), Partition((-3.0, -2.0, 0.5))),
     "subinterval 1 [-2.0, 0.5]: f is not midpoint-convex on [-3.25, 1.75] (worst gap "),
    (lambda: midpoint_error_bound(parse("10*x - x^4/4"), Partition((-3.0, -2.0, 1.0)), 2.0),
     "subinterval 1 [-2.0, 1.0]: |f'|^q (q = 2.0) is not midpoint-convex on [-3.5, 2.5] (worst gap "),
], ids=["prop4 f", "bound |f'|^q"])
def test_panel_guard_failure_names_the_panel_and_its_widened_interval(check, prefix):
    with pytest.raises(PreconditionError) as exc:
        check()
    assert re.fullmatch(re.escape(prefix) + r"\S+ near x = \S+\)", str(exc.value))


def test_interval_checks_share_their_messages():
    with pytest.raises(PreconditionError) as means_exc:
        means_proposition_check("P2", 1.0, 3.0)
    with pytest.raises(PreconditionError) as qdigamma_exc:
        qdigamma_prop_checks(0.5, 1.0, 3.0)
    assert str(means_exc.value) == str(qdigamma_exc.value) == (
        "extended interval leaves (0, inf): 3a - b = 0.0 must be positive")
    for call in (lambda: means_proposition_check("P1", -1.0, 2.0),
                 lambda: bessel_prop_checks(2.0, -1.0, 2.0),
                 lambda: qdigamma_prop_checks(0.5, -1.0, 2.0)):
        with pytest.raises(DomainError, match=re.escape("need 0 < a < b, got (-1.0, 2.0)")):
            call()

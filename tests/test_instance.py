"""Work counts of the per-instance evaluation context behind `verify --target all`.

Guards are counted at their one seam, the compiled scan of each parsed function (the
``scans`` fixture); the values of f at ``Expr.__call__``; the rest by wrapping the
module-global bindings that the battery calls through.
"""

import collections
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

from hhaudit import cli, core, hh_bounds
from hhaudit.core import DomainError, Interval, widen
from hhaudit.exprlang import Expr, parse
from hhaudit.hh_bounds import Instance, three_point_check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def calls(monkeypatch, scans):
    """Record each guard's scan, integrate_ref, bounds computation and value of f read through ``Expr.__call__``."""
    log = {"guards": scans, "integrals": [], "first_order": 0, "second_order": 0, "values": collections.Counter()}
    value = Expr.__call__

    def counted_value(self, x):
        log["values"][x] += 1
        return value(self, x)

    def wrap_integral(original):
        def counted(f, iv, *args, **kwargs):
            log["integrals"].append(("mean" if isinstance(f, Expr) else "weighted", iv))
            return original(f, iv, *args, **kwargs)
        return counted

    def wrap_bounds(name):
        original = getattr(Instance, f"_{name}")

        def counted(self):
            log[name] += 1
            return original(self)
        return counted

    monkeypatch.setattr(hh_bounds, "integrate_ref", wrap_integral(hh_bounds.integrate_ref))
    for name in ("first_order", "second_order"):
        monkeypatch.setattr(Instance, f"_{name}", wrap_bounds(name))
    monkeypatch.setattr(Expr, "__call__", counted_value)
    monkeypatch.delenv("HH_TOL", raising=False)
    return log


def verify(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", *argv])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


@pytest.mark.parametrize("q", ["1", "2"])
def test_verify_all_computes_each_shared_piece_once(calls, q):
    code, doc = verify("--target", "all", "--fn", "exp(x)+x^4", "--a", "1", "--b", "2", "--q", q)
    assert code == 0
    # f on [a, b], f widened, |f'|^q and |f''|^q: four guards, none repeated
    assert len(calls["guards"]) == 4
    assert len(set(calls["guards"])) == 4
    kinds = [kind for kind, _ in calls["integrals"]]
    assert kinds.count("mean") == 1
    assert kinds.count("weighted") == 3  # lemma1's inner integral, lemma2's two
    assert calls["first_order"] == calls["second_order"] == 1
    assert doc["counts"]["guarded_out"] == (4 if q == "1" else 0)
    # f at a, b, the midpoint and the widened ends once each, through the instance's memo; the midpoint is also the
    # centre node of the mean integral's one G7/K15 panel, whose 15 nodes make up the rest
    lo, hi = widen(1.0, 2.0)
    assert {x: calls["values"][x] for x in (1.0, 2.0, 1.5, lo, hi)} == {1.0: 1, 2.0: 1, 1.5: 2, lo: 1, hi: 1}
    assert sum(calls["values"].values()) == 15 + 5


def test_each_instance_starts_fresh(calls):
    argv = ("--target", "all", "--fn", "cosh(x)", "--trials", "3", "--seed", "5", "--q", "2")
    verify(*argv)
    assert len(calls["guards"]) == 3 * 4
    assert calls["first_order"] == calls["second_order"] == 3


def test_failing_widened_guard_probed_once_and_counted_per_target(calls):
    code, doc = verify("--target", "all", "--fn", "x*log(x)", "--a", "0.5", "--b", "2", "--q", "2")
    assert code == 0
    widened_f = [scan for scan in calls["guards"] if scan.order == 0 and (scan.lo, scan.hi) == widen(0.5, 2.0)]
    assert len(widened_f) == 1
    assert len(calls["guards"]) == 4
    # k1, k2, thm2-thm7, cor1 and cor2 all need a hypothesis on the widened interval
    assert doc["counts"]["guarded_out"] == 10
    assert [r["label"] for r in doc["reports"]] == ["eq1.lower", "eq1.upper", "lemma1", "lemma2"]


def test_stored_failure_is_raised_again_unchanged(calls):
    inst = Instance(parse("x*log(x)"), Interval(0.5, 2.0))
    with pytest.raises(DomainError) as first:
        inst.three_point()
    with pytest.raises(DomainError) as second:
        inst.abs_half()
    assert type(first.value) is type(second.value)
    assert str(first.value) == str(second.value)
    assert len(calls["guards"]) == 1
    # the public function builds its own instance and probes again
    with pytest.raises(DomainError, match=re.escape(str(first.value))):
        three_point_check(parse("x*log(x)"), Interval(0.5, 2.0))
    assert len(calls["guards"]) == 2


def test_all_matches_the_targets_run_one_by_one():
    argv = ("--fn", "x^2-5", "--a", "0.5", "--b", "1.5", "--q", "2")
    _, together = verify("--target", "all", *argv)
    alone = [r for target in hh_bounds.TARGETS for r in verify("--target", target, *argv)[1]["reports"]]
    assert together["reports"] == alone


def test_audit_battery_script_honours_hh_tol():
    def run(tol):
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), "HH_TOL": tol}
        argv = [sys.executable, "scripts/audit_battery.py", "--trials", "10", "--q", "2"]
        return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True).stdout

    default, loose = run("1e-12"), run("0.1")
    # a looser tolerance passes more |f'|^q guards, so fewer thm2 instances are guarded out
    guarded = [int(next(line for line in out.splitlines() if line.startswith("thm2")).split()[3])
               for out in (default, loose)]
    assert guarded[1] < guarded[0]


def test_audit_battery_script_counts_a_domain_error_as_guarded():
    # at q = 300, |f'|^q overflows on some intervals: the guard's DomainError is tallied, not raised
    env = {k: v for k, v in os.environ.items() if k != "HH_TOL"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    argv = [sys.executable, "scripts/audit_battery.py", "--trials", "3", "--q", "300"]
    run = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    rows = {line.split()[0]: [int(n) for n in line.split()[1:]] for line in run.stdout.splitlines()[2:]}
    assert sorted(rows) == ["thm2", "thm3", "thm4", "thm5", "thm6", "thm7"]
    assert all(sum(counts) == 15 for counts in rows.values())  # 5 functions, 3 intervals each
    assert rows["thm2"][2] > 0


def test_second_order_bounds_need_f_twice_differentiable():
    inst = Instance(parse("abs(x-1.3)"), Interval(1.0, 2.0))
    with pytest.raises(core.PreconditionError, match="twice differentiable"):
        inst.second_order()
    _, rhs = inst.first_order()
    assert min(rhs["thm2"], rhs.get("thm3", math.inf)) > 0.0  # |f'|^q = 1 is convex, and they need no f''

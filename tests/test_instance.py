"""Work counts of the per-instance evaluation context behind `verify --target all`.

Counts come from wrapping the module-global bindings that the battery calls
through, so they see exactly the calls a traced run sees.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

from hhaudit import cli, core, hh_bounds
from hhaudit.core import DomainError, Interval, extend
from hhaudit.exprlang import Expr, parse
from hhaudit.hh_bounds import Instance, three_point_check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def calls(monkeypatch):
    """Record each sample_convexity, integrate_ref and bounds computation."""
    log = {"guards": [], "integrals": [], "first_order": 0, "second_order": 0}

    def wrap_guard(original):
        def counted(f, iv, *args, **kwargs):
            log["guards"].append((kwargs.get("label"), iv))
            return original(f, iv, *args, **kwargs)
        return counted

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

    monkeypatch.setattr(core, "sample_convexity", wrap_guard(core.sample_convexity))
    monkeypatch.setattr(hh_bounds, "integrate_ref", wrap_integral(hh_bounds.integrate_ref))
    for name in ("first_order", "second_order"):
        monkeypatch.setattr(Instance, f"_{name}", wrap_bounds(name))
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


def test_each_instance_starts_fresh(calls):
    argv = ("--target", "all", "--fn", "cosh(x)", "--trials", "3", "--seed", "5", "--q", "2")
    verify(*argv)
    assert len(calls["guards"]) == 3 * 4
    assert calls["first_order"] == calls["second_order"] == 3


def test_failing_widened_guard_probed_once_and_counted_per_target(calls):
    code, doc = verify("--target", "all", "--fn", "x*log(x)", "--a", "0.5", "--b", "2", "--q", "2")
    assert code == 0
    widened_f = [iv for label, iv in calls["guards"] if label == "guard:f" and iv == extend(Interval(0.5, 2.0))]
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

    default, loose = run("1e-12"), run("0.05")
    # a looser tolerance passes more |f'|^q guards, so fewer thm2 instances are guarded out
    guarded = [int(next(line for line in out.splitlines() if line.startswith("thm2")).split()[3])
               for out in (default, loose)]
    assert guarded[1] < guarded[0]


def test_second_order_bounds_need_f_twice_differentiable():
    inst = Instance(parse("abs(x-1.3)"), Interval(1.0, 2.0))
    with pytest.raises(core.PreconditionError, match="twice differentiable"):
        inst.second_order()
    assert inst.first_order().rhs_min > 0.0  # |f'|^q = 1 is convex, and the first-order bounds need no f''

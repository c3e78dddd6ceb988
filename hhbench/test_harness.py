"""Self-tests of the benchmark harness.

    python3 -m pytest -q hhbench/test_harness.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def package():
    hh, _, _ = worker.setup("audit", 0)
    return hh


def _runner(hh, workload, seed=0):
    exprs = {text: hh.exprlang.parse(text) for text in workloads.functions(workload, seed)}
    return workloads.Runner(hh, exprs)


def _first_block(hh, workload, tracer=None):
    tasks = workloads.block(workload, 0, 0)
    return tasks, worker.run_round(_runner(hh, workload), tasks, len(tasks), tracer)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.slots(workload, 3)
    assert first == workloads.slots(workload, 3)
    assert json.loads(json.dumps(first)) == first
    assert first != workloads.slots(workload, 4)
    assert len(first) >= 100


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_later_rounds_change_every_input_but_not_its_shape(workload):
    for task in workloads.slots(workload, 3)[:40]:
        again = workloads.perturbed(task, 7)
        assert again != task and again.keys() == task.keys()
        assert workloads.perturbed(task, 0) is task


def test_p90_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(99)), 90) is None
    assert run.tail_percentile(list(range(100)), 90) is not None


def test_certify_slots_hold_one_cap_bound_target():
    caps = [t for t in workloads.slots("certify", 7) if t.get("panels") == workloads.PANEL_CAP]
    assert len(caps) == 1


def test_wrong_reference_marks_op_failed(package, monkeypatch):
    tasks, out = _first_block(package, "audit")
    assert not out["failures"]
    assert run.check_outputs("audit", 0, out["texts"], None) == {}
    assert tasks == workloads.slots("audit", 0)[: len(tasks)]
    exact = reference.mpmath.quad
    monkeypatch.setattr(reference.mpmath, "quad", lambda f, iv: exact(f, iv) * (1 + 1e-6))
    problems = run.check_outputs("audit", 0, out["texts"], None)
    assert sorted(problems) == list(range(len(tasks)))


def test_wrong_special_reference_marks_op_failed(package, monkeypatch):
    tasks, out = _first_block(package, "special")
    assert run.check_outputs("special", 0, out["texts"], None) == {}
    exact = reference.mpmath.besselk
    monkeypatch.setattr(reference.mpmath, "besselk", lambda p, x: exact(p, x) * (1 + 1e-9))
    problems = run.check_outputs("special", 0, out["texts"], None)
    assert sorted(problems) == [i for i, t in enumerate(tasks) if t["kind"] == "bessel_K"]


def test_changed_finding_is_caught():
    doc = {"findings": [{"label": "k2", "lhs": 5.0 / 3.0, "rhs": 0.0}]}
    assert reference.check_known_finding(1, json.dumps(doc)) == []
    assert reference.check_known_finding(0, json.dumps({"findings": []}))
    doc["findings"][0]["lhs"] = 1.5
    assert reference.check_known_finding(1, json.dumps(doc))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_runs_give_the_same_digest(package, workload):
    originals = (package.hh_bounds.sample_convexity, package.exprlang.Expr.__call__, package.cli.main)
    _, plain = _first_block(package, workload)
    tracer = Tracer(package)
    tracer.install()
    try:
        _, traced = _first_block(package, workload, tracer)
    finally:
        tracer.uninstall()
    assert run.digest(traced["texts"]) == run.digest(plain["texts"])
    assert (package.hh_bounds.sample_convexity, package.exprlang.Expr.__call__, package.cli.main) == originals
    assert package.hh_bounds.sample_convexity is package.quadrature.sample_convexity


def test_tracer_counts_outermost_jets_and_distinct_guards(package):
    tasks = [t for t in workloads.block("audit", 0, 0) if t["q"] == "2" and t["fn"] == "x^2"]
    tracer = Tracer(package)
    tracer.install()
    try:
        worker.run_round(_runner(package, "audit"), tasks, 0, tracer)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(1)
    # q > 1: eleven guards over four distinct (label, interval) keys
    assert layers["core.sample_convexity.calls"] == (11, "1/op")
    assert layers["core.sample_convexity.distinct_frac"][0] == pytest.approx(4 / 11)
    # every jet of |f'|^q and |f''|^q guards is counted once, not once per node
    assert layers["exprlang.eval_jet.calls"][0] < layers["core.sample_convexity.fevals"][0]


def test_benchmark_json_lists_every_layer_metric(package):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    layers = Tracer(package).layer_metrics(1)
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert listed == {**{k: unit for k, (_, unit) in layers.items()}, "trace.overhead_frac": "frac"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS

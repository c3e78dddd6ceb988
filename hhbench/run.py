"""hhaudit benchmark: one workload, one seed, one run.

    python3 hhbench/run.py --workload audit --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` there.
Workloads (see ``BENCHMARK.json`` for why each exists):

* ``audit``       ``cli.main(["verify", "--target", "all", ...])``, one random
                  instance of the six-function battery at q in {1, 2} per op;
* ``audit-fresh`` one single-target ``verify`` per op, each on a distinct
                  function generated from the seed;
* ``certify``     ``adaptive_midpoint`` to a target placed at 32, 128 or 512
                  panels, or (one slot) beyond the 65,536-panel cap, plus
                  ``prop4_check`` and ``midpoint_error_bound`` at 16 panels;
* ``special``     Bessel and q-digamma evaluations and the propositions built
                  on them.

The loop is closed with one client: each op starts when the previous one
returns.  The workload's slot list runs in rounds for ``--seconds``, and each
slot's latency is its fastest over the rounds (see ``workloads.py`` and
``worker.py`` for why).  With ``--trace 0`` the run reports the end-to-end
metrics; set-up is timed in separate fresh processes.  With ``--trace 1`` it
alternates untraced and traced rounds, and reports the per-layer metrics of
the traced rounds (counts per op from the first one, so they repeat exactly
for a seed) and the tracing overhead.  Layers a workload never calls read 0.

Every run checks the first ops' outputs against mpmath (``reference.py``),
checks that the k2 finding on x^2-5 over [0, 2] still fires, and prints the
sha256 of those outputs next to the digest recorded for the seed in
``baseline.json``.  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 16
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}


def tail_percentile(samples, pct: int):
    """The ``pct`` percentile of ``samples``, or None when fewer than ten
    samples lie beyond it."""
    n = len(samples)
    if n - (n * pct + 99) // 100 < 10:
        return None
    return statistics.quantiles(samples, n=100)[pct - 1]


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(("<failed>" if text is None else text).encode())
        h.update(b"\0")
    return h.hexdigest()


def recorded_digest(workload: str, seed: int):
    try:
        with open(os.path.join(HERE, "baseline.json")) as fh:
            return json.load(fh)["digests"][workload].get(str(seed))
    except (OSError, KeyError):
        return None


def worker(workload: str, seed: int, seconds: float, mode: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("HH_TOL", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_outputs(workload: str, seed: int, texts, known_finding) -> dict[int, list[str]]:
    """Problems per slot index, from the mpmath reference; index -1 holds
    those of the known finding."""
    import reference

    problems: dict[int, list[str]] = {}
    for index, (task, text) in enumerate(zip(workloads.slots(workload, seed), texts)):
        if text is not None:
            found = reference.check(task, text)
            if found:
                problems[index] = found
    if known_finding is not None:
        found = reference.check_known_finding(*known_finding)
        if found:
            problems[-1] = found
    return problems


def measure(args) -> tuple[dict, list[str], bool, int, int]:
    """Run the workers and the checks; returns the metrics as ``{name: (value,
    unit)}``, the report lines, whether every check passed, and the counts of
    ops attempted and failed."""
    lines = []
    worker(args.workload, args.seed, args.seconds, "setup")  # fills the bytecode cache

    def setup_samples(n):
        return [worker(args.workload, args.seed, args.seconds, "setup")["setup_s"] for _ in range(n)]

    # half of the set-up samples before the run and half after, so that one
    # slow spell of the machine does not cover all of them
    setups = setup_samples(SETUP_SAMPLES // 2)
    res = worker(args.workload, args.seed, args.seconds, "trace" if args.trace else "run")
    setups += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    run = res["run"]
    best = run["best_ms"]
    slots = len(best)
    problems = check_outputs(args.workload, args.seed, run["texts"], res.get("known_finding"))
    phases = [run, res["traced"]] if args.trace else [run]
    attempted = sum(p["rounds"] for p in phases) * slots
    failed = sum(len(p["failures"]) for p in phases) + sum(1 for i in problems if i >= 0)
    ok = not problems and failed == 0
    rounds = f"fastest of {run['rounds']} rounds"

    if args.trace:
        traced = res["traced"]
        metrics = dict(res["layers"])
        # the share of time that tracing adds to the same ops
        metrics["trace.overhead_frac"] = (sum(traced["best_ms"]) / sum(best) - 1.0, "frac")
        same = run["texts"] == traced["texts"]
        ok = ok and same
        lines.append(f"hhbench {args.workload} seed={args.seed} traced: {slots} slots, "
                     f"{run['rounds']} untraced and {traced['rounds']} traced rounds")
        lines.append(f"  tracing adds {metrics['trace.overhead_frac'][0]:.1%} to the {rounds} per slot; "
                     f"traced and untraced outputs {'agree' if same else 'DIFFER'}")
        out_dir = os.path.join(ROOT, ".hhbench-out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        with open(path, "w") as fh:
            for op, name, depth, t0, t1 in res["spans"]:
                fh.write(json.dumps({"op": op, "name": name, "depth": depth, "start": t0, "end": t1}) + "\n")
        lines.append(f"  spans of the first traced ops written to {os.path.relpath(path, ROOT)}")
    else:
        p90 = tail_percentile(best, 90)
        if p90 is None:
            raise RuntimeError(f"{slots} slots are too few for a p90")
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": 1e3 * slots / sum(best),
            "op_ms.p50": statistics.median(best),
            "op_ms.p90": p90,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
        samples = {"setup_s": f"median of {len(setups)} fresh processes",
                   "ops_per_s": f"{slots} slots / sum of their latencies, each the {rounds}",
                   "op_ms.p50": f"{slots} slots, each the {rounds}",
                   "op_ms.p90": f"{slots} slots, {slots - (slots * 90 + 99) // 100} beyond",
                   "peak_rss_mb": "1 process"}
        lines.append(f"hhbench {args.workload} seed={args.seed}: closed loop, 1 client, "
                     f"{attempted} ops in {run['rounds']} rounds of {slots} slots")
        for name, (value, unit) in metrics.items():
            lines.append(f"  {name:<12} {value:12.6g} {unit:<4} ({samples[name]})")
        lines.append(f"  {'failed_frac':<12} {failed / attempted:12.6g}      ({failed} of {attempted} ops)")
        if args.workload == "certify":
            lines.append(f"  {'uncertified':<12} {run['uncertified'] / attempted:12.6g}      "
                         f"({run['uncertified']} of {attempted} ops ended at the panel cap)")

    for phase in phases:
        for r, index, message in phase["failures"][:5]:
            lines.append(f"  round {r} slot {index} failed: {message}")
    for index, found in list(problems.items())[:5]:
        lines.append(f"  slot {index} wrong: {'; '.join(found[:3])}")
    lines.append(f"  correctness: {len(run['texts'])} round-0 outputs checked against mpmath"
                 + (", k2 finding on x^2-5 over [0, 2] checked" if res.get("known_finding") else "")
                 + (": ok" if not problems else f": {len(problems)} wrong"))
    now = digest(run["texts"])
    before = recorded_digest(args.workload, args.seed)
    state = ("no digest recorded for this seed" if before is None
             else "matches the recorded digest" if before == now
             else f"CHANGED from the recorded {before}")
    lines.append(f"  output digest sha256:{now} ({state})")
    return metrics, lines, ok, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hhaudit", "__init__.py")):
        print(f"error: no hhaudit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        metrics, lines, ok, attempted, failed = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

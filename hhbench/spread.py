"""Run the benchmark over several seeds and report each metric's median and
quartile spread, the way the acceptance rule reads them.

    python3 hhbench/spread.py --workloads audit certify --seeds 1-10 [--out FILE]
    python3 hhbench/spread.py --seeds 1      # every workload once, full reports

Each run's report (metrics with units and sample counts, the correctness and
digest checks) is echoed.  For every workload and end-to-end metric it then
prints the median over the seeds
and (Q3 - Q1) / median, with quartiles from ``statistics.quantiles(n=4)``,
next to the metric's bound in ``BENCHMARK.json`` and a third of it.  Runs are
sequential, never concurrent, so that they do not contend for the CPUs.
``--out`` writes the per-run values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="write runs and summary as JSON to this file")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in seed_list(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            *report, last = proc.stdout.splitlines()
            print("\n".join(report), flush=True)
            result = json.loads(last)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            runs[workload].append({"seed": seed, "correct": result["correct"],
                                   "attempted": result["attempted"], "failed": result["failed"],
                                   "wall_s": time.perf_counter() - t0, **values})
        summary[workload] = {}
        if len(runs[workload]) < 2:
            continue
        for name, bound in bounds.items():
            values = [r[name] for r in runs[workload]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[workload][name] = {"median": median, "spread": spread}
            flag = "" if spread < bound / 3 else "  <-- over a third of the bound"
            print(f"  {workload:<12} {name:<12} median {median:12.6g}  spread {spread:7.4f}  "
                  f"bound {bound}  (a third: {bound / 3:.4f}){flag}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"python": platform.python_version(), "nproc": os.cpu_count(),
                       "seeds": args.seeds, "seconds": args.seconds,
                       "summary": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

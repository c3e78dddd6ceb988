"""Record output digests and the seed baseline in ``hhbench/baseline.json``.

    python3 hhbench/record.py --seeds 0-63 [--spread FILE]

For every workload and seed in the range, the digest is the sha256 of the
round-0 outputs of the workload's checked slots, the same bytes ``run.py``
hashes; it is computed here in one process, untimed.  ``--spread`` takes a
file written by ``spread.py`` and stores its medians and spreads as the seed
baseline, with the Python version and CPU count it was measured with.

Re-record the digests only in a change that alters outputs on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spread  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

PATH = os.path.join(HERE, "baseline.json")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="0-63", help="inclusive range, e.g. 0-63")
    ap.add_argument("--spread", help="a file written by spread.py --out")
    args = ap.parse_args()
    if os.environ.get("HH_TOL") is not None:
        raise SystemExit("unset HH_TOL: the benchmark runs with the default tolerance")

    baseline = {}
    if os.path.exists(PATH):
        with open(PATH) as fh:
            baseline = json.load(fh)
    hh, _, _ = worker.setup("audit", 0)
    digests = baseline.setdefault("digests", {})
    for workload in workloads.WORKLOADS:
        for seed in spread.seed_list(args.seeds):
            exprs = {t: hh.exprlang.parse(t) for t in workloads.functions(workload, seed)}
            checked = workloads.slots(workload, seed)[: workloads.CHECKED_SLOTS[workload]]
            out = worker.run_round(workloads.Runner(hh, exprs), checked, len(checked))
            if out["failures"]:
                raise SystemExit(f"{workload} seed {seed}: {out['failures'][:3]}")
            digests.setdefault(workload, {})[str(seed)] = run.digest(out["texts"])
        print(f"{workload}: digests for seeds {args.seeds}", flush=True)
    if args.spread:
        with open(args.spread) as fh:
            measured = json.load(fh)
        baseline["seed_baseline"] = {
            "python": measured["python"],
            "nproc": measured["nproc"],
            "machine": platform.machine(),
            "seeds": measured["seeds"],
            "run_seconds": measured["seconds"],
            "median_and_spread": measured["summary"],
        }
    with open(PATH, "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

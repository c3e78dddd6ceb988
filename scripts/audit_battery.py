#!/usr/bin/env python3
"""Sweep the derivative-based bounds over a convex battery and tally outcomes.

For every (function, exponent q, random interval) triple this evaluates the
midpoint-defect bounds (first derivative) and the three-point-defect bounds
(second derivative), and reports how often each printed constant actually
dominated the oracle left side.  Violations are printed with full inputs so
they can be replayed through `hhaudit verify`.
"""

import argparse
import random
import sys

from hhaudit.core import Interval, PreconditionError, config_from_env
from hhaudit.exprlang import parse
from hhaudit.hh_bounds import Instance

BATTERY = ("x^2", "x^4", "exp(x)", "cosh(x)", "x*log(x)")


def draw(rng: random.Random) -> Interval:
    a = rng.uniform(0.5, 3.0)
    return Interval(a, a * rng.uniform(1.2, 2.8))  # b < 3a keeps x*log(x) usable


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100, help="intervals per (function, q) cell")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--q", type=float, nargs="+", default=[1.0, 1.5, 2.0, 3.0])
    args = ap.parse_args()

    cfg = config_from_env()
    rng = random.Random(args.seed)
    tally: dict[str, list[int]] = {}  # theorem -> [pass, fail, guarded]
    violations = []

    for fn_text in BATTERY:
        expr = parse(fn_text)
        for q in args.q:
            names = ("thm2", "thm3", "thm4", "thm7", "thm5", "thm6") if q > 1 else ("thm2", "thm4", "thm7")
            for _ in range(args.trials):
                # the same per-interval context, verdict and guards as `hhaudit verify`
                inst = Instance(expr, draw(rng), q, cfg)
                for name in names:
                    counts = tally.setdefault(name, [0, 0, 0])
                    try:
                        report = inst.derivative_report(name)
                    except PreconditionError:
                        counts[2] += 1
                        continue
                    counts[0 if report.satisfied else 1] += 1
                    if not report.satisfied:
                        violations.append((name, fn_text, inst.iv.a, inst.iv.b, q, report.lhs, report.rhs))

    print(f"battery={BATTERY} trials/cell={args.trials} q={args.q} seed={args.seed}")
    print(f"{'theorem':<8} {'pass':>7} {'fail':>7} {'guarded':>8}")
    for name in sorted(tally):
        p, f, g = tally[name]
        print(f"{name:<8} {p:>7} {f:>7} {g:>8}")
    if violations:
        print("\nviolations (theorem, fn, a, b, q, lhs, rhs):")
        for row in violations:
            print("  ", row)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())

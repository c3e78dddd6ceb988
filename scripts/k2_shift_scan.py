#!/usr/bin/env python3
"""Locate where vertical shifts break the half-value bound.

The bound |mean integral - f(mid)/2| <= |f(hi) + f(lo)|/4 is not shift
invariant: its left side moves with c under f -> f - c while the right side
can collapse to zero.  This scans f(x) = x^2 - c on a fixed interval,
reports the satisfied/violated verdict along the shift axis, and bisects for
the crossover shift.
"""

import argparse
import sys

from hhaudit.core import Interval
from hhaudit.exprlang import parse
from hhaudit.hh_bounds import Instance


def margin(c: float, iv: Interval) -> float:
    return Instance(parse(f"x^2 - {c!r}"), iv).abs_half().margin


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, default=0.0)
    ap.add_argument("--b", type=float, default=2.0)
    ap.add_argument("--cmax", type=float, default=8.0)
    ap.add_argument("--steps", type=int, default=17)
    args = ap.parse_args()

    iv = Interval(args.a, args.b)
    print(f"f(x) = x^2 - c on [{iv.a}, {iv.b}]")
    print(f"{'c':>8} {'margin':>12} verdict")
    crossings = []
    prev_c, prev_m = None, None
    for i in range(args.steps):
        c = args.cmax * i / (args.steps - 1)
        m = margin(c, iv)
        print(f"{c:8.3f} {m:12.5f} {'ok' if m >= 0 else 'VIOLATED'}")
        if prev_m is not None and (prev_m >= 0) != (m >= 0):
            crossings.append((prev_c, c))
        prev_c, prev_m = c, m

    for lo, hi in crossings:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (margin(lo, iv) >= 0) == (margin(mid, iv) >= 0):
                lo = mid
            else:
                hi = mid
        print(f"crossover near c = {0.5 * (lo + hi):.12f}")
    if not crossings:
        print("no sign change in the scanned range")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden outputs of a fixed set of commands, and how to re-record them.

Each case is one ``hhaudit`` command (run in-process through ``cli.main``) or
one script run (a subprocess).  ``<name>.out`` holds the exact stdout bytes;
``expected.json`` holds each case's exit code and stderr.  The goldens pin
output byte for byte, so re-record them only for a change that alters output
on purpose, and say so in CHANGES.md:

    PYTHONPATH=src python tests/golden/record.py

The goldens were recorded with CPython 3.11 on x86-64 Linux.  Another C math
library may round exp/log differently and change trailing digits.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

AUDIT_BATTERY = ("x^2", "exp(x)+x^4", "cosh(x)", "x*log(x)", "1/x", "x^2-5")


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in text)


CASES: dict[str, list[str]] = {
    **{
        f"audit_{_slug(fn)}_q{q}": ["verify", "--target", "all", "--fn", fn,
                                    "--trials", "20", "--seed", "7", "--q", q]
        for fn in AUDIT_BATTERY
        for q in ("1", "2")
    },
    "criterion_11": ["verify", "--target", "all", "--fn", "exp(x)", "--trials", "100", "--seed", "7"],
    "xlogx_widened_domain": ["verify", "--target", "all", "--fn", "x*log(x)",
                             "--a", "0.5", "--b", "2", "--q", "2"],
    "k2_shift_finding": ["verify", "--target", "k2", "--fn", "x^2-5", "--a", "0", "--b", "2"],
    "thm3_q1_explicit": ["verify", "--target", "thm3", "--fn", "exp(x)", "--a", "1", "--b", "2"],
    "prop4_panels16": ["verify", "--target", "prop4", "--fn", "exp(x)", "--a", "1", "--b", "2",
                       "--panels", "16"],
    "prop5_panels16": ["verify", "--target", "prop5", "--fn", "cosh(x)", "--a", "1", "--b", "2",
                       "--q", "2", "--panels", "16"],
    **{
        f"{target}_fixed": ["verify", "--target", target, "--a", "1", "--b", "2", *extra]
        for target, extra in (
            ("prop1", ["--n", "-2"]),
            ("prop2", []),
            ("prop3", []),
            ("prop6", ["--p", "2"]),
            ("prop7", ["--p", "2"]),
            ("prop8", []),
            ("prop9", []),
        )
    },
    "prop2_random": ["verify", "--target", "prop2", "--trials", "40", "--seed", "3"],
    "integrate_exp":["integrate", "--fn", "exp(x)", "--a", "0", "--b", "2", "--err", "1e-3"],
    "integrate_exp_panel_cap": ["integrate", "--fn", "exp(x)", "--a", "0", "--b", "2", "--err", "1e-12"],
    "integrate_square_q2": ["integrate", "--fn", "x^2", "--a", "1", "--b", "2", "--err", "1e-3",
                            "--q", "2"],
    "special_besselK": ["special", "besselK", "--p", "0.5", "--x", "1"],
    "script_audit_battery": ["scripts/audit_battery.py", "--trials", "20", "--seed", "0"],
    "script_k2_shift_scan": ["scripts/k2_shift_scan.py"],
}


def run(argv: list[str]) -> tuple[int, bytes, str]:
    """(exit code, stdout bytes, stderr text) of one case, with HH_TOL unset."""
    env = {k: v for k, v in os.environ.items() if k != "HH_TOL"}
    if argv[0].endswith(".py"):
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True)
        return proc.returncode, proc.stdout, proc.stderr.decode()
    from hhaudit import cli

    saved = os.environ.pop("HH_TOL", None)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        if saved is not None:
            os.environ["HH_TOL"] = saved
    return code, out.getvalue().encode(), err.getvalue()


def main() -> int:
    expected = {}
    for name, argv in CASES.items():
        code, stdout, stderr = run(argv)
        with open(os.path.join(HERE, f"{name}.out"), "wb") as fh:
            fh.write(stdout)
        expected[name] = {"argv": argv, "exit": code, "stderr": stderr}
        print(f"{name}: exit {code}, {len(stdout)} bytes")
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

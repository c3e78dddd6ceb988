"""Batch front-end: verify named inequalities over given or randomized inputs,
run certified midpoint integration, and evaluate the special functions.

``verify`` looks every target up in one table, which says whether it needs
``--fn`` and computes exactly the reports it prints.  The function targets of an
interval share one :class:`hhaudit.hh_bounds.Instance`, so each guard, the mean
integral and the bounds run once; a failed guard counts in ``guarded_out`` per target.

Output is one compact JSON document per invocation, ``json.dumps(doc, sort_keys=True)``,
so a fixed command and seed give identical bytes.  ``--pretty`` switches to a table.
Exit codes: 0 when no violation was found, 1 when at least one violation finding was
recorded, 2 on usage, parse, domain or parameter errors and on a closed stdout or stderr, reported
as one ``error:`` line where stderr is open, 3 when ``integrate`` ends uncertified.  :func:`main` and,
for a closed stream, :func:`entry` catch them all: an uncaught one would exit 1, a finding's code.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .core import (
    ConvergenceError,
    DomainError,
    Interval,
    PreconditionError,
    ToleranceConfig,
    config_from_env,
    extend,
    require_exponent,
)
from .exprlang import MAX_DEPTH, parse
from .hh_bounds import TARGETS, Instance
from .means import _check_p1_order, means_proposition_check
from .quadrature import Partition, adaptive_midpoint, prop4_check, prop5_check
from .special_fns import (
    _check_finite,
    _check_first_kind,
    _check_q_x,
    bessel_I,
    bessel_K,
    bessel_prop6,
    bessel_prop7,
    normalized_I_series,
    q_digamma,
    q_digamma_deriv,
    qdigamma_prop_checks,
)

_GRAMMAR_HELP = f"""\
function grammar (--fn):
  expr   := term (('+' | '-') term)*
  term   := unary (('*' | '/') unary)*
  unary  := '-' unary | power
  power  := atom ('^' unary)?        exponent must be constant (no x^x)
  atom   := NUMBER | 'x' | NAME '(' expr ')' | '(' expr ')'
functions: exp log sqrt sinh cosh abs; no implicit multiplication ("2x").
at most {MAX_DEPTH} levels deep: each enclosing call, minus sign, '^' and binary
operator adds a level, parentheses none, so a sum of n terms is n deep.

random mode: when --a/--b are omitted, each trial draws a ~ U(0.5, 5) and
width ~ U(0.1, 2) from the seeded generator, redrawing until the function is
defined, without overflow or NaN, on the widened interval; guard failures and
series or integrals that do not converge are tallied as guarded_out.

environment: HH_TOL overrides the absolute comparison tolerance (default 1e-12).

exit codes: 0 ok, 1 violation finding, 2 error, 3 integrate ended uncertified.
"""

# verify's targets: name -> (needs --fn, run(inst, iv, args, cfg) -> the reports of one
# interval), inst being the interval's shared Instance (None without --fn); "all" runs TARGETS.
_TARGETS: dict[str, tuple] = {
    **{name: (True, lambda inst, iv, args, cfg, run=run: run(inst)) for name, run in TARGETS.items()},
    **{f"prop{i}": (False, lambda inst, iv, args, cfg, prop=f"P{i}": list(
        means_proposition_check(prop, iv.a, iv.b, q=args.q, n=args.n, cfg=cfg))) for i in (1, 2, 3)},
    "prop4": (True, lambda inst, iv, args, cfg: [prop4_check(inst.f, Partition.uniform(iv, args.panels), cfg)]),
    "prop5": (True, lambda inst, iv, args, cfg: [
        prop5_check(inst.f, Partition.uniform(iv, args.panels), args.q, cfg)]),
    "prop6": (False, lambda inst, iv, args, cfg: bessel_prop6(args.p, iv.a, iv.b, cfg)),
    "prop7": (False, lambda inst, iv, args, cfg: [bessel_prop7(args.p, iv.a, iv.b, cfg)]),
    # prop9's left side is built from prop8's two sides, so both come from one call
    "prop8": (False, lambda inst, iv, args, cfg: qdigamma_prop_checks(args.qbase, iv.a, iv.b, cfg)[:1]),
    "prop9": (False, lambda inst, iv, args, cfg: qdigamma_prop_checks(args.qbase, iv.a, iv.b, cfg)[1:]),
}


def _draw_interval(rng: random.Random, expr) -> Interval:
    for _ in range(200):
        a = rng.uniform(0.5, 5.0)
        iv = Interval(a, a + rng.uniform(0.1, 2.0))
        if expr is None:
            return iv
        ext = extend(iv)
        try:  # a hole, an overflow or a NaN at one of the five points redraws
            if all(v == v for v in map(expr, (ext.a, iv.a, iv.midpoint, iv.b, ext.b))):
                return iv
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    raise PreconditionError("no interval passing the domain guard found in 200 draws")


def _echo(prefix: str, args, fields) -> str:
    parts = [prefix]
    for name in fields:
        value = getattr(args, name)
        if value is not None:
            parts.append(f"--{name} {value!r}")
    return " ".join(parts)


def cmd_verify(args, cfg: ToleranceConfig):
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    targets = list(TARGETS) if args.target == "all" else [args.target]
    expr = parse(args.fn) if args.fn is not None else None
    if expr is None and any(_TARGETS[t][0] for t in targets):
        raise ValueError(f"target {args.target!r} needs --fn")
    if (args.a is None) != (args.b is None):
        raise ValueError("provide both --a and --b, or omit both for random mode")
    # the parameters the target reads, checked before any interval, so a bad one exits 2 in random mode too
    require_exponent(args.q)
    if args.target == "prop1":
        _check_p1_order(args.n)
    elif args.target == "prop6":
        _check_first_kind(args.p, 1.0)  # a finite x: only p is checked
    elif args.target == "prop7":
        _check_finite("bessel_K", p=args.p)  # prop7 reads only K_p; its p > 1 is a hypothesis
    elif args.target in ("prop8", "prop9"):
        _check_q_x(args.qbase, 1.0)

    reports: list[dict] = []
    findings: list[dict] = []
    satisfied = violated = guarded_out = 0
    tolerant = args.target == "all"

    def run_instance(iv: Interval, trial: int | None) -> None:
        nonlocal satisfied, violated, guarded_out
        # one context per interval: the targets share its guards, mean integral and bounds
        inst = Instance(expr, iv, args.q, cfg) if expr is not None else None
        for target in targets:
            try:
                try:
                    checks = _TARGETS[target][1](inst, iv, args, cfg)
                except OverflowError as exc:  # a closed form left the float range: a domain failure
                    raise DomainError(f"{target}: a value overflowed ({exc})") from exc
            except (DomainError, PreconditionError, ConvergenceError) as exc:
                if trial is None and not (tolerant and isinstance(exc, ValueError)):
                    raise
                guarded_out += 1
                continue
            for report in checks:
                entry = dict(vars(report))
                if trial is not None:
                    entry["inputs"] = {**entry["inputs"], "trial": trial, "a": iv.a, "b": iv.b}
                reports.append(entry)
                if report.satisfied:
                    satisfied += 1
                else:
                    violated += 1
                    findings.append(entry)

    if args.a is not None:
        run_instance(Interval(args.a, args.b), None)
    else:
        rng = random.Random(args.seed)
        for trial in range(args.trials):
            run_instance(_draw_interval(rng, expr), trial)

    doc = {
        "command": _echo("verify", args, ("target", "fn", "a", "b", "q", "n", "p", "qbase", "panels", "trials", "seed")),
        "counts": {
            "checked": satisfied + violated + guarded_out,
            "satisfied": satisfied,
            "violated": violated,
            "guarded_out": guarded_out,
        },
        "findings": findings,
        "reports": reports,
    }
    return doc, (1 if findings else 0)


def cmd_integrate(args, cfg: ToleranceConfig):
    expr = parse(args.fn)
    iv = Interval(args.a, args.b)
    result = adaptive_midpoint(expr, iv, args.err, args.q, cfg)
    doc = {
        "command": _echo("integrate", args, ("fn", "a", "b", "err", "q")),
        "t2": result.t2,
        "t1": result.t1,
        "certificate": result.e2_bound,
        "target_error": args.err,
        "panels": result.partition.panel_count,
        "certified": result.certified,
        "certificate_order": result.order,
    }
    return doc, (0 if result.certified else 3)


def cmd_special(args, cfg: ToleranceConfig):
    if args.what in ("besselI", "besselK", "normI"):
        if args.p is None or args.x is None:
            raise ValueError(f"{args.what} needs --p and --x")
        sr = {"besselI": bessel_I, "besselK": bessel_K, "normI": normalized_I_series}[args.what](args.p, args.x, cfg)
        params = {"p": args.p, "x": args.x}
    else:
        if args.q is None or args.x is None:
            raise ValueError("qdigamma needs --q and --x")
        sr = (q_digamma(args.q, args.x, cfg) if args.order == 0
              else q_digamma_deriv(args.q, args.x, args.order, cfg))
        params = {"q": args.q, "x": args.x, "order": args.order}
    doc = {
        "command": _echo(f"special {args.what}", args, ("p", "x", "q", "order")),
        "params": params,
        "value": sr.value,
        "terms_used": sr.terms_used,
        "tail_bound": sr.tail_bound,
    }
    return doc, 0


def _render(doc: dict, pretty: bool) -> str:
    if not pretty:
        return json.dumps(doc, sort_keys=True)
    lines = [doc["command"]]
    if "reports" in doc:
        for r in doc["reports"]:
            status = "ok" if r["satisfied"] else ("VIOLATED (fragile)" if r["fragile"] else "VIOLATED")
            lines.append(
                f"  {r['label']:<14} lhs={r['lhs']:< 18.12g} rhs={r['rhs']:< 18.12g} "
                f"margin={r['margin']:< 12.4g} {status}"
            )
        c = doc["counts"]
        lines.append(
            f"  checked={c['checked']} satisfied={c['satisfied']} "
            f"violated={c['violated']} guarded_out={c['guarded_out']}"
        )
    else:
        for key in sorted(doc):
            if key != "command":
                lines.append(f"  {key} = {doc[key]!r}")
    return "\n".join(lines)


# one parser per process: parse_args leaves it unchanged, since no option has a mutable default
@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhaudit",
        description="Audit extended Hermite-Hadamard-type inequalities, certified "
        "midpoint quadrature, special means, and Bessel/q-digamma bounds.",
        epilog=_GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser(
        "verify",
        help="evaluate a named inequality on given or randomized inputs",
        epilog=_GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    v.add_argument("--target", required=True, choices=(*_TARGETS, "all"))
    v.add_argument("--fn", help="function of x (see grammar below)")
    v.add_argument("--a", type=float, help="left endpoint (omit with --b for random mode)")
    v.add_argument("--b", type=float, help="right endpoint")
    v.add_argument("--q", type=float, default=1.0, help="power-mean/Hoelder exponent, 1 <= q < inf (default 1)")
    v.add_argument("--n", type=int, default=2, help="order of the generalized log mean for prop1 (default 2)")
    v.add_argument("--p", type=float, default=2.0, help="Bessel order for prop6/prop7 (default 2)")
    v.add_argument("--qbase", type=float, default=0.5, help="q of the q-digamma for prop8/prop9 (default 0.5)")
    v.add_argument("--panels", type=int, default=1, help="uniform panels for prop4/prop5, 1 to 65536 (default 1)")
    v.add_argument("--trials", type=int, default=1, help="random intervals to draw when --a/--b omitted")
    v.add_argument("--seed", type=int, default=0, help="seed for random mode (default 0)")
    v.add_argument("--pretty", action="store_true", help="table output instead of JSON")
    v.set_defaults(run=cmd_verify)

    i = sub.add_parser("integrate", help="certified adaptive midpoint integration; exits 3 uncertified")
    i.add_argument("--fn", required=True)
    i.add_argument("--a", type=float, required=True)
    i.add_argument("--b", type=float, required=True)
    i.add_argument("--err", type=float, required=True, help="certificate target for |E2|, positive and finite")
    i.add_argument("--q", type=float, default=1.0)
    i.add_argument("--pretty", action="store_true")
    i.set_defaults(run=cmd_integrate)

    s = sub.add_parser("special", help="evaluate a special function with its error bound")
    s.add_argument("what", choices=("besselI", "besselK", "normI", "qdigamma"))
    s.add_argument("--p", type=float, help="order for besselI/besselK/normI")
    s.add_argument("--x", type=float, help="argument")
    s.add_argument("--q", type=float, help="base of the q-digamma")
    s.add_argument("--order", type=int, default=0, choices=(0, 1, 3), help="q-digamma derivative order (0 = value)")
    s.add_argument("--pretty", action="store_true")
    s.set_defaults(run=cmd_special)
    return parser


def main(argv=None) -> int:
    # argparse reads a value that starts with '-' as an option unless it looks like -1 or -.5, so an
    # option that takes a value is joined with such a token: "--a -1e-3" is read as "--a=-1e-3"
    tokens: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        last = tokens[-1] if tokens else ""
        takes_value = last.startswith("--") and "=" not in last and last not in ("--pretty", "--help")
        if takes_value and token.startswith("-") and not token.startswith("--"):
            tokens[-1] = f"{last}={token}"
        else:
            tokens.append(token)
    try:
        args = _build_parser().parse_args(tokens)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = config_from_env()
        doc, code = args.run(args, cfg)
    except (ValueError, ConvergenceError, OverflowError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_render(doc, args.pretty))
    return code


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a pipe closed after main's print fails here, not at exit
    except BrokenPipeError:  # the closed stream to devnull, so that Python's flush at exit cannot fail again
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        try:
            print("error: stdout was closed before the output was written", file=sys.stderr)
        except BrokenPipeError:  # stderr was the closed one: main's own error line met it
            os.dup2(null, sys.stderr.fileno())
        code = 2
    sys.exit(code)

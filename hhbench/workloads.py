"""Seeded inputs for the four benchmark workloads, and how one op runs.

A workload's inputs are a fixed list of *slots*, drawn from the seed in blocks
of fixed composition (how many tasks of each kind and size); only parameters
vary by seed, which keeps the cost mix nearly the same from seed to seed.

A run repeats the slot list in *rounds*.  Round 0 runs the drawn inputs; round
``r`` runs them with every real parameter scaled by ``1 + r 2^-40`` (and, for
generated function texts, extra trailing digits), so no op repeats an earlier
op's exact input while its cost stays the same.  A slot's latency is its
fastest over the rounds: on the machine this was built on, an op can take up
to half again as long during spells of contention lasting seconds, and the
fastest of many rounds spread over the run is what repeats from run to run.

A task is a plain JSON-able dict.  :meth:`Runner.call` performs it as one call
into a public ``hhaudit`` function, looked up on its module at call time so
that the tracer's patched names are the ones called.

This module imports no ``hhaudit`` code at import time: the worker times the
package import itself.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random

WORKLOADS = ("audit", "audit-fresh", "certify", "special")

# the function battery of `audit`: CLI text and a float reference used only to
# redraw intervals the way the CLI's random mode does
AUDIT_BATTERY = {
    "x^2": lambda x: x * x,
    "exp(x)+x^4": lambda x: math.exp(x) + x**4,
    "cosh(x)": math.cosh,
    "x*log(x)": lambda x: x * math.log(x),
    "1/x": lambda x: 1.0 / x,
    "x^2-5": lambda x: x * x - 5.0,
}
AUDIT_Q = ("1", "2")

# `audit-fresh`: each template is convex with |f'| and |f''| convex on x > 0
FRESH_TEMPLATES = (
    "{0}*x^2+{1}*exp({2}*x)",
    "{0}*cosh({1}*x)+{2}*x",
    "{0}*x^4+{1}*x+{2}",
    "exp({0}*x)+{1}*x^3+{2}",
)
FRESH_TARGETS = (
    "eq1", "k1", "k2", "lemma1", "lemma2", "thm2", "thm3",
    "thm4", "thm5", "thm6", "thm7", "cor1", "cor2",
)
HOELDER_ONLY = ("thm3", "thm5", "thm6", "cor1")

# `certify`: monotone on x > 0, so the total variation of f on [a, b] is
# |f(b) - f(a)|, and |f'|^q is convex there for q >= 1
CERTIFY_FUNCTIONS = {
    "x^2": lambda x: x * x,
    "exp(x)": math.exp,
    "cosh(x)": math.cosh,
    "x^4": lambda x: x**4,
}
PANEL_CAP = 1 << 16  # hhaudit.quadrature's refinement cap

# (final panel count, tasks per block); the slot list adds one cap-bound task
CERTIFY_LEVELS = ((32, 11), (128, 12), (512, 8))
CERTIFY_UNIFORM = (("prop4", 16, 4), ("prop5", 16, 4))

# `special`: (kind, tasks per block)
SPECIAL_MIX = (
    ("bessel_I", 3),
    ("normalized_I_series", 3),
    ("bessel_K", 4),
    ("q_digamma", 4),
    ("q_digamma_deriv", 4),
    ("means", 3),
    ("bessel_props", 2),
    ("qdigamma_props", 2),
)

# blocks in the slot list; certify's list also starts with one cap-bound task
BLOCKS = {"audit": 9, "audit-fresh": 16, "certify": 6, "special": 100}

# slots whose round-0 outputs the correctness check and the digest cover
CHECKED_SLOTS = {"audit": 24, "audit-fresh": 104, "certify": 41, "special": 100}

PERTURB = 2.0**-40


def _coef(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.4f}"


def _audit_interval(rng: random.Random, fn) -> tuple[float, float]:
    """a ~ U(0.5, 5), width ~ U(0.1, 2), redrawn until f is defined at the five
    structural points of the widened interval, as the CLI's random mode does."""
    while True:
        a = rng.uniform(0.5, 5.0)
        b = a + rng.uniform(0.1, 2.0)
        try:
            for x in ((3.0 * a - b) / 2.0, a, (a + b) / 2.0, b, (3.0 * b - a) / 2.0):
                fn(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            continue
        return a, b


def _audit_block(rng: random.Random) -> list[dict]:
    tasks = []
    for text, fn in AUDIT_BATTERY.items():
        for q in AUDIT_Q:
            a, b = _audit_interval(rng, fn)
            tasks.append({"kind": "cli", "target": "all", "fn": text, "a": a, "b": b, "q": q})
    rng.shuffle(tasks)
    return tasks


def _fresh_block(rng: random.Random) -> list[dict]:
    tasks = []
    for target in FRESH_TARGETS:
        template = rng.choice(FRESH_TEMPLATES)
        coefs = [_coef(rng, 0.2, 1.5) for _ in range(3)]
        a = rng.uniform(1.0, 4.0)
        b = a + rng.uniform(0.1, 1.5)
        q = "2" if target in HOELDER_ONLY else rng.choice(AUDIT_Q)
        tasks.append({"kind": "cli", "target": target, "template": template, "coefs": coefs,
                      "fn": template.format(*coefs), "a": a, "b": b, "q": q})
    rng.shuffle(tasks)
    return tasks


def certificate_estimate(fn_text: str, a: float, b: float, q: float, panels: int) -> float:
    """Asymptotic size of hhaudit's first-order midpoint certificate.

    On a uniform grid with spacing h, the certificate sum
    (1/8) sum h^2 (|f'(lo*)|^q + |f'(hi*)|^q)^(1/q) tends to
    (1/8) 2^(1/q) h TV(f), with TV the total variation of f on [a, b].  The
    constant is 1/8 for the q in {1, 2} drawn here.  Targets are placed between
    the estimates at N and N/2 panels, with a margin far above the O(h^2)
    error of the estimate, so that each task ends at a known panel count.
    """
    fn = CERTIFY_FUNCTIONS.get(fn_text, lambda x: x)
    tv = abs(fn(b) - fn(a))
    return 0.125 * 2.0 ** (1.0 / q) * (b - a) / panels * tv


def _certify_block(rng: random.Random) -> list[dict]:
    names = list(CERTIFY_FUNCTIONS)
    tasks = []

    def draw():
        a = rng.uniform(0.5, 2.5)
        return a, a + rng.uniform(0.25, 1.5)

    for panels, count in CERTIFY_LEVELS:
        for i in range(count):
            fn = names[i % len(names)]
            q = float(1 + (i // len(names)) % 2)
            a, b = draw()
            target = certificate_estimate(fn, a, b, q, panels) * rng.uniform(1.3, 1.7)
            tasks.append({"kind": "adaptive", "fn": fn, "a": a, "b": b, "q": q,
                          "target": target, "panels": panels})
    for kind, panels, count in CERTIFY_UNIFORM:
        for i in range(count):
            a, b = draw()
            tasks.append({"kind": kind, "fn": names[i % len(names)], "a": a, "b": b,
                          "q": float(1 + i % 2), "panels": panels})
    rng.shuffle(tasks)
    return tasks


def _cap_bound_task(rng: random.Random) -> dict:
    """A target below the certificate at the panel cap: it ends uncertified."""
    a = rng.uniform(0.5, 2.5)
    b = a + rng.uniform(0.25, 1.5)
    target = certificate_estimate("x", a, b, 1.0, PANEL_CAP) * rng.uniform(0.3, 0.6)
    return {"kind": "adaptive", "fn": "x", "a": a, "b": b, "q": 1.0, "target": target, "panels": PANEL_CAP}


def _special_task(rng: random.Random, kind: str, i: int) -> dict:
    """The ``i``-th task of its kind in a block.  Whatever switches a call to
    another branch or series (q below or above 1, derivative order, which
    proposition, whether prop7 runs) follows ``i``, so every block takes the
    same branches and only the parameters within them vary by seed."""
    if kind in ("bessel_I", "normalized_I_series"):
        return {"kind": kind, "p": rng.uniform(0.0, 3.0), "x": rng.uniform(0.1, 8.0)}
    if kind == "bessel_K":
        return {"kind": kind, "p": rng.uniform(0.0, 3.0), "x": rng.uniform(0.5, 5.0)}
    if kind in ("q_digamma", "q_digamma_deriv", "qdigamma_props"):
        q = rng.uniform(0.2, 0.9) if i % 2 == 0 else rng.uniform(1.15, 3.0)
        task = {"kind": kind, "q": q}
        if kind == "qdigamma_props":
            a = rng.uniform(1.5, 4.0)
            task.update(a=a, b=a + rng.uniform(0.1, min(1.5, 2.0 * (a - 1.0))))
        else:
            task["x"] = rng.uniform(1.0, 4.0)
            if kind == "q_digamma_deriv":
                task["order"] = (1, 3)[i // 2 % 2]
        return task
    if kind == "means":
        a = rng.uniform(0.5, 4.0)
        return {"kind": kind, "prop": ("P1", "P2", "P3")[i % 3], "a": a,
                "b": a + rng.uniform(0.1, 1.9 * a), "q": rng.choice((1.0, 1.5, 2.0, 3.0)),
                "n": rng.choice((2, 3, -2))}
    # bessel_props: b < 3a - 1 keeps the widened interval in [0.5, inf), so
    # the second-kind values of the prop7 branch, which runs when p > 1, keep
    # an absolute error target
    a = rng.uniform(1.0, 4.0)
    p = rng.uniform(1.1, 2.5) if i % 2 == 0 else rng.uniform(0.0, 0.9)
    return {"kind": kind, "p": p, "a": a, "b": a + rng.uniform(0.1, min(2.0, 2.0 * a - 1.0))}


def _special_block(rng: random.Random) -> list[dict]:
    tasks = [_special_task(rng, kind, i) for kind, count in SPECIAL_MIX for i in range(count)]
    rng.shuffle(tasks)
    return tasks


_BLOCKS = {
    "audit": _audit_block,
    "audit-fresh": _fresh_block,
    "certify": _certify_block,
    "special": _special_block,
}


def block(workload: str, seed: int, index: int) -> list[dict]:
    """Block ``index`` of the workload's inputs for ``seed``."""
    return _BLOCKS[workload](random.Random(f"{workload}:{seed}:{index}"))


def slots(workload: str, seed: int) -> list[dict]:
    """The workload's slot list for ``seed``: the inputs of round 0."""
    out: list[dict] = []
    if workload == "certify":
        out.append(_cap_bound_task(random.Random(f"{workload}:{seed}:cap")))
    for index in range(BLOCKS[workload]):
        out.extend(block(workload, seed, index))
    return out


def perturbed(task: dict, r: int) -> dict:
    """The task as round ``r`` runs it; round 0 runs it unchanged."""
    if r == 0:
        return task
    scale = 1.0 + r * PERTURB
    out = dict(task)
    for key in ("a", "b", "x"):
        if key in out:
            out[key] *= scale
    if "coefs" in out:
        out["fn"] = out["template"].format(*(c + f"{r:04d}" for c in out["coefs"]))
    return out


def functions(workload: str, seed: int) -> list[str]:
    """Function texts the workload parses during set-up."""
    if workload == "audit":
        return list(AUDIT_BATTERY)
    if workload == "certify":
        return list(CERTIFY_FUNCTIONS) + ["x"]
    if workload == "audit-fresh":
        return [t["fn"] for t in block(workload, seed, 0)]
    return []


@dataclasses.dataclass
class Outcome:
    """What one op produced: its emitted JSON text, or why it failed."""

    text: str | None = None
    error: str | None = None
    uncertified: bool = False


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


class Runner:
    """Runs tasks against the imported ``hhaudit`` modules.

    ``exprs`` holds the functions parsed at set-up; library ops reuse them,
    while CLI ops parse their ``--fn`` inside ``cli.main`` like a shell call.
    """

    def __init__(self, hh, exprs: dict):
        self.hh = hh
        self.exprs = exprs

    def call(self, task: dict):
        """The op itself: one call into hhaudit; returns its raw result."""
        hh = self.hh
        kind = task["kind"]
        if kind == "cli":
            argv = ["verify", "--target", task["target"], "--fn", task["fn"],
                    "--a", repr(task["a"]), "--b", repr(task["b"]), "--q", task["q"]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = hh.cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        if kind in ("adaptive", "prop4", "prop5"):
            f = self.exprs[task["fn"]]
            iv = hh.core.Interval(task["a"], task["b"])
            if kind == "adaptive":
                return hh.quadrature.adaptive_midpoint(f, iv, task["target"], task["q"])
            partition = hh.quadrature.Partition.uniform(iv, task["panels"])
            if kind == "prop4":
                return hh.quadrature.prop4_check(f, partition)
            return hh.quadrature.midpoint_error_bound(f, partition, task["q"])
        sf = hh.special_fns
        if kind == "bessel_I":
            return sf.bessel_I(task["p"], task["x"])
        if kind == "normalized_I_series":
            return sf.normalized_I_series(task["p"], task["x"])
        if kind == "bessel_K":
            return sf.bessel_K(task["p"], task["x"])
        if kind == "q_digamma":
            return sf.q_digamma(task["q"], task["x"])
        if kind == "q_digamma_deriv":
            return sf.q_digamma_deriv(task["q"], task["x"], task["order"])
        if kind == "means":
            return hh.means.means_proposition_check(
                task["prop"], task["a"], task["b"], q=task["q"], n=task["n"]
            )
        if kind == "bessel_props":
            return sf.bessel_prop_checks(task["p"], task["a"], task["b"])
        if kind == "qdigamma_props":
            return sf.qdigamma_prop_checks(task["q"], task["a"], task["b"])
        raise ValueError(f"unknown task kind {kind!r}")

    def outcome(self, task: dict, result, want_text: bool) -> Outcome:
        """Classify a result; render its JSON text only when ``want_text``."""
        kind = task["kind"]
        if kind == "cli":
            code, out, err = result
            # documented exit codes: 0 no violation, 1 violation finding
            if code not in (0, 1):
                return Outcome(error=f"exit {code}: {err.strip()}")
            return Outcome(text=out if want_text else None)
        if kind == "adaptive":
            uncertified = not result.certified
            if not want_text:
                return Outcome(uncertified=uncertified)
            doc = {"t1": result.t1, "t2": result.t2, "e2_bound": result.e2_bound,
                   "panels": result.partition.panel_count, "certified": result.certified}
            return Outcome(text=_dump(doc), uncertified=uncertified)
        if not want_text:
            return Outcome()
        if kind == "prop5":
            return Outcome(text=_dump({"bound": result}))
        if kind in ("means", "bessel_props", "qdigamma_props"):
            return Outcome(text=_dump([dataclasses.asdict(r) for r in result]))
        return Outcome(text=_dump(dataclasses.asdict(result)))

"""Correctness check of emitted outputs against an independent mpmath reference.

Only the benchmark imports mpmath; the program under test stays pure stdlib.

* Integral sides of the audit reports and the certified midpoint sums are
  recomputed with ``mpmath.quad`` at 30 digits.  The audit reports carry no
  error estimate, so they must agree to 1e-9 relative to the size of the
  terms: two orders above the reference integrator's 1e-10 relative floor,
  and far below what a wrong point, weight or constant would give.
* Certified integrals must lie within their certificate of ``mpmath.quad``.
* Special-function values must lie within their ``tail_bound`` plus a
  rounding allowance of ``8 (terms + 8) eps`` times the size of the terms
  (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3).
* Reports of the proposition checks must be self-consistent.

Each checker returns a list of problems; an empty list means the op is correct.
"""

from __future__ import annotations

import json
import math

import mpmath
from mpmath import mp, mpf

mp.dps = 30

EPS = 2.0**-52
REL = 1e-9

_MP_NAMES = {
    "exp": mpmath.exp, "log": mpmath.log, "sqrt": mpmath.sqrt,
    "sinh": mpmath.sinh, "cosh": mpmath.cosh, "abs": abs,
}


def mp_function(text: str):
    """The hhaudit grammar is Python's expression grammar with ``^`` for ``**``
    (right-associative, binding tighter than unary minus in both), so the
    text evaluates directly over mpmath.  Texts come from the benchmark's own
    generators, never from outside input."""
    code = compile(text.replace("^", "**"), "<fn>", "eval")
    return lambda x: eval(code, {"__builtins__": {}, **_MP_NAMES}, {"x": x})


def _close(got: float, want, scale, what: str, problems: list) -> None:
    tol = REL * (1 + float(abs(scale)))
    if not abs(mpf(got) - want) <= tol:
        problems.append(f"{what}: got {got!r}, reference {mpmath.nstr(want, 17)} (tol {tol:.3g})")


def _extend(a: float, b: float) -> tuple[float, float, float]:
    # the same float operations as hhaudit.core.extend, so that both sides
    # evaluate f at identical points
    return (3.0 * a - b) / 2.0, (3.0 * b - a) / 2.0, (a + b) / 2.0


def check_cli(task: dict, text: str) -> list[str]:
    """Recompute every side of a verify report that involves the mean integral."""
    doc = json.loads(text)
    f = mp_function(task["fn"])
    a, b = task["a"], task["b"]
    lo, hi, mid = _extend(a, b)
    mean = mpmath.quad(f, [a, b]) / (mpf(b) - mpf(a))
    fa, fb, flo, fhi, fmid = (f(mpf(x)) for x in (a, b, lo, hi, mid))
    scale = max(abs(v) for v in (mean, fa, fb, flo, fhi, fmid))
    three_point = (flo + fhi + 2 * fmid) / 4
    sides = {
        "eq1.lower": (fmid, mean),
        "eq1.upper": (mean, (fa + fb) / 2),
        "k1.lower": (fmid, mean),
        "k1.upper": (mean, three_point),
        "k2": (abs(mean - fmid / 2), abs(fhi + flo) / 4),
        "lemma1": (mpf(0), None),
        "lemma2": (mpf(0), None),
    }
    for label in ("thm2", "thm3", "cor1"):
        sides[label] = (abs(mean - fmid), None)
    for label in ("thm4", "thm5", "thm6", "thm7", "cor2"):
        sides[label] = (abs(mean - three_point), None)
    problems: list[str] = []
    if not doc["reports"] and not doc["counts"]["guarded_out"]:
        problems.append("no reports")
    for r in doc["reports"]:
        lhs, rhs = sides[r["label"]]
        _close(r["lhs"], lhs, scale, f"{r['label']}.lhs", problems)
        if rhs is not None:
            _close(r["rhs"], rhs, scale, f"{r['label']}.rhs", problems)
    return problems


def check_known_finding(code: int, text: str) -> list[str]:
    """``verify --target k2 --fn x^2-5 --a 0 --b 2``: lhs 5/3 against rhs 0."""
    doc = json.loads(text)
    findings = doc["findings"]
    if code != 1 or len(findings) != 1:
        return [f"k2 finding on x^2-5 over [0, 2] did not fire (exit {code})"]
    r = findings[0]
    if r["label"] != "k2" or abs(r["lhs"] - 5.0 / 3.0) > 1e-12 or r["rhs"] != 0.0:
        return [f"k2 finding changed: {r!r}"]
    return []


def _uniform_points(a: float, b: float, m: int) -> list[float]:
    # hhaudit.quadrature.Partition.uniform, operation for operation
    width = b - a
    pts = [a + width * i / m for i in range(m + 1)]
    pts[0], pts[-1] = a, b
    return pts


def _midpoint_sum(f, pts: list[float]):
    return mpmath.fsum(f(mpf(0.5 * (l + r))) * (mpf(r) - mpf(l)) for l, r in zip(pts, pts[1:]))


def check_quadrature(task: dict, text: str) -> list[str]:
    doc = json.loads(text)
    f = mp_function(task["fn"])
    a, b = task["a"], task["b"]
    exact = mpmath.quad(f, [a, b])
    problems: list[str] = []
    kind = task["kind"]
    if kind == "adaptive":
        n = doc["panels"]
        slack = doc["e2_bound"] * (1 + REL) + 4 * (n + 1) * EPS * max(1, abs(exact))
        if not abs(mpf(doc["t2"]) - exact) <= slack:
            problems.append(f"t2 {doc['t2']!r} outside its certificate {doc['e2_bound']!r} of {exact}")
        if doc["certified"] != (doc["e2_bound"] <= task["target"]):
            problems.append("certified flag disagrees with the certificate and target")
        return problems
    pts = _uniform_points(a, b, task["panels"])
    t2 = _midpoint_sum(f, pts)
    if kind == "prop5":
        if not doc["bound"] * (1 + REL) >= abs(exact - t2):
            problems.append(f"certificate {doc['bound']!r} below the true error {abs(exact - t2)}")
        return problems
    mid_sum = mpf(0)
    for l, r in zip(pts, pts[1:]):
        elo, ehi, _ = _extend(l, r)
        mid_sum += (mpf(r) - mpf(l)) * abs(f(mpf(elo)) + f(mpf(ehi))) / 2
    _close(doc["lhs"], abs(2 * exact - t2), abs(2 * exact) + abs(t2), "prop4.lhs", problems)
    _close(doc["rhs"], mid_sum, mid_sum, "prop4.rhs", problems)
    return problems


def _q_digamma(q, x):
    """psi_q from sum_{n>=0} u/(1-u), u = r^(n+x) with r = min(q, 1/q); the
    program sums the other form, sum_{k>=1} r^(kx)/(1-r^k).  Returns the value
    and the size of its terms."""
    q, x = mpf(q), mpf(x)
    r = q if q < 1 else 1 / q
    s, n = mpf(0), 0
    while True:
        u = r ** (n + x)
        term = u / (1 - u)
        s += term
        if term < mpf(10) ** (-mp.dps - 5):
            break
        n += 1
    lnq = mpmath.log(q)
    if q < 1:
        parts = (-mpmath.log(1 - q), lnq * s)
    else:
        parts = (-mpmath.log(q - 1), lnq * (x - mpf(1) / 2), -lnq * s)
    return sum(parts), max(abs(p) for p in parts)


def _special_reference(task: dict):
    kind = task["kind"]
    if kind in ("bessel_I", "normalized_I_series", "bessel_K"):
        p, x = mpf(task["p"]), mpf(task["x"])
        if kind == "bessel_K":
            ref = mpmath.besselk(p, x)
        else:
            ref = mpmath.besseli(p, x)
            if kind == "normalized_I_series":
                ref *= 2**p * mpmath.gamma(p + 1) * x ** (-p)
        return ref, abs(ref)
    if kind == "q_digamma":
        return _q_digamma(task["q"], task["x"])
    order = task["order"]
    ref = mpmath.diff(lambda t: _q_digamma(task["q"], t)[0], mpf(task["x"]), order)
    return ref, abs(ref)


def _check_reports(text: str) -> list[str]:
    problems = []
    for r in json.loads(text):
        if not (math.isfinite(r["lhs"]) and math.isfinite(r["rhs"])):
            problems.append(f"{r['label']}: non-finite side")
        elif r["margin"] != r["rhs"] - r["lhs"] or r["satisfied"] != (r["margin"] >= -1e-12):
            problems.append(f"{r['label']}: margin or verdict inconsistent with its sides")
    return problems


def check_special(task: dict, text: str) -> list[str]:
    if task["kind"] in ("means", "bessel_props", "qdigamma_props"):
        return _check_reports(text)
    doc = json.loads(text)
    ref, size = _special_reference(task)
    slack = doc["tail_bound"] + 8 * (doc["terms_used"] + 8) * EPS * float(size)
    err = abs(mpf(doc["value"]) - ref)
    if not err <= slack:
        return [f"value {doc['value']!r} differs from {mpmath.nstr(ref, 17)} by {mpmath.nstr(err, 3)} > {slack:.3g}"]
    return []


def check(task: dict, text: str) -> list[str]:
    kind = task["kind"]
    if kind == "cli":
        return check_cli(task, text)
    if kind in ("adaptive", "prop4", "prop5"):
        return check_quadrature(task, text)
    return check_special(task, text)

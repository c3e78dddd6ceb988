"""The recursive third-order jet interpreter, kept as the reference for the
compiled evaluators in :mod:`hhaudit.exprlang`.

It walks the tree once per point and builds one :class:`Jet3` per node, always
to third order.  The compiled evaluators must reproduce its coefficients bit
for bit and raise its :class:`DomainError` messages at the same points.  The
value variant has no derivative to check, so at the kink of ``abs`` it is
compared with ``eval_jet(e, x, at_kink=True)``, which takes |0| there.
"""

from __future__ import annotations

import math

from hhaudit.core import DomainError
from hhaudit.exprlang import BinOp, Call, Const, Expr, Jet3, Neg, Pow, Var


def _compose(u0: float, u1: float, u2: float, u3: float, g: Jet3) -> Jet3:
    """Chain rule to third order: u(g(x)) given derivatives of u at g.v0."""
    g1, g2, g3 = g.v1, g.v2, g.v3
    return Jet3(
        u0,
        u1 * g1,
        u2 * g1 * g1 + u1 * g2,
        u3 * g1 * g1 * g1 + 3.0 * u2 * g1 * g2 + u1 * g3,
    )


def _recip(g: Jet3, x: float) -> Jet3:
    if g.v0 == 0.0:
        raise DomainError(f"division by zero at x = {x!r}")
    v = 1.0 / g.v0
    return _compose(v, -v * v, 2.0 * v**3, -6.0 * v**4, g)


def _int_power(g: Jet3, n: int, x: float) -> Jet3:
    # square-and-multiply from g keeps integer powers exact without a sign/domain split
    if n == 0:
        return Jet3(1.0, 0.0, 0.0, 0.0)
    if n < 0:
        return _recip(_int_power(g, -n, x), x)
    result = None
    base = g
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _pow_jet(g: Jet3, r: float, x: float) -> Jet3:
    if float(r).is_integer() and abs(r) <= 2**31:
        return _int_power(g, int(r), x)
    if g.v0 <= 0.0:
        raise DomainError(
            f"x^{r!r} needs a positive base for non-integer exponent; base = {g.v0!r} at x = {x!r}"
        )
    u0 = g.v0**r
    u1 = r * g.v0 ** (r - 1.0)
    u2 = r * (r - 1.0) * g.v0 ** (r - 2.0)
    u3 = r * (r - 1.0) * (r - 2.0) * g.v0 ** (r - 3.0)
    return _compose(u0, u1, u2, u3, g)


def _call_jet(name: str, g: Jet3, x: float, at_kink: bool) -> Jet3:
    v = g.v0
    if name == "exp":
        try:
            ev = math.exp(v)
        except OverflowError:
            raise DomainError(f"exp overflow at x = {x!r} (arg = {v!r})") from None
        return _compose(ev, ev, ev, ev, g)
    if name == "log":
        if v <= 0.0:
            raise DomainError(f"log of nonpositive argument at x = {x!r} (arg = {v!r})")
        return _compose(math.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3, g)
    if name == "sqrt":
        if v <= 0.0:
            raise DomainError(f"sqrt of nonpositive argument at x = {x!r} (arg = {v!r})")
        s = math.sqrt(v)
        return _compose(s, 0.5 / s, -0.25 / (v * s), 0.375 / (v * v * s), g)
    if name == "sinh":
        try:
            sh, ch = math.sinh(v), math.cosh(v)
        except OverflowError:
            raise DomainError(f"sinh overflow at x = {x!r} (arg = {v!r})") from None
        return _compose(sh, ch, sh, ch, g)
    if name == "cosh":
        try:
            sh, ch = math.sinh(v), math.cosh(v)
        except OverflowError:
            raise DomainError(f"cosh overflow at x = {x!r} (arg = {v!r})") from None
        return _compose(ch, sh, ch, sh, g)
    if name == "abs":
        if v == 0.0:
            if at_kink:
                return Jet3(abs(v), math.nan, math.nan, math.nan)
            raise DomainError(f"abs is not differentiable at 0 (x = {x!r})")
        return g if v > 0.0 else -g
    raise ValueError(f"unknown function {name!r}")


def eval_jet(e: Expr, x: float, at_kink: bool = False) -> Jet3:
    """Evaluate ``e`` and its first three derivatives at ``x``.

    Raises :class:`~hhaudit.core.DomainError` naming the operator and the
    point whenever the evaluation leaves a function's domain.  With ``at_kink``,
    ``abs`` at 0 gives |0| and NaN derivatives instead; no value depends on them.
    """
    if isinstance(e, Const):
        return Jet3(e.value, 0.0, 0.0, 0.0)
    if isinstance(e, Var):
        return Jet3(x, 1.0, 0.0, 0.0)
    if isinstance(e, Neg):
        return -eval_jet(e.operand, x, at_kink)
    if isinstance(e, BinOp):
        left = eval_jet(e.left, x, at_kink)
        right = eval_jet(e.right, x, at_kink)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if e.op == "/":
            return left * _recip(right, x)
        raise ValueError(f"unknown operator {e.op!r}")
    if isinstance(e, Pow):
        return _pow_jet(eval_jet(e.base, x, at_kink), e.exponent, x)
    if isinstance(e, Call):
        return _call_jet(e.name, eval_jet(e.arg, x, at_kink), x, at_kink)
    raise TypeError(f"not an Expr node: {type(e).__name__}")

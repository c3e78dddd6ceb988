"""One-variable function parsing and truncated-Taylor (jet) evaluation.

Grammar (this is also the CLI's function-input format)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?        # exponent must be constant
    atom   := NUMBER | 'x' | NAME '(' expr ')' | '(' expr ')'

Functions: ``exp``, ``log``, ``sqrt``, ``sinh``, ``cosh``, ``abs``.  It is Python's expression grammar
with ``^`` for ``**``, read by :func:`ast.parse`: ``^`` is right-associative and binds tighter than
unary minus, and an integer with leading zeros ("007") is refused.  Implicit multiplication ("2x") is
not recognized.  A tree deeper than :data:`MAX_DEPTH` levels is a :class:`ParseError`; parentheses
add no level.

Evaluation is forward Taylor-mode (Griewank & Walther, *Evaluating Derivatives*,
2nd ed., ch. 13), compiled once per process per tree shape and order: :meth:`Expr.compiled`
emits straight-line Python for f, f', ..., f^(k) on first use, with the tree's constants
as arguments, so x^2 - c compiles once for every c.  ``f(x)`` runs the value variant and
the bound checks the (f, f') and (f, f', f'') ones; only :func:`eval_jet` computes f'''.  Next
to each variant its source holds a ``scan`` of a region, from the template that :mod:`hhaudit.core`
owns: the convexity guard samples f or |f^(k)|^q through it in one call, with the jet's own lines
inlined once, at the grid pass's one point.  Truncation drops operations but changes none, so it
is bit-exact; the value variant also drops the kink check of ``abs``, which is |0| there.  A
numeric exponent, negated or not, is kept as it is; a computed one, such as ``1/3``, is folded
to its compiled value at 0, which is the only compiling that parsing does.  A number that is not
finite, written or folded, is a :class:`ParseError`.
"""

from __future__ import annotations

import ast
import math
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from .core import DomainError, scan_source, undefined


class ParseError(ValueError):
    """Malformed function text; carries the character offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class Expr:
    """Base class for AST nodes, callable as plain float functions; each node type
    emits its jet through an :class:`_Emitter` in ``_emit``."""

    def __call__(self, x: float) -> float:
        return self.compiled(0)(x)

    def compiled(self, order: int) -> Callable[[float], Any]:
        """The evaluator of f and its first ``order`` derivatives (0 <= order <= 3).

        Order 0 returns f(x); order k >= 1 returns the tuple (f(x), ..., f^(k)(x)).
        Each order is kept on this node, outside its equality and hash.  A process
        cache of the last 64 compiled factories is keyed by the node's shape: its
        :func:`to_text` with each constant a placeholder.  The factory takes the
        constants, in the order :func:`to_text` renders them, and returns the evaluator.
        """
        try:
            return self._evaluators[order]
        except (AttributeError, KeyError):
            if order not in (0, 1, 2, 3):
                raise ValueError(f"order must be 0, 1, 2 or 3, got {order!r}") from None
        if "_evaluators" not in vars(self):
            consts: list[float] = []
            self.__dict__.update(_evaluators={}, _consts=consts, _shape=to_text(self, lambda v: consts.append(v) or "c"))
        key = (self._shape, order)
        make = _CACHE.get(key)
        if make is None:
            make = _CACHE[key] = _compile(self, order)
            if len(_CACHE) > _CACHE_SIZE:
                _CACHE.popitem(last=False)
        return self._evaluators.setdefault(order, make(*self._consts))

    def twice_differentiable(self) -> bool:
        """Whether f is known to be C^2 where defined: no ``abs``, the one function with a kink, in the
        shape text that :meth:`compiled` caches.  Conservative: abs(x - 3) fails even on [0, 2]."""
        self.compiled(0)
        return "abs(" not in self._shape

    def __getstate__(self) -> dict[str, Any]:
        # compiled functions cannot be pickled; an unpickled node fetches them again on use
        return {k: v for k, v in vars(self).items() if k not in ("_evaluators", "_consts", "_shape")}


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def _emit(self, out: _Emitter) -> Jet3:
        return out.jet(Jet3(out.const(), *map(out.lit, (0.0, 0.0, 0.0))))


@dataclass(frozen=True)
class Var(Expr):
    def _emit(self, out: _Emitter) -> Jet3:
        return out.jet(Jet3(out.x, *map(out.lit, (1.0, 0.0, 0.0))))


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr

    def _emit(self, out: _Emitter) -> Jet3:
        return out.jet(-self.operand._emit(out))


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr

    def _emit(self, out: _Emitter) -> Jet3:
        left, right = self.left._emit(out), self.right._emit(out)
        if self.op == "+":
            return out.jet(left + right)
        if self.op == "-":
            return out.jet(left - right)
        if self.op == "*":
            return out.jet(left * right)
        if self.op == "/":
            return out.jet(left * out.reciprocal(right))
        raise ValueError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: float

    def _emit(self, out: _Emitter) -> Jet3:
        g, r = self.base._emit(out), self.exponent
        if float(r).is_integer() and abs(r) <= 2**31:
            return out.int_power(g, int(r))
        v = g.v0
        out.check(v <= 0.0, f"x^{r!r} needs a positive base for non-integer exponent; base = %r at x = %r", v, out.x)
        u = [v**r, r * v ** (r - 1.0), r * (r - 1.0) * v ** (r - 2.0), r * (r - 1.0) * (r - 2.0) * v ** (r - 3.0)]
        return out.compose(u, g)


@dataclass(frozen=True)
class Call(Expr):
    name: str
    arg: Expr

    def _emit(self, out: _Emitter) -> Jet3:
        g = self.arg._emit(out)
        v, name = g.v0, self.name
        if name == "exp":
            (ev,) = out.guarded(["exp"], v, "exp overflow at x = %r (arg = %r)")
            return out.compose([ev, ev, ev, ev], g)
        if name in ("sinh", "cosh"):
            # each is the other's derivative, which the value variant does not need; both overflow at ±710.4758...
            names = [name, "cosh" if name == "sinh" else "sinh"] if out.order else [name]
            u0, u1, *_ = *out.guarded(names, v, f"{name} overflow at x = %r (arg = %r)"), _CUT
            return out.compose([u0, u1, u0, u1], g)
        if name in ("log", "sqrt"):
            out.check(v <= 0.0, f"{name} of nonpositive argument at x = %r (arg = %r)", out.x, v)
            if name == "log":
                return out.compose([_Src(f"log({v})"), 1.0 / v, -1.0 / v**2, 2.0 / v**3], g)
            s = out.let(_Src(f"sqrt({v})"))
            return out.compose([s, 0.5 / s, -0.25 / (v * s), 0.375 / (v * v * s)], g)
        if name == "abs":
            # the kink has a value, |0| = 0, but no derivative
            if out.order:
                out.check(v == 0.0, "abs is not differentiable at 0 (x = %r)", out.x)
            _, *slopes = out.pick(v > 0.0, g, -g)
            return out.jet(Jet3(_Src(f"abs({v})"), *slopes))
        raise ValueError(f"unknown function {name!r}")


_FUNCTIONS = ("exp", "log", "sqrt", "sinh", "cosh", "abs")
_OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
# a character outside the grammar's alphabet, or Python's own '**'
_REFUSED = re.compile(r"[^0-9A-Za-z_.+\-*/^() ]|(?<=\*)\*")
# the end of a number with a letter or '_' after it, as in 2x, 0x10, 1_0 and 1j, so that Python reads only decimal
# numbers, and in 1if, about which Python would warn
_NUMBER_THEN_LETTER = re.compile(r"[0-9]\.?(?=[A-DF-Za-df-z_]|[eE](?![+-]?[0-9]))")
# CPython 3.11.7 keeps the depth count of ast.parse's tree building per interpreter, not per thread:
# threads parsing at once raised SystemError("AST constructor recursion depth mismatch")
_AST_LOCK = threading.Lock()
# x as a name, in the text of an exponent that holds only the grammar's names
_X = re.compile(r"\bx\b")

# The deepest tree the parser accepts: each number, x, minus sign, call, '^' and binary operator on a
# path from the root is a level, and parentheses, which build no node, are none.  At the default
# recursion limit, CPython 3.10 and 3.11 fail near 198 levels in == and hash, 330 in repr and
# compiled(3); 100 leaves half the stack.
MAX_DEPTH = 100


def parse(text: str) -> Expr:
    """Parse function text into an AST; raises :class:`ParseError` with a character offset.  Python's parser
    reads the text, ``^`` spelled ``**``, the walk keeps the grammar's nodes, and a :class:`SyntaxError` keeps
    its message."""
    text = re.sub(r"\s", " ", text)  # one line, at the same offsets
    source = text.lstrip()  # Python reads leading spaces as an indent
    if not source:
        raise ParseError("empty expression", 0)
    if bad := _REFUSED.search(text):
        raise ParseError(f"unrecognized character {bad.group()!r}", bad.start())
    if bad := _NUMBER_THEN_LETTER.search(text):
        raise ParseError("invalid decimal literal", bad.start())
    spelled = source.replace("^", "**")

    def at(n: int) -> int:
        """The offset in ``text`` of offset ``n`` in ``spelled``, where each caret is two characters."""
        carets = [m.start() for m in re.finditer(r"\^", source)]
        return len(text) - len(source) + n - sum(p + k < n for k, p in enumerate(carets))

    def walk(node: ast.expr, depth: int) -> Expr:
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", at(node.col_offset))
        kind = type(node)
        if kind is ast.Constant and type(node.value) in (int, float):
            if not math.isfinite(value := float(number := spelled[node.col_offset:node.end_col_offset])):
                raise ParseError(f"number {number!r} is not finite", at(node.col_offset))
            return Const(value)
        if kind is ast.Name and node.id == "x":
            return Var()
        if kind is ast.UnaryOp and type(node.op) is ast.USub:
            return Neg(walk(node.operand, depth + 1))
        if kind is ast.BinOp and (op := _OPERATORS.get(type(node.op))):
            return BinOp(op, walk(node.left, depth + 1), walk(node.right, depth + 1))
        if kind is ast.BinOp and type(node.op) is ast.Pow:
            base, exponent = walk(node.left, depth + 1), walk(node.right, depth + 1)
            caret = spelled.index("**", node.left.end_col_offset)
            if _X.search(spelled, node.right.col_offset, node.right.end_col_offset):
                raise ParseError("exponent must be constant (no x in exponent)", at(caret))
            try:
                value = (exponent.value if isinstance(exponent, Const)
                         else -exponent.operand.value if isinstance(exponent, Neg) and isinstance(exponent.operand, Const)
                         else exponent.compiled(0)(0.0))
            except (DomainError, OverflowError) as exc:
                raise ParseError(f"invalid constant exponent: {exc}", at(caret)) from None
            if not math.isfinite(value):
                raise ParseError(f"constant exponent is not finite: {value!r}", at(caret))
            return Pow(base, value)
        if kind is ast.Call and getattr(node.func, "id", None) in _FUNCTIONS and len(node.args) == 1 and not node.keywords:
            return Call(node.func.id, walk(node.args[0], depth + 1))
        if (name := getattr(node.func if kind is ast.Call else node, "id", "x")) not in ("x", *_FUNCTIONS):
            raise ParseError(f"unknown identifier {name!r}", at(node.col_offset))
        raise ParseError(f"unexpected {text[at(node.col_offset):at(node.end_col_offset)]!r}", at(node.col_offset))

    try:
        with _AST_LOCK:
            tree = ast.parse(spelled, mode="eval").body
    except SyntaxError as exc:
        raise ParseError(exc.msg, at(exc.offset - 1) if exc.offset else len(text)) from None
    except (RecursionError, MemoryError):  # Python's parser gives out thousands of levels deep
        raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", 0) from None
    return walk(tree, 1)


def _number(v: float) -> str:
    return str(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(v)


def to_text(e: Expr, const: Callable[[float], str] = _number) -> str:
    """Render an AST back to text that parses to the same tree; ``const`` renders each constant.
    The grammar is Python's with ``^`` for ``**``, so the precedences of :data:`_PRECEDENCE` place
    the parentheses: only where the grouping needs them, and around a right operand of equal
    precedence, so ``a - (b - c)`` keeps its own."""
    return _text(e, const)[0]


def _text(e: Expr, const: Callable[[float], str]) -> tuple[str, int]:
    """The text of ``e`` and the precedence of its outermost operation."""
    if isinstance(e, Const):
        return const(e.value), 9
    if isinstance(e, Var):
        return "x", 9
    if isinstance(e, Neg):
        return "-" + _grouped(_text(e.operand, const), 6), 6
    if isinstance(e, BinOp):
        _, p, left, right = _PRECEDENCE[e.op]
        return f"{_grouped(_text(e.left, const), left)} {e.op} {_grouped(_text(e.right, const), right)}", p
    if isinstance(e, Pow):  # the exponent is a number, which needs no parentheses after ^
        _, p, left, _ = _PRECEDENCE["**"]
        return f"{_grouped(_text(e.base, const), left)}^{_number(e.exponent)}", p
    if isinstance(e, Call):
        return f"{e.name}({_text(e.arg, const)[0]})", 9
    raise TypeError(f"not an Expr node: {type(e).__name__}")


def _grouped(text: tuple[str, int], prec: int) -> str:
    """The text, parenthesized unless its precedence is at least ``prec``."""
    return text[0] if text[1] >= prec else f"({text[0]})"


def fn_label(f) -> str:
    """How reports name a function: the canonical text of a parsed expression,
    the ``__name__`` of a plain callable."""
    return to_text(f) if isinstance(f, Expr) else getattr(f, "__name__", "<callable>")


@dataclass(frozen=True)
class Jet3:
    """Value and first three derivatives of a function at a point."""

    v0: float
    v1: float
    v2: float
    v3: float

    def __add__(self, other: "Jet3") -> "Jet3":
        return Jet3(self.v0 + other.v0, self.v1 + other.v1, self.v2 + other.v2, self.v3 + other.v3)

    def __sub__(self, other: "Jet3") -> "Jet3":
        return Jet3(self.v0 - other.v0, self.v1 - other.v1, self.v2 - other.v2, self.v3 - other.v3)

    def __neg__(self) -> "Jet3":
        return Jet3(-self.v0, -self.v1, -self.v2, -self.v3)

    def __mul__(self, other: "Jet3") -> "Jet3":
        # Leibniz rule through third order
        (a0, a1, a2, a3), (b0, b1, b2, b3) = self, other
        return Jet3(a0 * b0, a1 * b0 + a0 * b1, a2 * b0 + 2.0 * a1 * b1 + a0 * b2,
                    a3 * b0 + 3.0 * a2 * b1 + 3.0 * a1 * b2 + a0 * b3)

    def __iter__(self):
        return iter((self.v0, self.v1, self.v2, self.v3))


class _Src(str):
    """Python source of a float expression, with its operator precedence: 9, a name's, unless
    :func:`_at_prec` sets another.  Arithmetic and comparisons on it return the source of the result,
    parenthesized as needed, so a formula written for floats emits its own code with its own grouping."""

    prec = 9


def _at_prec(text: str, prec: int) -> _Src:
    src = _Src(text)
    src.prec = prec
    return src


def _operand(v: Any, prec: int) -> str:
    if isinstance(v, _Src):
        return v if v.prec >= prec else f"({v})"
    text = repr(float(v))
    return f"({text})" if text[0] == "-" else text


# operator: method, its precedence, and the precedence each operand needs unparenthesized
_PRECEDENCE = {"+": ("add", 4, 4, 5), "-": ("sub", 4, 4, 5), "*": ("mul", 5, 5, 6),
               "/": ("truediv", 5, 5, 6), "**": ("pow", 7, 8, 6),
               "<=": ("le", 3, 4, 4), "==": ("eq", 3, 4, 4), ">": ("gt", 3, 4, 4)}
for _op, (_name, _p, _l, _r) in _PRECEDENCE.items():
    def _forward(a, b, op=_op, p=_p, left=_l, right=_r):
        return _CUT if a is _CUT or b is _CUT else _at_prec(f"{_operand(a, left)} {op} {_operand(b, right)}", p)
    setattr(_Src, f"__{_name}__", _forward)
    setattr(_Src, f"__r{_name}__", lambda a, b, f=_forward: f(b, a))
_Src.__neg__ = lambda a: _CUT if a is _CUT else _at_prec(f"-{_operand(a, 6)}", 6)  # type: ignore[method-assign]

# a coefficient above the compiled order: arithmetic on it is skipped, and emitting it is a SyntaxError
_CUT = _Src("<cut>")
# every name generated code reads: literals are float reprs, so inf and nan too
_GLOBALS: dict[str, Any] = {"DomainError": DomainError, "undefined": undefined, "inf": math.inf, "nan": math.nan,
                            **{name: getattr(math, name) for name in ("exp", "log", "sqrt", "sinh", "cosh")}}
_CACHE: OrderedDict[tuple[str, int], Callable[..., Callable[[float], Any]]] = OrderedDict()
_CACHE_SIZE = 64


class _Emitter:
    """Emits a tree's :class:`Jet3` arithmetic as Python source: the statements computing
    the coefficients up to ``order``, in the order the jet arithmetic takes, so a
    truncated variant runs a subsequence of the full variant's float operations."""

    def __init__(self, order: int):
        self.order, self.x = order, _Src("x")
        self.lines: list[str] = []
        self.consts: list[str] = []

    def lit(self, c: float) -> _Src:
        return _Src(_operand(c, 0))

    def const(self) -> _Src:
        """The name of the tree's next constant, an argument of the factory."""
        self.consts.append(f"c{len(self.consts)}")
        return _Src(self.consts[-1])

    def let(self, v: _Src) -> _Src:
        """Bind computed source to a new temporary; names and literals pass."""
        if v.prec == 9 and "(" not in v:
            return v
        name = _Src(f"t{len(self.lines)}")
        self.lines.append(f"{name} = {v}")
        return name

    def jet(self, j: Jet3) -> Jet3:
        """Bind the coefficients of ``j`` up to ``order``, lowest first, and cut the rest."""
        return Jet3(*(self.let(v) if k <= self.order else _CUT for k, v in enumerate(j)))

    def check(self, failed: _Src, message: str, *args: _Src) -> None:
        """Raise ``DomainError(message % args)`` where ``failed`` holds."""
        args_text = ", ".join(_operand(a, 0) for a in args)
        self.lines += [f"if {failed}:", f"    raise DomainError({message!r} % ({args_text},))"]

    def guarded(self, names: list[str], v: _Src, message: str) -> list[_Src]:
        """The math functions ``names`` at ``v``; overflow raises ``DomainError(message % (x, v))``."""
        temps = [_Src(f"t{len(self.lines)}_{name}") for name in names]
        self.lines += ["try:", f"    {', '.join(temps)} = {', '.join(f'{name}({v})' for name in names)}",
                       "except OverflowError:", f"    raise DomainError({message!r} % (x, {v})) from None"]
        return temps

    def pick(self, cond: _Src, a: Jet3, b: Jet3) -> Jet3:
        return Jet3(*(_at_prec(f"{_operand(p, 2)} if {cond} else {_operand(q, 2)}", 1) for p, q in zip(a, b)))

    def compose(self, u: list[Any], g: Jet3) -> Jet3:
        """Chain rule to third order: u(g(x)) given the derivatives ``u`` of u at g.v0."""
        u0, u1, u2, u3 = self.jet(Jet3(*u))
        _, g1, g2, g3 = g
        return self.jet(Jet3(u0, u1 * g1, u2 * g1 * g1 + u1 * g2, u3 * g1 * g1 * g1 + 3.0 * u2 * g1 * g2 + u1 * g3))

    def reciprocal(self, g: Jet3) -> Jet3:
        self.check(g.v0 == 0.0, "division by zero at x = %r", self.x)
        v = self.let(1.0 / g.v0)
        return self.compose([v, -v * v, 2.0 * v**3, -6.0 * v**4], g)

    def int_power(self, g: Jet3, n: int) -> Jet3:
        # square-and-multiply from g keeps integer powers exact without a sign/domain split (from the unit jet,
        # 0 * inf would be nan where a power of g overflows, as x^2 in x^-2 at 1e200)
        if n < 0:
            return self.reciprocal(self.int_power(g, -n))
        result = None
        while n:
            if n & 1:
                result = g if result is None else self.jet(result * g)
            n >>= 1
            if n:
                g = self.jet(g * g)
        return result or self.jet(Jet3(*map(self.lit, (1.0, 0.0, 0.0, 0.0))))


def _compile(e: Expr, order: int) -> Callable[..., Callable[[float], Any]]:
    """The factory that binds the constants of ``e``'s shape and returns its order-``order`` evaluator.  The evaluator
    carries as ``scan`` the guard's pass over a region's grid from :func:`hhaudit.core.scan_source`, which runs the same
    lines at each point to sample f or, taking ``q`` too at order >= 1, |f^(order)|^q."""
    out = _Emitter(order)
    coeffs = list(e._emit(out))[: order + 1]
    value, q = (coeffs[0], "") if order == 0 else (f"abs({coeffs[order]}) ** q", ", q")
    jet_body = "".join(f"    {line}\n" for line in out.lines)
    scan = scan_source(value, out.lines, q).replace("\n", "\n  ")  # ends in the indent of the line after it
    namespace: dict[str, Any] = {}
    # safe to run (fixed names, float-repr literals); flags 0 and dont_inherit, so no caller's __future__ flags
    exec(compile(f"def make({', '.join(out.consts)}):\n  def jet(x):\n{jet_body}    return {', '.join(coeffs)}\n  {scan}"
                 "jet.scan = scan\n  return jet\n", "<exprlang>", "exec", 0, True), _GLOBALS, namespace)
    return namespace["make"]


def eval_jet(e: Expr, x: float) -> Jet3:
    """Evaluate ``e`` and its first three derivatives at ``x``.

    Raises :class:`~hhaudit.core.DomainError` naming the operator and the
    point whenever the evaluation leaves a function's domain.
    """
    return Jet3(*e.compiled(3)(x))

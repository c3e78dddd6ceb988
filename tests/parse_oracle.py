"""The recursive-descent parser that :func:`hhaudit.exprlang.parse` replaced, kept as the reference for it.

It reads the grammar with its own tokenizer and counts each pair of parentheses as a level of the
depth.  :func:`hhaudit.exprlang.parse` must build an equal tree from every text this parser accepts,
except an integer literal with leading zeros such as ``007``, which Python refuses and this parser
reads as 7, and a digit outside ASCII, which this parser's tokenizer takes; and it must refuse
every text this parser refuses, except one that is too deep here only because of its parentheses.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from hhaudit.core import DomainError
from hhaudit.exprlang import MAX_DEPTH, BinOp, Call, Const, Expr, Neg, ParseError, Pow, Var

FUNCTIONS = ("exp", "log", "sqrt", "sinh", "cosh", "abs")

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


@dataclass(frozen=True)
class Token:
    kind: str  # num | name | op | end
    text: str
    offset: int


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text`` with their offsets, ending in an ``end`` token."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unrecognized character {text[pos]!r}", pos)
        kind = m.lastgroup or "op"
        tokens.append(Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


def _contains_var(e: Expr) -> bool:
    return isinstance(e, Var) or any(isinstance(c, Expr) and _contains_var(c) for c in vars(e).values())


class _Parser:
    """Recursive descent over the tokens.  Each method returns a node and the nesting
    depth of its text, so that a tree too deep to evaluate is a :class:`ParseError`."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.nesting = 0  # unary() calls in progress, each a level of the depth

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self, ops: str) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.text in ops:
            self.pos += 1
            return tok
        return None

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if not self.take(op):
            raise ParseError(f"expected {op!r}, found {tok.text!r}" if tok.kind != "end" else f"expected {op!r}, found end of input", tok.offset)

    def within(self, depth: int, tok: Token) -> int:
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", tok.offset)
        return depth

    def expr(self, ops: str = "+-") -> tuple[Expr, int]:
        """A sum of terms, or with ``ops`` "*/" a term: a product of unaries."""
        node, depth = self.expr("*/") if ops == "+-" else self.unary()
        while tok := self.take(ops):
            right, right_depth = self.expr("*/") if ops == "+-" else self.unary()
            node, depth = BinOp(tok.text, node, right), self.within(1 + max(depth, right_depth), tok)
        return node, depth

    def unary(self) -> tuple[Expr, int]:
        # every cycle of the recursion passes through here, so this bounds the parser's own stack
        self.nesting = self.within(self.nesting + 1, self.peek())
        minus = self.take("-")
        node, depth = self.unary() if minus else self.power()
        self.nesting -= 1
        return (Neg(node), self.within(depth + 1, minus)) if minus else (node, depth)

    def power(self) -> tuple[Expr, int]:
        node, depth = self.atom()
        if caret := self.take("^"):
            exponent, exponent_depth = self.unary()
            if _contains_var(exponent):
                raise ParseError("exponent must be constant (no x in exponent)", caret.offset)
            try:
                value = (exponent.value if isinstance(exponent, Const)
                         else -exponent.operand.value if isinstance(exponent, Neg) and isinstance(exponent.operand, Const)
                         else exponent.compiled(0)(0.0))
            except (DomainError, OverflowError) as exc:
                raise ParseError(f"invalid constant exponent: {exc}", caret.offset) from None
            if not math.isfinite(value):
                raise ParseError(f"constant exponent is not finite: {value!r}", caret.offset)
            node, depth = Pow(node, value), self.within(1 + max(depth, exponent_depth), caret)
        return node, depth

    def atom(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "num":
            self.pos += 1
            if not math.isfinite(value := float(tok.text)):
                raise ParseError(f"number {tok.text!r} is not finite", tok.offset)
            return Const(value), 1
        if tok.kind == "name":
            self.pos += 1
            if tok.text == "x":
                return Var(), 1
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                arg, depth = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg), self.within(depth + 1, tok)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.offset)
        if self.take("("):
            node, depth = self.expr()
            self.expect_op(")")
            return node, self.within(depth + 1, tok)
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.offset)
        raise ParseError(f"unexpected token {tok.text!r}", tok.offset)


def parse(text: str) -> Expr:
    """Parse function text into an AST; raises :class:`ParseError` with a byte offset."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(text)
    tree, _ = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected token {trailing.text!r}", trailing.offset)
    return tree


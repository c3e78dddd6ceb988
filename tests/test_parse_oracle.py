"""`parse` against the hand-written parser it replaced: the same tree from every text of the grammar, and the
same refusals."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from hhaudit.exprlang import MAX_DEPTH, ParseError, parse
import parse_oracle

# an integer literal with leading zeros: Python refuses it, the oracle reads 007 as 7
_LEADING_ZERO = re.compile(r"0+[1-9][0-9]*")
_NUMBERS = st.one_of(
    st.sampled_from(["0", "00", "7", "42", "1.", "1.5", ".5", "007.5", "01.", "1e5", "1E-3", "2.5e+10", ".5e1", "1.e2",
                     "00e1", "1e999", "1e-400"]),
    st.from_regex(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]{1,3})?", fullmatch=True),
).filter(lambda t: not _LEADING_ZERO.fullmatch(t))
_SPACE = st.sampled_from(["", " ", "\t", "\n", " \t\n "])
# how tightly a text's outermost construct binds: a sum, a product, a minus sign, a power, an atom
_SUM, _PRODUCT, _MINUS, _POWER, _ATOM = range(5)


@st.composite
def _text(draw, depth, leaves, constant=False):
    """A text at most ``depth`` levels deep as the oracle counts them, with at most ``leaves`` numbers and x's,
    none of them x where ``constant``; returns the text, its binding and its depth."""
    kinds = ["number"] if constant else ["number", "x"]
    if depth > 2:
        kinds += ["minus", "parentheses", "call", "power"] + (["sum", "product"] if leaves > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind in ("number", "x"):
        return draw(_NUMBERS) if kind == "number" else "x", _ATOM, 1

    def operand(binding, leaves, constant=constant):
        """An operand that binds at least as tightly as ``binding``, parenthesized where it would not."""
        text, bound, d = draw(_text(depth - 2, leaves, constant))
        if bound < binding or draw(st.integers(0, 5)) == 0:
            return f"({draw(_SPACE)}{text}{draw(_SPACE)})", d + 1
        return text, d

    if kind == "minus":
        text, d = operand(_MINUS, leaves)
        return f"-{draw(_SPACE)}{text}", _MINUS, d + 1
    if kind == "parentheses":
        text, _, d = draw(_text(depth - 1, leaves, constant))
        return f"({draw(_SPACE)}{text}{draw(_SPACE)})", _ATOM, d + 1
    if kind == "call":
        name = draw(st.sampled_from(parse_oracle.FUNCTIONS))
        text, _, d = draw(_text(depth - 1, leaves, constant))
        return f"{name}{draw(_SPACE)}({draw(_SPACE)}{text}{draw(_SPACE)})", _ATOM, d + 1
    if kind == "power":  # the exponent is constant, so its folding is compared too
        (base, d_base), (exponent, d_exponent) = operand(_ATOM, leaves), operand(_MINUS, 2, constant=True)
        return f"{base}{draw(_SPACE)}^{draw(_SPACE)}{exponent}", _POWER, 1 + max(d_base, d_exponent)
    left_leaves = draw(st.integers(1, leaves - 1))
    binding = _SUM if kind == "sum" else _PRODUCT  # left-associative: the right operand binds tighter
    (left, d_left), (right, d_right) = operand(binding, left_leaves), operand(binding + 1, leaves - left_leaves)
    op = draw(st.sampled_from("+-" if kind == "sum" else "*/"))
    return f"{left}{draw(_SPACE)}{op}{draw(_SPACE)}{right}", binding, 1 + max(d_left, d_right)


@st.composite
def _texts(draw, depth=MAX_DEPTH):
    """A text of the grammar at most ``depth`` levels deep as the oracle counts them: a drawn text under a
    tower of minus signs, parentheses and calls, one level each, that may reach ``depth``."""
    text, binding, d = draw(_text(min(depth, 12), draw(st.integers(1, 6))))
    for _ in range(draw(st.integers(0, depth - d))):
        wrap = draw(st.sampled_from(["-", "()", *parse_oracle.FUNCTIONS]))
        if wrap == "-" and binding >= _MINUS:
            text, binding = f"-{draw(_SPACE)}{text}", _MINUS
        else:
            text, binding = f"{'' if wrap in '-()' else wrap}({draw(_SPACE)}{text}{draw(_SPACE)})", _ATOM
    return text


def _outcome(parser, text):
    try:
        return parser(text)
    except ParseError:
        return ParseError


@settings(max_examples=200, deadline=None)
@given(text=_texts())
def test_every_text_of_the_grammar_parses_as_the_oracle_parses_it(text):
    assert _outcome(parse, text) == _outcome(parse_oracle.parse, text)


def _mutations(text):
    """``text`` with each of its tokens dropped and doubled, and each pair of adjacent tokens swapped,
    the spaces around them kept."""
    tokens = parse_oracle.tokenize(text)[:-1]
    for i, tok in enumerate(tokens):
        start, end = tok.offset, tok.offset + len(tok.text)
        yield text[:start] + text[end:]
        yield text[:end] + tok.text + text[end:]
        if i + 1 < len(tokens):
            after = tokens[i + 1]
            yield text[:start] + after.text + text[end:after.offset] + tok.text + text[after.offset + len(after.text):]


@settings(max_examples=80, deadline=None)
@given(text=_texts(depth=MAX_DEPTH // 2))
def test_a_text_with_one_token_dropped_doubled_or_swapped_is_refused_as_the_oracle_refuses_it(text):
    # a mutation may leave a text of the grammar, such as -x from --x, which both must parse alike; where it
    # joins two numbers into an integer with leading zeros, only Python's parser refuses it
    for mutated in _mutations(text):
        got, want = _outcome(parse, mutated), _outcome(parse_oracle.parse, mutated)
        if got is ParseError and want is not ParseError:
            assert any(tok.kind == "num" and _LEADING_ZERO.fullmatch(tok.text) for tok in parse_oracle.tokenize(mutated))
        else:
            assert got == want, mutated


@pytest.mark.parametrize("text, message", [
    *((text, "leading zeros in decimal integer literals") for text in ("007", "01", "x + 0010", "x^07")),
    ("x + \u0663", "unrecognized character '\u0663'"),  # ARABIC-INDIC DIGIT THREE, which float() reads as 3
])
def test_the_texts_only_the_oracle_reads_are_refused(text, message):
    assert parse_oracle.parse(text) is not None
    with pytest.raises(ParseError, match=message):
        parse(text)

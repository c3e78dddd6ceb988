"""The compiled evaluators against the recursive jet interpreter in ``jet_oracle``."""

import math
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

import jet_oracle
from hhaudit import exprlang
from hhaudit.core import DomainError
from hhaudit.exprlang import BinOp, Call, Const, Neg, ParseError, Pow, Var, eval_jet, parse, to_text

_FUNCTIONS = ("exp", "log", "sqrt", "sinh", "cosh", "abs")

_SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1e-160, 1e-300, 1e300, 710.0, -710.0)
_POINTS = st.one_of(st.sampled_from(_SPECIAL + (math.inf, -math.inf, math.nan)), st.floats(-50.0, 50.0))
# integer (square-and-multiply, including the 2^31 limit), negative and fractional exponents
_EXPONENTS = st.one_of(
    st.integers(-6, 6).map(float),
    st.sampled_from((0.5, -0.5, 1.5, -1.5, 2.5, 1.0 / 3.0, 2.0**31, -(2.0**31), 2.0**31 + 1.0)),
    st.floats(-4.0, 4.0),
)


def _trees(leaf):
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            kids.map(Neg),
            st.builds(BinOp, st.sampled_from("+-*/"), kids, kids),
            st.builds(Pow, kids, _EXPONENTS),
            st.builds(Call, st.sampled_from(_FUNCTIONS), kids),
        ),
        max_leaves=6,
    )


_EXPRS = _trees(st.one_of(st.just(Var()), st.sampled_from(_SPECIAL + (math.inf, math.nan)).map(Const)))
# constants that to_text renders as parseable text
_CONSTANT_EXPRS = _trees(st.one_of(st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0, 1e-160, 1e300, 710.0)),
                                   st.floats(0.0, 1e6)).map(Const))


def _bits(values):
    # bit patterns, so that the sign of zero counts.  A NaN's sign is not
    # compared: CPython's specialized float instructions, which take over a
    # function after a few calls, may pick the other NaN operand than the
    # generic ones, so the interpreter itself returns either sign over time.
    return ["nan" if math.isnan(v) else struct.pack("<d", v) for v in values]


@settings(max_examples=400, deadline=None)
@given(e=_EXPRS, x=_POINTS)
def test_every_order_matches_the_interpreter_bitwise(e, x):
    try:
        want = tuple(jet_oracle.eval_jet(e, x))
    except DomainError as exc:
        for order in range(4):
            with pytest.raises(DomainError) as got:
                e.compiled(order)(x)
            assert str(got.value) == str(exc)
        return
    except (OverflowError, ZeroDivisionError) as exc:
        # a float operation of some coefficient failed; the full jet runs every such operation
        with pytest.raises(type(exc)) as got:
            e.compiled(3)(x)
        assert str(got.value) == str(exc)
        return
    for order in range(4):
        got = e.compiled(order)(x)
        assert _bits((got,) if order == 0 else got) == _bits(want[: order + 1])
    assert _bits([e(x)]) == _bits(want[:1])
    assert _bits(eval_jet(e, x)) == _bits(want)


@settings(max_examples=300, deadline=None)
@given(c=_CONSTANT_EXPRS)
def test_constant_exponent_fold_matches_the_interpreter(c):
    text = to_text(c)
    try:
        want = jet_oracle.eval_jet(parse(text), 0.0).v0
    except DomainError as exc:
        with pytest.raises(ParseError) as got:
            parse(f"x^({text})")
        assert str(got.value) == f"invalid constant exponent: {exc} (offset 1)"
        return
    except (OverflowError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            parse(f"x^({text})")
        return
    assert _bits([parse(f"x^({text})").exponent]) == _bits([want])


def test_value_and_first_derivative_skip_the_higher_terms():
    # f'''s 2/v^3 overflows for 1/x and underflows to a zero divisor for log(x);
    # neither term is computed below third order any more
    assert parse("1/x")(1e-110) == 1e110
    assert parse("1/x").compiled(1)(1e-110) == (1e110, -1e220)
    assert parse("log(x)")(1e-160) == math.log(1e-160)
    assert parse("log(x)").compiled(2)(1e-160) == (math.log(1e-160), 1e160, -math.inf)
    with pytest.raises(OverflowError):
        eval_jet(parse("1/x"), 1e-110)
    with pytest.raises(ZeroDivisionError):
        eval_jet(parse("log(x)"), 1e-160)


def test_parse_compiles_nothing_and_evaluation_compiles_each_order_once(monkeypatch):
    sources = []

    def counting_compile(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(exprlang, "compile", counting_compile, raising=False)
    text = "x^(1/3) + exp(x)^2^0.5 - sqrt(x)^-(2*3)"
    e = parse(text)
    assert sources == []
    e(2.0)
    e(3.0)
    assert len(sources) == 1
    e.compiled(2)(2.0)
    e.compiled(2)(3.0)
    assert len(sources) == 2
    # the compiled functions stay outside equality, hashing and pickling
    assert e == parse(text) and hash(e) == hash(parse(text))
    again = pickle.loads(pickle.dumps(e))
    assert again == e and again(2.0) == e(2.0)


def test_compiled_rejects_orders_above_three():
    with pytest.raises(ValueError, match="order"):
        parse("x").compiled(4)

import math
import random

import pytest
from hypothesis import given, strategies as st

from hhaudit.core import DomainError
from hhaudit.exprlang import (
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    Jet3,
    ParseError,
    Pow,
    Var,
    eval_jet,
    parse,
    to_text,
)
from conftest import mp_function


class TestParse:
    def test_power_shape(self):
        assert parse("x^2") == Pow(Var(), 2.0)

    def test_precedence_power_over_division(self):
        assert parse("1/x^2") == BinOp("/", Const(1.0), Pow(Var(), 2.0))

    def test_double_caret_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("x^^2")
        assert exc.value.offset == 2

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'foo'"):
            parse("foo(x)")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse("2x")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse("   ")

    def test_variable_exponent_rejected(self):
        with pytest.raises(ParseError, match="constant"):
            parse("x^x")

    def test_negative_exponent(self):
        assert parse("x^-2") == Pow(Var(), -2.0)

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-x^2")(3.0) == -9.0

    def test_right_associative_power(self):
        assert parse("x^2^3")(2.0) == 2.0**8

    def test_unary_in_products(self):
        assert parse("2*-x")(3.0) == -6.0

    def test_call_and_parens(self):
        e = parse("exp(-(x^2)/2)")
        assert isinstance(e, Call)
        assert math.isclose(e(1.0), math.exp(-0.5))

    def test_scientific_literals(self):
        assert parse("1e-3 + x")(0.0) == 1e-3

    @pytest.mark.parametrize("text, offset, message", [
        ("1e999*x", 0, "number '1e999' is not finite"),
        ("x^-1e999", 3, "number '1e999' is not finite"),
        ("x^(1e308*10)", 1, "constant exponent is not finite: inf"),
        ("x^(1e308*10 - 1e308*10)", 1, "constant exponent is not finite: nan"),
    ])
    def test_a_number_that_is_not_finite_is_rejected(self, text, offset, message):
        # inf and nan have no text that parses back, so a label could not name them
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"{message} (offset {offset})"

    def test_trailing_garbage_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("x + 1 )")
        assert exc.value.offset == 6

    def test_roundtrip_through_to_text(self):
        # text -> its canonical form: only the parentheses that precedence and associativity need,
        # and those around a right operand of equal precedence
        for text, canonical in {
            "x^2 - 5": "x^2 - 5", "exp(x)*sinh(x)": "exp(x) * sinh(x)", "1/(x+2)": "1 / (x + 2)",
            "x^2.5": "x^2.5", "abs(x) - cosh(x)": "abs(x) - cosh(x)", "exp(x)+x^4": "exp(x) + x^4",
            "((x*log(x)))": "x * log(x)", "x-(x-1)": "x - (x - 1)", "(x-x)-1": "x - x - 1",
            "x+(x+1)": "x + (x + 1)", "x/(x*2)": "x / (x * 2)", "x/x*2": "x / x * 2", "2*-x": "2 * -x",
            "--x": "--x", "-x^2": "-x^2", "(-x)^2": "(-x)^2", "-(x+1)*x": "-(x + 1) * x", "(x^2)^3": "(x^2)^3",
            "x^-2": "x^-2", "x^(1/2)": "x^0.5", "x^2^0.5": "x^1.4142135623730951",
            "1e300*x^1e-20": "1e+300 * x^1e-20", "sqrt(-x + 3)": "sqrt(-x + 3)",
        }.items():
            e = parse(text)
            assert to_text(e) == canonical and parse(canonical) == e
            for x in (0.5, 1.25, 2.0):
                assert math.isclose(e(x), parse(canonical)(x), rel_tol=1e-15)


# texts nested d levels deep, and the offset at which one level more is rejected: that of the node one level
# too deep, found from the root down.  Parentheses build no node, so they add no level; 2d pairs of them are
# refused only past 200, where Python's parser refuses them.
_DEEP = {
    "parentheses": (lambda d: "(" * 2 * d + "x" + ")" * 2 * d, lambda d: 200),
    "sum": (lambda d: "+".join(["x"] * d), lambda d: 0),
    "calls": (lambda d: "sqrt(" * (d - 1) + "x" + ")" * (d - 1), lambda d: 5 * (d - 1)),
    "minus signs": (lambda d: "-" * (d - 1) + "x", lambda d: d - 1),
    "computed exponent": (lambda d: "x^(" + "+".join(["1"] * (d - 1)) + ")", lambda d: 3),
    # a long sum under one more construct
    **{f"sum under {prefix}": (lambda d, prefix=prefix, levels=levels: prefix + "+".join(["x"] * (d - levels)) + ")",
                               lambda d, prefix=prefix: len(prefix))
       for prefix, levels in (("(", 0), ("sqrt(", 1), ("-(", 1))},
}


@pytest.mark.parametrize("shape", _DEEP)
def test_a_text_at_the_depth_limit_evaluates(shape):
    text, _ = _DEEP[shape]
    e, twin = parse(text(MAX_DEPTH)), parse(text(MAX_DEPTH))
    assert e == twin and hash(e) == hash(twin) and repr(e) == repr(twin) and parse(to_text(e)) == e
    assert all(math.isfinite(v) for v in eval_jet(e, 1.5))


@pytest.mark.parametrize("shape", _DEEP)
def test_a_text_one_level_deeper_is_a_parse_error(shape):
    text, offset = _DEEP[shape]
    message = "too many nested parentheses" if shape == "parentheses" else f"nested deeper than {MAX_DEPTH} levels"
    with pytest.raises(ParseError, match=message) as exc:
        parse(text(MAX_DEPTH + 1))
    assert exc.value.offset == offset(MAX_DEPTH + 1)


@pytest.mark.parametrize("text", [
    # Python's own constructs, outside the grammar
    "x**2", "x//2", "+x", "x if x else 1", "not x", "x and x", "x < 1", "exp(x,)", "exp(x, x)", "exp(x=1)", "x.real",
    "x(2)", "exp(x)(x)", "1_0", "0x10", "1j", "True", "None", "yield x", "\uff58",
    # too deep for the walk or for Python's parser, which refuses more than 200 nested parentheses
    pytest.param("x" + "+x" * 10**6, id="sum of 10^6 terms"), pytest.param("-" * 10**5 + "x", id="10^5 minus signs"),
    pytest.param("(" * 300 + "x" + ")" * 300, id="300 parentheses"),
])
def test_a_text_outside_the_grammar_is_a_parse_error_and_nothing_else(text):
    with pytest.raises(ParseError):
        parse(text)


class TestJets:
    def test_square_at_three(self):
        assert eval_jet(parse("x^2"), 3.0) == Jet3(9.0, 6.0, 2.0, 0.0)

    def test_exp_at_zero(self):
        assert eval_jet(parse("exp(x)"), 0.0) == Jet3(1.0, 1.0, 1.0, 1.0)

    def test_reciprocal_at_two(self):
        # closed-form derivatives of 1/x: (0.5, -1/4, 2/8, -6/16)
        j = eval_jet(parse("1/x"), 2.0)
        assert j.v0 == 0.5
        assert j.v1 == -0.25
        assert j.v2 == 0.25
        assert j.v3 == -0.375

    def test_integer_power_is_exact(self):
        j = eval_jet(parse("x^3"), 2.0)
        assert (j.v0, j.v1, j.v2, j.v3) == (8.0, 12.0, 12.0, 6.0)

    def test_negative_integer_power(self):
        j = eval_jet(parse("x^-2"), 2.0)
        assert math.isclose(j.v1, -2.0 * 2.0**-3, rel_tol=1e-15)
        assert math.isclose(j.v3, -24.0 * 2.0**-5, rel_tol=1e-15)

    def test_fractional_power_needs_positive_base(self):
        with pytest.raises(DomainError):
            eval_jet(parse("x^2.5"), -1.0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError, match="division by zero"):
            eval_jet(parse("1/x"), 0.0)

    def test_log_domain(self):
        with pytest.raises(DomainError, match="log"):
            eval_jet(parse("log(x)"), -1.0)

    def test_abs_kink_rejected(self):
        with pytest.raises(DomainError, match="abs"):
            eval_jet(parse("abs(x)"), 0.0)

    def test_abs_kink_has_a_value(self):
        f = parse("abs(x-1)")
        assert f(1.0) == 0.0 and math.copysign(1.0, f(1.0)) == 1.0
        # the guard's pass too: the 4-step grid on [0.5, 1.5] has the kink at its midpoint, so the triples around
        # it read -0.25 and -0.5 there, and the affine ones either side 0
        assert f.compiled(0).scan(0.5, 1.5, 4, 2) == (0.0, 0.75)
        with pytest.raises(DomainError, match="abs is not differentiable at 0"):
            f.compiled(1)(1.0)

    def test_abs_away_from_zero(self):
        assert eval_jet(parse("abs(x)"), -2.0) == Jet3(2.0, -1.0, 0.0, 0.0)

    def test_sqrt_jets(self):
        j = eval_jet(parse("sqrt(x)"), 4.0)
        assert math.isclose(j.v0, 2.0)
        assert math.isclose(j.v1, 0.25)
        assert math.isclose(j.v2, -1.0 / 32.0)
        assert math.isclose(j.v3, 3.0 / 256.0)

    def test_hyperbolic_jets(self):
        j = eval_jet(parse("sinh(x)"), 0.7)
        assert math.isclose(j.v0, math.sinh(0.7), rel_tol=1e-15)
        assert math.isclose(j.v1, math.cosh(0.7), rel_tol=1e-15)
        assert math.isclose(j.v2, math.sinh(0.7), rel_tol=1e-15)


# templates paired with an x-range inside their domain
_TEMPLATES = (
    ("{c}*x^2 + {d}*x + 1", (-2.0, 2.0)),
    ("{c}*x^3 - {d}*x", (-2.0, 2.0)),
    ("exp({c}*x)", (-1.5, 1.5)),
    ("sinh({c}*x)", (-2.0, 2.0)),
    ("cosh({c}*x)", (-2.0, 2.0)),
    ("log(x + {p})", (0.3, 3.0)),
    ("sqrt(x + {p})", (0.3, 3.0)),
    ("1/(x + {p})", (0.3, 3.0)),
    ("x^2.5", (0.4, 3.0)),
    ("exp(-(x^2))", (-2.0, 2.0)),
    ("(x^2 + 1)^1.5", (-2.0, 2.0)),
    ("x*log(x)", (0.4, 3.0)),
)


def _close(a, b, rel, floor=1e-8):
    return abs(a - b) <= rel * max(abs(a), abs(b), floor)


def _agrees(jet_val, ref_val, f_scale, rel=1e-6):
    # rounding in a jet's sums scales with the size of their terms, which |f|
    # stands for, so tiny derivatives of large functions need an absolute
    # floor alongside the relative check
    return abs(jet_val - ref_val) <= rel * max(abs(jet_val), abs(ref_val)) + 1e-8 * max(1.0, abs(f_scale))


def _mp_derivatives(text, x):
    """f, f', f'' of ``text`` at ``x`` by mpmath's finite differences at 40 digits, rounded to floats."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.mp.workdps(40):
        return [float(d) for d in mpmath.diffs(mp_function(text), mpmath.mpf(x), 2)]


class TestAgainstFiniteDifferences:
    def test_first_and_second_derivatives_1000_pairs(self):
        rng = random.Random(987654)
        for _ in range(1000):
            template, (xlo, xhi) = _TEMPLATES[rng.randrange(len(_TEMPLATES))]
            text = template.format(
                c=round(rng.uniform(-2.0, 2.0), 3) or 1.0,
                d=round(rng.uniform(-2.0, 2.0), 3),
                p=round(rng.uniform(0.8, 2.5), 3),
            )
            x = rng.uniform(xlo, xhi)
            jet = eval_jet(parse(text), x)
            _, d1, d2 = _mp_derivatives(text, x)
            assert _agrees(jet.v1, d1, jet.v0), (text, x)
            assert _agrees(jet.v2, d2, jet.v0), (text, x)

    def test_linearity(self):
        rng = random.Random(55)
        for _ in range(100):
            alpha = rng.uniform(-3, 3)
            beta = rng.uniform(-3, 3)
            x = rng.uniform(0.4, 2.5)
            f, g = parse("exp(x)"), parse("x^3")
            combo = parse(f"{alpha!r}*exp(x) + {beta!r}*x^3")
            jf, jg, jc = eval_jet(f, x), eval_jet(g, x), eval_jet(combo, x)
            expected = Jet3(*(alpha * v for v in jf)) + Jet3(*(beta * v for v in jg))
            for got, want in zip((jc.v0, jc.v1, jc.v2, jc.v3), (expected.v0, expected.v1, expected.v2, expected.v3)):
                assert _close(got, want, 1e-12)

    def test_product_rule_matches_convolution_and_fd(self):
        rng = random.Random(56)
        for _ in range(100):
            x = rng.uniform(0.4, 2.0)
            f, g = parse("exp(x)"), parse("x^2 + 1")
            product = parse("exp(x) * (x^2 + 1)")
            jf, jg = eval_jet(f, x), eval_jet(g, x)
            conv = jf * jg
            jp = eval_jet(product, x)
            assert _close(jp.v1, conv.v1, 1e-12)
            assert _close(jp.v2, conv.v2, 1e-12)
            assert _close(jp.v3, conv.v3, 1e-12)
            _, d1, d2 = _mp_derivatives("exp(x) * (x^2 + 1)", x)
            assert _close(jp.v1, d1, 1e-6)
            assert _close(jp.v2, d2, 1e-6)

    @given(x=st.floats(-3.0, 3.0))
    def test_polynomial_jets_match_closed_form(self, x):
        j = eval_jet(parse("2*x^3 - x + 4"), x)
        assert math.isclose(j.v0, 2 * x**3 - x + 4, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(j.v1, 6 * x**2 - 1, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(j.v2, 12 * x, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(j.v3, 12.0, rel_tol=1e-12)

"""The compiled evaluators against the recursive jet interpreter in ``jet_oracle``,
and the process cache that serves their factories to trees of one shape."""

import collections
import dataclasses
import gc
import hashlib
import math
import pickle
import struct
import sys
import threading
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import jet_oracle
from hhaudit import exprlang
from hhaudit.core import DomainError, Interval, convexity_guard, scan_source
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


def _assert_matches_interpreter(e, x):
    # the value variant has no kink: abs at 0 is |0| there, and only the derivatives raise
    for orders, at_kink in (((0,), True), ((1, 2, 3), False)):
        try:
            want = tuple(jet_oracle.eval_jet(e, x, at_kink))
        except DomainError as exc:
            for order in orders:
                with pytest.raises(DomainError) as got:
                    e.compiled(order)(x)
                assert str(got.value) == str(exc)
            continue
        except (OverflowError, ZeroDivisionError) as exc:
            # a float operation of some coefficient failed; the full jet runs every such operation
            if 3 in orders:
                with pytest.raises(type(exc)) as got:
                    e.compiled(3)(x)
                assert str(got.value) == str(exc)
            continue
        for order in orders:
            got = e.compiled(order)(x)
            assert _bits((got,) if order == 0 else got) == _bits(want[: order + 1])
        if 0 in orders:
            assert _bits([e(x)]) == _bits(want[:1])
        else:
            assert _bits(eval_jet(e, x)) == _bits(want)


@settings(max_examples=400, deadline=None)
@given(e=_EXPRS, x=_POINTS)
def test_every_order_matches_the_interpreter_bitwise(e, x):
    _assert_matches_interpreter(e, x)


# signed zeros, nan, infinities, subnormals, extremes and negatives
_WILD_CONSTANTS = st.one_of(
    st.sampled_from((0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308,
                     1e300, -1e300, 1e-300, -1e-300, -1.0, -2.5)),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _count_constants(e):
    return isinstance(e, Const) + sum(_count_constants(v) for v in vars(e).values() if isinstance(v, exprlang.Expr))


def _compiling_into(sources):
    """Patch ``exprlang``'s ``compile`` to record each source it compiles."""
    def counting_compile(source, *args):
        sources.append(source)
        return compile(source, *args)
    return mock.patch.object(exprlang, "compile", counting_compile, create=True)


@settings(max_examples=300, deadline=None)
@given(e=_EXPRS, data=st.data(), xs=st.lists(_POINTS, min_size=1, max_size=3))
def test_a_tree_of_a_compiled_shape_compiles_nothing_and_matches_the_interpreter(e, data, xs):
    n = _count_constants(e)
    values = iter(data.draw(st.lists(_WILD_CONSTANTS, min_size=n, max_size=n)))
    twin = _rebuilt(e, lambda _: next(values))
    # the warm-up runs on a copy, since the strategy's node may have been evicted long ago
    warm = [_rebuilt(e).compiled(order) for order in range(4)]
    with _compiling_into(served := []):
        evaluators = [twin.compiled(order) for order in range(4)]
    assert served == []
    assert [fn.__code__ for fn in evaluators] == [fn.__code__ for fn in warm]
    with _compiling_into(sources := []):
        for tree in (e, twin):
            for order in range(4):
                exprlang._compile(tree, order)
    assert sources[4:] == sources[:4]
    for x in xs:
        _assert_matches_interpreter(twin, x)


def test_a_factory_compiled_through_a_wrapper_has_the_same_code():
    # compile() would otherwise inherit the __future__ flags of its caller: a factory compiled through a
    # recording wrapper in this module, which has no `from __future__ import annotations`, would differ
    # in co_flags from one compiled directly, and an evicted shape compiled again would not match it
    tree = parse("x^0.5 + 1")
    direct = exprlang._compile(tree, 0)(1.0)
    with _compiling_into(sources := []):
        wrapped = exprlang._compile(tree, 0)(1.0)
    assert len(sources) == 1 and wrapped.__code__ == direct.__code__


def test_a_shift_sweep_compiles_one_source_per_order():
    # scripts/k2_shift_scan.py's family: each shift is a new function of one shape
    exprlang._CACHE.clear()
    with _compiling_into(sources := []):
        for i in range(200):
            c = 8.0 * i / 199
            f = parse(f"x^2 - {c!r}")
            assert _bits([f(1.5)]) == _bits([2.25 - c])
            assert _bits(f.compiled(2)(1.5)) == _bits([2.25 - c, 3.0, 2.0])
    assert len(sources) == 2


@settings(max_examples=300, deadline=None)
@given(c=_CONSTANT_EXPRS)
def test_constant_exponent_fold_matches_the_interpreter(c):
    text = to_text(c)
    assert parse(text) == c
    try:
        try:
            # the fold computes only the constant's value, which abs has at its kink too
            want = jet_oracle.eval_jet(parse(text), 0.0, at_kink=True).v0
        except (OverflowError, ZeroDivisionError):
            # a derivative of the constant failed
            want = parse(text).compiled(0)(0.0)
    except (DomainError, OverflowError) as exc:
        with pytest.raises(ParseError) as got:
            parse(f"x^({text})")
        assert str(got.value) == f"invalid constant exponent: {exc} (offset 1)"
        return
    if not math.isfinite(want):
        with pytest.raises(ParseError) as got:
            parse(f"x^({text})")
        assert str(got.value) == f"constant exponent is not finite: {want!r} (offset 1)"
        return
    assert _bits([parse(f"x^({text})").exponent]) == _bits([want])


@pytest.mark.parametrize("text, exponent", [
    ("x^log(1e200)", math.log(1e200)),
    ("x^(1/1e-200)", 1e200),
    ("x^(1e-200^0.5)", 1e-200**0.5),
    ("x^sqrt(1e-310)", math.sqrt(1e-310)),
])
def test_an_exponent_whose_derivatives_overflow_folds_to_its_value(text, exponent):
    # the fold once ran the full jet, so an unused derivative that overflowed or
    # divided by zero rejected a finite exponent
    e = parse(text)
    assert _bits([e.exponent]) == _bits([exponent])
    assert e(1.0) == 1.0


def test_an_exponent_whose_value_overflows_is_a_parse_error():
    with pytest.raises(ParseError, match=r"^invalid constant exponent: .*out of range.* \(offset 1\)$"):
        parse("x^(1e-300^-1.5)")


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
    # the value variant of cosh calls cosh alone, in its scan too, and sinh likewise
    for name, other in (("cosh", "sinh"), ("sinh", "cosh")):
        value = parse(f"{name}(x)").compiled(0)
        assert other not in value.__code__.co_names and other not in value.scan.__code__.co_names


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("text", ["x^2", "exp(x)+x^4", "cosh(x)", "x*log(x)", "1/x", "x^2-5"])
def test_a_variant_source_holds_each_jet_line_twice(monkeypatch, text, order):
    """The factory source of each of the audit battery's variants holds every line of its jet exactly twice: once
    in ``jet`` and once in ``scan``, which inlines them at its one point of the grid pass."""
    sources = []
    monkeypatch.setattr(exprlang, "compile", lambda source, *args: sources.append(source) or compile(source, *args),
                        raising=False)
    exprlang._compile(parse(text), order)
    (source,) = sources
    out = exprlang._Emitter(order)
    list(parse(text)._emit(out))
    held = collections.Counter(line.strip() for line in source.splitlines())
    template = {line.strip() for line in scan_source("v", [], "").splitlines()}
    own = [line for line in dict.fromkeys(out.lines) if line.strip() not in template]
    assert own
    for line in own:
        assert held[line.strip()] == 2 * out.lines.count(line), line


def test_the_emitted_jet_source_is_byte_identical():
    """The jet lines, coefficients and constant names that the emitter writes at orders 0-3 for the audit battery,
    the four audit-fresh templates and three folded exponents, as one sha256, recorded when an integer power
    started its product from the base instead of from the unit jet."""
    texts = ("x^2", "exp(x)+x^4", "cosh(x)", "x*log(x)", "1/x", "x^2-5",
             "1.25*x^2+0.75*exp(0.3*x)", "1.25*cosh(0.75*x)+0.3*x", "1.25*x^4+0.75*x+0.3", "exp(1.25*x)+0.75*x^3+0.3",
             "x^(1/3) + exp(x)^2^0.5 - sqrt(x)^-(2*3)")
    digest = hashlib.sha256()
    for text in texts:
        for order in range(4):
            out = exprlang._Emitter(order)
            coeffs = list(parse(text)._emit(out))[: order + 1]
            digest.update("\n".join([*out.lines, ", ".join(coeffs), ", ".join(out.consts)]).encode() + b"\0")
    assert digest.hexdigest() == "f825ec311866ec8573f6ac2b9e323977925124c08368d39e52194199df2d1c10"


def test_numeric_exponents_compile_nothing_and_a_computed_one_compiles_once(monkeypatch):
    sources = []

    def counting_compile(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(exprlang, "compile", counting_compile, raising=False)
    exprlang._CACHE.clear()
    for numeric in ("x^2", "exp(x)+x^4", "x*log(x)", "1/x", "0.5*x^2+1.25*exp(0.75*x)", "(x^2.5)^3",
                    "x^-2", "x^-0.5"):
        parse(numeric)
    assert sources == []
    # a negated number is folded as it is, bitwise like its compiled value
    assert _bits([parse("x^-2").exponent, parse("x^-0").exponent]) == _bits([-2.0, -0.0])
    # 1/3, 2^0.5 and -(2*3) compile once each, at order 0
    text = "x^(1/3) + exp(x)^2^0.5 - sqrt(x)^-(2*3)"
    e = parse(text)
    assert len(sources) == 3
    e(2.0)
    e(3.0)
    assert len(sources) == 4
    e.compiled(2)(2.0)
    e.compiled(2)(3.0)
    assert len(sources) == 5
    # the same text parsed again is served from the process cache, its exponents too
    twin = parse(text)
    assert twin(2.0) == e(2.0) and twin.compiled(2)(3.0) == e.compiled(2)(3.0)
    assert len(sources) == 5
    # the compiled functions, and the scans that the guards at orders 0-2 sample through, stay
    # outside equality, hashing and pickling (on [2, 3]: f'' < 0 near 1, which the order-0 guard refutes)
    for order in (0, 1, 2):
        convexity_guard(e, order, 2.0)(Interval(2.0, 3.0))
    assert e == parse(text) and hash(e) == hash(parse(text))
    again = pickle.loads(pickle.dumps(e))
    assert "_evaluators" not in vars(again)
    assert again == e and again(2.0) == e(2.0)
    for order in (0, 1, 2):
        convexity_guard(again, order, 2.0)(Interval(2.0, 3.0))


def test_compiled_rejects_orders_above_three():
    with pytest.raises(ValueError, match="order"):
        parse("x").compiled(4)


def _rebuilt(e, const=lambda v: v):
    """A new tree equal to ``e`` that shares no node with it, or with each constant's
    value v replaced by ``const(v)``, in rendering order."""
    if isinstance(e, Const):
        return Const(const(e.value))
    fields = {f.name: getattr(e, f.name) for f in dataclasses.fields(e)}
    return type(e)(**{k: _rebuilt(v, const) if isinstance(v, exprlang.Expr) else v for k, v in fields.items()})


def _outcome(fn, x):
    try:
        value = fn(x)
    except (DomainError, OverflowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return _bits(value if isinstance(value, tuple) else (value,))


def _assert_served_like_uncached(tree, points):
    for order in range(4):
        served, uncached = tree.compiled(order), exprlang._compile(tree, order)(*tree._consts)
        for x in points:
            assert _outcome(served, x) == _outcome(uncached, x), (tree, order, x)


@settings(max_examples=300, deadline=None)
@given(e=_EXPRS, x=_POINTS)
def test_an_equal_tree_is_served_the_cached_evaluator_bitwise(e, x):
    # strategies may hand out a node that compiled long ago and was evicted since,
    # so the warm-up runs on a copy
    warm = [_rebuilt(e).compiled(order) for order in range(4)]
    fresh = _rebuilt(e)
    assert fresh == e and fresh is not e
    # each tree binds its own constants to the one compiled code of its shape
    assert [fresh.compiled(order).__code__ for order in range(4)] == [fn.__code__ for fn in warm]
    _assert_served_like_uncached(fresh, [x, 1.0, -0.0])


@pytest.mark.parametrize("tree, twin", [
    (Const(-0.0), Const(0.0)),
    (Pow(Var(), -0.0), Pow(Var(), 0.0)),
    (BinOp("*", Var(), Const(-0.0)), BinOp("*", Var(), Const(0.0))),
    (Neg(Neg(Const(-0.0))), Neg(Neg(Const(0.0)))),
])
def test_the_sign_of_a_zero_constant_keys_its_own_evaluator(tree, twin):
    # equal and hashed alike, yet they compute zeros of opposite sign: they share the
    # code of their shape, and each evaluator is bound to its own tree's constants
    assert tree == twin and hash(tree) == hash(twin)
    for order in range(4):
        twin.compiled(order)
        assert tree.compiled(order) is not twin.compiled(order)
        assert tree.compiled(order).__code__ is twin.compiled(order).__code__
    for e in (tree, twin):
        _assert_served_like_uncached(e, [2.0, -2.0, 0.0, -0.0, math.inf])
        for x in (2.0, -2.0, 0.0, -0.0, math.inf):
            _assert_matches_interpreter(e, x)
    assert _bits([Const(-0.0)(1.0)]) == _bits([-0.0])


def test_nan_constants_share_one_evaluator():
    first, second = Const(float("nan")), Const(float("nan"))
    assert first.compiled(1).__code__ is second.compiled(1).__code__
    _assert_served_like_uncached(second, [0.0, 1.0])
    assert math.isnan(second(1.0))


def test_the_cache_stays_at_its_cap_and_holds_no_tree():
    exprlang._CACHE.clear()
    # x^k + k has one shape per k: an exponent is part of the shape, a constant is not
    trees = [parse(f"x^{k} + {k}") for k in range(exprlang._CACHE_SIZE + 10)]
    refs = [weakref.ref(tree) for tree in trees]
    for tree in trees:
        tree(1.0)
    assert len(exprlang._CACHE) == exprlang._CACHE_SIZE
    # the oldest were evicted, the newest are kept
    assert (trees[0]._shape, 0) not in exprlang._CACHE
    assert (trees[-1]._shape, 0) in exprlang._CACHE
    del trees, tree
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_threads_compiling_distinct_functions_keep_the_cache_whole():
    # more threads than cores, switching often: eviction must neither raise nor lose its cap
    errors = []

    def work(k):
        try:
            for i in range(60):
                # 360 shapes, one per exponent, cycle through the 64 places of the cache
                f, n, c = parse(f"x^{60 * k + i} + {k}.{i}"), 60 * k + i, float(f"{k}.{i}")
                # at x = 2 the shape shows (2^n absorbs c once n >= 54); at x = 1 the constant does
                assert f(2.0) == 2.0**n + c
                assert f(1.0) == 1.0 + c
        except Exception as exc:  # reported through the list below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(exprlang._CACHE) == exprlang._CACHE_SIZE

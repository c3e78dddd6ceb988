"""The CLI's JSON walker writes exactly the bytes of ``json.dumps(sort_keys=True, indent=2)``."""

import collections
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from hhaudit.cli import _render

# quotes, backslashes, control characters, non-ASCII, the JSON-legal line separator,
# an astral character and a lone surrogate, on top of whatever hypothesis draws
_chars = st.one_of(st.characters(exclude_categories=()), st.sampled_from('"\\\x00\x1f\x7f\xe9 \U0001f600\ud800'))
_text = st.text(_chars, max_size=8)
# signed zeros, non-finite values, the smallest subnormal and the points where repr switches notation
_floats = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                                                  1e16, 9999999999999998.0, 1e-5, 0.0001, 1e22, 1e21]))
_leaves = st.one_of(_floats, _text, st.integers(-2**64, 2**64), st.booleans(), st.none())
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_text, kids, max_size=4),
        st.dictionaries(_text, kids, max_size=3).map(collections.OrderedDict),  # a subclass: json's own path
    ),
    max_leaves=16,
)


@st.composite
def _docs(draw):
    """A random tree plus the sharing a verify doc has: one float object at several depths,
    0.0 beside -0.0, and one dict in two lists, as a finding is also a report."""
    x, report = draw(_floats), draw(st.dictionaries(_text, _trees, max_size=4))
    return {
        "tree": draw(_trees),
        "shared": [x, {"x": x, "zeros": [0.0, -0.0, {"z": -0.0}]}, [[x]]],
        "findings": [report],
        "reports": [{"x": x}, report],
    }


@settings(max_examples=200, deadline=None)
@given(_docs())
def test_render_equals_json_dumps(doc):
    assert _render(doc, False) == json.dumps(doc, sort_keys=True, indent=2)


def test_unsupported_type_raises_type_error():
    with pytest.raises(TypeError):
        _render({"reports": [{"inputs": {1, 2}}]}, False)

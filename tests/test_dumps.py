"""The canonical JSON emitter against the stdlib encoder it replaces."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parstack import scenario as sio


def reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


TRICKY_CHARS = st.sampled_from('"\\/\x00\x08\x0c\x1f\x7f\x80\xe9 ￿'
                               "\U0001f600\n\r\t ")
TEXT = st.text(st.characters() | TRICKY_CHARS, max_size=12)
SCALARS = (st.none() | st.booleans() | TEXT
           | st.integers(min_value=-2 ** 200, max_value=2 ** 200)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300,
                              -1e-300, 5e-324]))
# encoded elements and near misses, from small pools so that they repeat
ELEMENTS = st.fixed_dictionaries({
    "coeffs": st.lists(st.sampled_from(["1", "-2/3", "\xe9"]) | SCALARS, max_size=3),
    "t_order": st.integers(min_value=-2, max_value=2) | st.booleans()})
VALUES = st.recursive(
    SCALARS | ELEMENTS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(TEXT, inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_dumps_matches_stdlib_indent_encoder(value):
    assert sio.dumps(value) == reference(value)


ELEMENT = {"coeffs": ["1", "-2/3"], "t_order": -2}
# encoded elements take a memoized template; near misses take the general path
ELEMENT_CASES = [
    ELEMENT,
    {"coeffs": [], "t_order": 0},
    [{"coeffs": ["1"], "t_order": 1}, {"coeffs": ["1"], "t_order": True}],
    [{"coeffs": [1, 2], "t_order": 0}, {"coeffs": [0.5], "t_order": 1}],
    [{"coeffs": ["1"], "t_order": 0, "unit": "2"}],
    [{"coeffs": ["1"]}, {"t_order": 0}],
    [{"coeffs": ["\xe9", "\u2603", "\U0001f600"], "t_order": 3}],
    {"a": ELEMENT, "b": [ELEMENT, [ELEMENT, {"c": [[ELEMENT]]}]]},
]


@pytest.mark.parametrize("value", [{}, [], [[]], {"a": {}}, [{}, []], "",
                                   math.nan, -math.inf, -0.0, 10 ** 80, True]
                         + ELEMENT_CASES)
def test_dumps_matches_stdlib_on_edge_values(value):
    assert sio.dumps(value) == reference(value)


@pytest.mark.parametrize("value", [Fraction(1, 2), [Fraction(1, 2)],
                                   {"a": {"b": Fraction(3)}}, {1: "x"},
                                   [ELEMENT, {"coeffs": [Fraction(1, 2)], "t_order": 0}],
                                   [ELEMENT, dict(ELEMENT, t_order=Fraction(-2))]])
def test_dumps_rejects_non_json_values(value):
    with pytest.raises(TypeError):
        sio.dumps(value)

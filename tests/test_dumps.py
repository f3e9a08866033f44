"""The canonical JSON emitter against the stdlib encoder it replaces."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parstack import SYMMETRIC, from_parabolic
from parstack import scenario as sio
from parstack.harness import gen_pairing_point, gen_parabolic_point

from conftest import TWO_FIELDS


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


@st.composite
def shared_values(draw):
    """A value holding one generated list or dict at several positions and
    indents, as the same object each time."""
    part = SCALARS | ELEMENTS | st.lists(SCALARS, max_size=2)
    shared = draw(st.lists(part, min_size=1, max_size=3)
                  | st.dictionaries(TEXT, part, min_size=1, max_size=3))
    return draw(st.recursive(
        st.just(shared) | SCALARS,
        lambda inner: (st.lists(inner, min_size=1, max_size=4)
                       | st.dictionaries(TEXT, inner, min_size=1, max_size=4)),
        max_leaves=12))


@settings(max_examples=100, deadline=None)
@given(shared_values())
def test_dumps_matches_stdlib_on_shared_sub_objects(value):
    assert sio.dumps(value) == reference(value)


ELEMENT = {"coeffs": ["1", "-2/3"], "t_order": -2}
# encoded elements and near misses; the last two cases hold one dict at
# several indents, and at one indent twice
ELEMENT_CASES = [
    ELEMENT,
    {"coeffs": [], "t_order": 0},
    [{"coeffs": ["1"], "t_order": 1}, {"coeffs": ["1"], "t_order": True}],
    [{"coeffs": [1, 2], "t_order": 0}, {"coeffs": [0.5], "t_order": 1}],
    [{"coeffs": ["1"], "t_order": 0, "unit": "2"}],
    [{"coeffs": ["1"]}, {"t_order": 0}],
    [{"coeffs": ["\xe9", "\u2603", "\U0001f600"], "t_order": 3}],
    {"a": ELEMENT, "b": [ELEMENT, [ELEMENT, {"c": [[ELEMENT]]}]]},
    [ELEMENT, [ELEMENT], ELEMENT],
]


# the scalars the stdlib writes, alone and at several positions and indents
SCALAR_CASES = [math.inf, 1e16, None, False,
                [math.nan, math.inf, -math.inf, -0.0, 1e16, True, None],
                {"a": math.nan, "b": [None, {"c": 1e16, "d": [-0.0, -math.inf]}],
                 "e": True, "f": math.inf}]


@pytest.mark.parametrize("value", [{}, [], [[]], {"a": {}}, [{}, []], "",
                                   math.nan, -math.inf, -0.0, 10 ** 80, True]
                         + ELEMENT_CASES + SCALAR_CASES)
def test_dumps_matches_stdlib_on_edge_values(value):
    assert sio.dumps(value) == reference(value)


@pytest.mark.parametrize("value", [Fraction(1, 2), [Fraction(1, 2)],
                                   {"a": {"b": Fraction(3)}}, {1: "x"},
                                   [ELEMENT, {"coeffs": [Fraction(1, 2)], "t_order": 0}],
                                   [ELEMENT, dict(ELEMENT, t_order=Fraction(-2))]])
def test_dumps_rejects_non_json_values(value):
    with pytest.raises(TypeError):
        sio.dumps(value)


def _assert_shared(members, encoded):
    """Equal neighbouring members, and equal columns and elements anywhere
    in ``members``, are encoded as one object; returns how many repeats
    reused one."""
    columns, elements, repeats = {}, {}, 0
    for k, (lat, enc) in enumerate(zip(members, encoded)):
        if k and lat == members[k - 1]:
            assert enc is encoded[k - 1]
        for col, enc_col in zip(lat.cols, enc["columns"]):
            repeats += col in columns
            assert columns.setdefault(col, enc_col) is enc_col
            for x, enc_x in zip(col, enc_col):
                repeats += x in elements
                assert elements.setdefault(x, enc_x) is enc_x
                assert enc_x == sio.encode_element(x)
    assert len(encoded) == len(members)
    return repeats


@TWO_FIELDS
def test_encoders_share_equal_sub_objects(field):
    rng = random.Random(17)
    repeats = 0
    for _ in range(12):
        pt = gen_parabolic_point(rng, rng.randint(1, 4), rng.randint(1, 10), field)
        mod = from_parabolic(pt)
        point, module = sio.encode_point(pt, field), sio.encode_module(mod, field)
        repeats += _assert_shared(pt.chain, point["chain"])
        repeats += _assert_shared(mod.pieces, module["pieces"])
        for doc in (point, module, {"a": point, "b": [point, module]}):
            assert sio.dumps(doc) == reference(doc)
    assert repeats > 0


@TWO_FIELDS
def test_pairing_encoding_shares_equal_sub_objects(field):
    rng = random.Random(19)
    drawn = 0
    while drawn < 6:
        made = gen_pairing_point(rng, field, rng.randint(2, 6), 0, 0, SYMMETRIC, 2, "y")
        if made is None:
            continue
        drawn += 1
        pt, form, _ = made
        point = sio.encode_point(pt, field)
        assert _assert_shared(pt.chain, point["chain"]) > 0
        cols = sio.encode_matrix_cols(form, field)
        elements = {}
        for j, enc_col in enumerate(cols):
            for i, enc_x in enumerate(enc_col):
                assert elements.setdefault(form[i][j], enc_x) is enc_x
                assert enc_x == sio.encode_element(form[i][j])
        doc = {"point": point, "form": cols}
        assert sio.dumps(doc) == reference(doc)

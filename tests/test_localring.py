"""Property test of the integer Laurent kernel against a plain reference.

The reference keeps an element as a dict {exponent: field value} of its
nonzero terms, with values Fraction on Q and int residues on GF(p), and
implements every operation by the textbook formula, reducing ``% p``
on GF(p).  Each LocalElement operation must agree with it, leave its result
in the normal form of localring, and give equal values equal ``==`` and
``hash``.
"""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from parstack import QQ, LocalElement, PrimeField, TrialConfig
from parstack.harness import SUITES

from conftest import planted, values

FIELDS = (QQ, PrimeField(101), PrimeField(3))


# -- the reference -----------------------------------------------------------


def terms(x):
    return {x.ord + i: v for i, v in enumerate(values(x)) if v != 0}


def build(field, ts):
    """The LocalElement of a term dict."""
    if not ts:
        return LocalElement.zero()
    lo, hi = min(ts), max(ts)
    return LocalElement.make(field, lo, [ts.get(e, field.zero) for e in range(lo, hi + 1)])


def reduce(field, v):
    return v % field.p if field.p else v


def clean(field, ts):
    """The nonzero terms of ts, reduced mod p on GF(p)."""
    ts = {e: reduce(field, v) for e, v in ts.items()}
    return {e: v for e, v in ts.items() if v != 0}


def power(field, u, k):
    """u**k for a nonzero field value u and any integer k."""
    return pow(u, k, field.p) if field.p else u ** k


def ref_add(field, a, b, sign=1):
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, 0) + sign * v
    return clean(field, out)


def ref_mul(field, a, b):
    out = {}
    for e, v in a.items():
        for f, w in b.items():
            out[e + f] = out.get(e + f, 0) + v * w
    return clean(field, out)


def ref_inv_series(field, a, nterms):
    """b_0 = 1/a_0, b_m = -(1/a_0) * sum_{i>=1} a_i b_{m-i}."""
    inv0 = power(field, a[0], -1)
    b = [inv0]
    for m in range(1, nterms):
        acc = sum(a[i] * b[m - i] for i in range(1, m + 1) if i in a)
        b.append(reduce(field, -inv0 * acc))
    return clean(field, dict(enumerate(b)))


def assert_normal(x):
    if not x.coeffs:
        assert x is LocalElement.zero() and (x.ord, x.den, x.p) == (0, 1, 0)
        return
    assert type(x.ord) is int and type(x.p) is int and type(x.den) is int
    assert type(x.coeffs) is tuple and all(type(c) is int for c in x.coeffs)
    assert x.coeffs[0] and x.coeffs[-1]
    if x.p:
        assert x.den == 1 and all(0 <= c < x.p for c in x.coeffs)
    else:
        assert x.den > 0 and gcd(x.den, *x.coeffs) == 1


def check(field, x, ts):
    """x is in normal form and has the reference value ts, and so does the
    element built from ts: equal values, equal == and hash."""
    assert_normal(x)
    assert terms(x) == ts
    y = build(field, ts)
    assert x == y and hash(x) == hash(y)


# -- strategies ----------------------------------------------------------------


@st.composite
def value(draw, field):
    if field.p:
        return field.of(draw(st.integers(0, field.p - 1)))
    return field.of(draw(st.fractions(-6, 6, max_denominator=6)))


@st.composite
def element_terms(draw, field):
    lo = draw(st.integers(-4, 4))
    vals = draw(st.lists(value(field), max_size=6))
    return clean(field, {lo + i: v for i, v in enumerate(vals)})


@st.composite
def field_and(draw, count):
    field = draw(st.sampled_from(FIELDS))
    return (field,) + tuple(draw(element_terms(field)) for _ in range(count))


@st.composite
def field_unit(draw):
    field = draw(st.sampled_from(FIELDS))
    ts = {e: v for e, v in draw(element_terms(field)).items() if e > 0}
    ts[0] = draw(value(field).filter(lambda v: v != 0))
    return field, ts


PROPS = settings(max_examples=150, deadline=None)


# -- the properties ------------------------------------------------------------


@PROPS
@given(field_and(2))
def test_ring_operations_match_the_reference(case):
    field, a, b = case
    x, y = build(field, a), build(field, b)
    check(field, x, a)
    check(field, x + y, ref_add(field, a, b))
    check(field, x - y, ref_add(field, a, b, -1))
    check(field, x * y, ref_mul(field, a, b))
    check(field, -x, clean(field, {e: -v for e, v in a.items()}))
    assert x * y == y * x and hash(x * y) == hash(y * x)
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)


@PROPS
@given(st.data())
def test_scalar_mul_and_shift_match_the_reference(data):
    field, a = data.draw(field_and(1))
    c = data.draw(value(field))
    d = data.draw(st.integers(-5, 5))
    x = build(field, a)
    check(field, x * LocalElement.const(field, c),
          clean(field, {e: c * v for e, v in a.items()}))
    check(field, x.shift(d), {e + d: v for e, v in a.items()})


@PROPS
@given(st.data())
def test_exponent_surgery_matches_the_reference(data):
    field, a = data.draw(field_and(1))
    exp = data.draw(st.integers(-6, 10))
    x = build(field, a)
    check(field, x.truncate(exp), {e: v for e, v in a.items() if e < exp})
    check(field, x.high_div(exp), {e - exp: v for e, v in a.items() if e >= exp})


@PROPS
@given(field_and(1))
def test_coefficient_text_prints_the_field_values(case):
    field, a = case
    x = build(field, a)
    vals = [a.get(e, field.zero) for e in range(x.ord, x.ord + len(x.coeffs))]
    assert x.coeff_texts() == [str(v) for v in vals]
    terms_text = [(e, str(v)) for e, v in sorted(a.items())]
    assert repr(x) == (" + ".join(
        c if e == 0 else "%s*t" % c if e == 1 else "%s*t^%d" % (c, e)
        for e, c in terms_text) or "0")


@PROPS
@given(field_unit(), st.integers(1, 9))
def test_inv_series_matches_the_reference(case, nterms):
    field, a = case
    check(field, build(field, a).inv_series(nterms), ref_inv_series(field, a, nterms))


@PROPS
@given(st.data())
def test_twist_spread_decimate_match_the_reference(data):
    field, a = data.draw(field_and(1))
    u = data.draw(value(field).filter(lambda v: v != 0))
    e = data.draw(st.integers(1, 7))
    rho = data.draw(st.integers(1 - e, e - 1))  # restriction decimates at negative offsets
    x = build(field, a)
    for sign in (1, -1):
        check(field, x.twist(u, sign),
              clean(field, {q: v * power(field, u, sign * q) for q, v in a.items()}))
    check(field, x.spread(e), {q * e: v for q, v in a.items()})
    check(field, x.decimate(e, rho),
          {(m - rho) // e: v for m, v in a.items() if (m - rho) % e == 0})


@PROPS
@given(field_and(1), st.integers(-6, 6))
def test_decimate_at_e_1_is_the_general_path(case, rho):
    """decimate(1, rho) is the shift by -rho: the same element as the
    general path (its e == 1 branch planted away) gives, and it keeps the
    coefficient tuple instead of copying it."""
    field, a = case
    x = build(field, a)
    general = planted(LocalElement.decimate, ("if e == 1:", "if False:"))
    y = x.decimate(1, rho)
    check(field, y, {m - rho: v for m, v in a.items()})
    assert y == general(x, 1, rho)
    assert y.coeffs is x.coeffs


@pytest.mark.parametrize("field_name", ["rational", "prime:101"])
def test_every_element_the_suites_build_is_in_normal_form(field_name, monkeypatch):
    """Each element built in a verify run stores ints in normal form, and
    zero is never built again."""
    built = []
    init = LocalElement.__init__

    def recording_init(self, t_order, coeffs, den, p):
        init(self, t_order, coeffs, den, p)
        built.append(self)

    monkeypatch.setattr(LocalElement, "__init__", recording_init)
    for suite in SUITES.values():
        assert suite(TrialConfig(seed=5, trials=15, field_name=field_name)).passed
        assert built
        for x in built:
            assert x.coeffs
            assert_normal(x)
        built.clear()

"""Property test of the integer Laurent kernel against a plain reference.

The reference keeps an element as a dict {exponent: field value} of its
nonzero terms, with values Fraction on Q and int residues on GF(p), and
implements every operation by the textbook formula, reducing ``% p``
on GF(p); the twist, the component and the substitution are the
definitions of tests/jetspace.py on the same dicts.  Each LocalElement
operation must agree with it, leave its result in the normal form of
localring, and give equal values equal ``==`` and ``hash``.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from parstack import QQ, LocalElement, PrimeField, TrialConfig
from parstack.harness import SUITES

from conftest import from_terms, values
from jetspace import component, substitution

FIELDS = (QQ, PrimeField(101), PrimeField(3))


# -- the reference -----------------------------------------------------------


def terms(x):
    return {x.ord + i: v for i, v in enumerate(values(x)) if v != 0}


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
    y = from_terms(field, ts)
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
    x, y = from_terms(field, a), from_terms(field, b)
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
    x = from_terms(field, a)
    check(field, x * LocalElement.const(field, c),
          clean(field, {e: c * v for e, v in a.items()}))
    check(field, x.shift(d), {e + d: v for e, v in a.items()})


@PROPS
@given(st.data())
def test_exponent_surgery_matches_the_reference(data):
    field, a = data.draw(field_and(1))
    exp = data.draw(st.integers(-6, 10))
    x = from_terms(field, a)
    check(field, x.truncate(exp), {e: v for e, v in a.items() if e < exp})
    check(field, x.high_div(exp), {e - exp: v for e, v in a.items() if e >= exp})


@PROPS
@given(field_and(1))
def test_coefficient_text_prints_the_field_values(case):
    field, a = case
    x = from_terms(field, a)
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
    check(field, from_terms(field, a).inv_series(nterms), ref_inv_series(field, a, nterms))


# units per field: 1, -1 and others (GF(2) has only 1, GF(3) only +-1)
KERNEL_UNITS = [(QQ, [QQ.one, QQ.of(-1), QQ.of(2), QQ.of("2/3"), QQ.of("-5/4")]),
                (PrimeField(101), [1, 100, 2, 51]), (PrimeField(2), [1]), (PrimeField(3), [1, 2])]


def _kernel_inputs(rng, field):
    """Term dicts: one-term at negative, zero and positive orders, and long
    ones (up to 25 terms, some zero) starting at negative and positive
    orders."""
    def nonzero():
        return field.of(field.random_nonzero(rng)) if field.p else \
            field.of(Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.randint(1, 6)))

    out = [{d: nonzero()} for d in (-7, 0, 5)]
    for lo in (rng.randint(-15, -1), rng.randint(0, 15)):
        size = rng.randint(2, 25)
        ts = {lo + i: nonzero() for i in range(size) if i in (0, size - 1) or rng.random() < 0.7}
        out.append(ts)
    return out


@pytest.mark.parametrize("field,units", KERNEL_UNITS, ids=["Q", "GF101", "GF2", "GF3"])
def test_twist_and_the_kernels_match_the_term_dict_definitions(field, units):
    """``twist``, ``component``, ``substitute`` and ``spread`` against the
    term-dict definitions of tests/jetspace.py: component rho along
    w = u * t^e takes c * t^(q*e + rho) to c * u^(-q) * w^q, substitution
    takes c * t^b to c * u^b * t^(e*b), and twist(u, sign) is the
    substitution (sign +1) or the component 0 (sign -1) at e = 1; spread
    is the substitution with u = 1.  Every e from 1 to 12 and rho in
    (-e, e); results are in normal form."""
    rng = random.Random(241)
    p = field.p
    for e in range(1, 13):
        for a in _kernel_inputs(rng, field):
            x = from_terms(field, a)
            check(field, x.spread(e), substitution(p, a, e, field.one))
            for u in units:
                check(field, x.twist(u), substitution(p, a, 1, u))
                check(field, x.twist(u, -1), component(p, a, 1, u, 0))
                check(field, x.substitute(e, u), substitution(p, a, e, u))
                for rho in range(1 - e, e):
                    check(field, x.component(e, rho, u), component(p, a, e, u, rho))


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

"""Laurent-element arithmetic, coefficient fields, and lattice operations.

Frozen small examples are asserted directly; derived values (membership,
colength and the canonical stored form) are cross-checked against the
jet-space oracle of tests/jetspace.py, which shares no kernel with the
library.  The element arithmetic is checked against a plain reference in
tests/test_localring.py.
"""

import random
from fractions import Fraction

import pytest

from parstack import (QQ, AmbientMismatch, Lattice, LocalElement,
                      PrimeField, SingularBasis, apply_matrix, direct_sum,
                      field_from_name)
from parstack import lattice as lattice_module
from parstack.linalg import mat_vec

from conftest import GF101, diagonal_lattice, el, lat, random_columns, random_element, values
from jetspace import colength_holds, member


# -- LocalElement ----------------------------------------------------------


def test_make_normalizes_leading_and_trailing_zeros():
    x = LocalElement.make(QQ, -1, [QQ.of(0), QQ.of(3), QQ.of(0)])
    assert x.ord == 0 and x.coeffs == (3,) and x.den == 1
    assert LocalElement.make(QQ, 5, [QQ.of(0), QQ.of(0)]).is_zero()
    # integer numerators over one denominator in lowest terms
    y = LocalElement.make(QQ, 0, [QQ.of("1/2"), QQ.of("1/3"), QQ.of("1/6")])
    assert (y.coeffs, y.den) == ((3, 2, 1), 6)
    assert values(y) == [QQ.of("1/2"), QQ.of("1/3"), QQ.of("1/6")]
    z = LocalElement.make(GF101, 0, [GF101.of(-1), GF101.of("1/2")])
    assert (z.coeffs, z.den, z.p) == ((100, 51), 1, 101)


def test_exponent_surgery():
    x = el(-1, 1, 2, 3, 4)  # t^-1 + 2 + 3t + 4t^2
    assert x.truncate(1) == el(-1, 1, 2)
    assert x.truncate(0) == el(-1, 1)
    assert x.high_div(0) == el(0, 2, 3, 4)
    assert x.high_div(2) == el(0, 4)
    assert x.degree == 2
    assert LocalElement.zero().degree is None


def test_unit_poly_and_inverse_series():
    x = el(2, 1, 1)  # t^2 * (1 + t)
    u = x.unit_poly()
    assert u == el(0, 1, 1)
    inv = u.inv_series(6)
    prod = (u * inv).truncate(6)
    assert prod == el(0, 1)
    # constant units take the fast path on both coefficient fields
    for field in (QQ, GF101):
        for c in (1, -1, 3, 7):
            u = el(0, c, field=field)
            for k in (1, 4):
                assert (u * u.inv_series(k)).truncate(k) == el(0, 1, field=field)
    with pytest.raises(ZeroDivisionError):
        LocalElement.zero().unit_poly()
    with pytest.raises(ZeroDivisionError):
        el(1, 1).inv_series(4)


# -- fields ----------------------------------------------------------------


def test_rational_field_coercions():
    assert QQ.of("2/3") * QQ.of(3) == QQ.of(2)
    assert str(QQ.of("2/3")) == "2/3"
    assert field_from_name("rational") == QQ
    with pytest.raises(ValueError, match="too large"):
        field_from_name("prime:2147483659")  # the first prime above 2^31


def test_prime_field_codec():
    f = GF101
    assert f.zero == 0 and f.one == 1
    assert f.of(45) == 45 and f.of(-1) == 100 and f.of(202) == 0
    assert f.of("1/2") == f.of(Fraction(1, 2)) == 51
    assert f.of("-3") == 98 and f.of("-2/3") == 2 * pow(-3, -1, 101) % 101
    assert str(f.of("1/2")) == "51"
    rng, again = random.Random(3), random.Random(3)
    assert f.random_nonzero(rng) == again.randint(1, 100)
    assert field_from_name("prime:101") == f
    with pytest.raises(ValueError):
        PrimeField(10)
    with pytest.raises(ValueError):
        f.of("1/101")
    with pytest.raises(TypeError):
        f.of(0.5)


@pytest.mark.parametrize("value", [0.5, Fraction(1, 2)], ids=["float", "Fraction"])
def test_prime_field_elements_reject_non_integer_values(value):
    """A stray division yields a float (or a Fraction), never a residue."""
    with pytest.raises(TypeError):
        LocalElement.make(GF101, 0, [1, value])
    with pytest.raises(TypeError):
        LocalElement.const(GF101, value)
    with pytest.raises(TypeError):
        el(0, 1, 2, field=GF101).twist(value)


# -- lattice canonical form ------------------------------------------------


def test_canonical_form_of_two_generating_sets_agree():
    # span{(t,0), (1,1)} = span{(1,1), (0,t)}: same canonical basis
    a = lat([[(1, 1), 0], [1, 1]])
    b = lat([[1, 1], [0, (1, 1)]])
    assert a == b
    # both generating sets are members of the common span (oracle check)
    for col in ([el(1, 1), el(0, 0)], [el(0, 1), el(0, 1)], [el(0, 0), el(1, 1)]):
        assert a.member(col)
        assert member(a, [col])
    assert a.det_valuation() == 1 and colength_holds(a)


def test_canonical_invariants():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        l = lat(random_columns(rng, n, extra=rng.randint(0, 2)))
        assert Lattice.from_columns(QQ, n, [list(c) for c in l.cols]) == l
        assert colength_holds(l)  # and, through the oracle, the canonical stored form


def test_scale_shifts_diagonal():
    l = lat([[(2, 1), 0], [0, 1]])
    assert l.scale(-1) == diagonal_lattice(QQ, [1, -1])
    assert l.scale(-1).scale(1) == l


def test_membership_against_oracle():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 3)
        l = lat(random_columns(rng, n))
        for _ in range(6):
            vec = [random_element(rng) for _ in range(n)]
            assert l.member(vec) == member(l, [vec])


def test_singular_generators_rejected():
    with pytest.raises(SingularBasis):
        lat([[1, 1], [2, 2]])
    with pytest.raises(SingularBasis):
        Lattice.from_columns(QQ, 2, [[el(0, 1), el(0, 0)]])
    with pytest.raises(AmbientMismatch):
        Lattice.from_columns(QQ, 2, [[el(0, 1)], [el(0, 0), el(0, 1)]])


# -- containment / dual ------------------------------------------------------


def test_containment_needs_a_common_ambient():
    r2 = diagonal_lattice(QQ, [0, 0])
    assert r2.contains(lat([[1, 1], [0, (1, 1)]])) and r2.contains(r2.scale(1))
    assert not r2.scale(1).contains(r2)
    with pytest.raises(AmbientMismatch):
        r2.contains(diagonal_lattice(QQ, [0, 0, 0]))
    # equal ranks over different fields: the message names the fields
    with pytest.raises(AmbientMismatch, match="rank 2 over rational vs 2 over prime:101"):
        diagonal_lattice(QQ, [0, 1]).contains(diagonal_lattice(GF101, [0, 1]))
    with pytest.raises(TypeError):
        r2.contains(r2.cols)


def test_dual_examples_and_involution():
    assert diagonal_lattice(QQ, [2, -1]).dual() == diagonal_lattice(QQ, [-2, 1])
    rng = random.Random(23)
    for _ in range(12):
        n = rng.randint(1, 3)
        l = lat(random_columns(rng, n))
        d = l.dual()
        assert d.dual() == l
        assert d.det_valuation() == -l.det_valuation()
        # <dual basis, basis> lands in R
        for dc in d.cols:
            for c in l.cols:
                acc = LocalElement.zero()
                for x, y in zip(dc, c):
                    acc = acc + x * y
                assert acc.is_zero() or acc.ord >= 0


def test_operations_over_prime_field():
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(1, 3)
        a = lat(random_columns(rng, n, field=GF101), field=GF101)
        b = lat(random_columns(rng, n, field=GF101), field=GF101)
        s = Lattice.from_columns(GF101, n, [list(c) for c in a.cols] + [list(c) for c in b.cols])
        assert s.contains(a) and s.contains(b)
        assert a.dual().dual() == a
        assert Lattice.from_columns(GF101, n, [list(c) for c in a.cols]) == a


def test_direct_sum_blocks():
    a = diagonal_lattice(QQ, [1])
    b = lat([[1, 1], [0, (1, 1)]])
    d = direct_sum([a, b])
    assert d.n == 3 and d.diag == (1,) + b.diag
    assert d.member([el(1, 1), el(0, 0), el(0, 0)])
    assert not d.member([el(0, 1), el(0, 0), el(0, 0)])
    assert direct_sum([b]) is b


def test_from_canonical_checks_the_shape():
    b = lat([[(2, 1), 0], [(0, 1, 1), 1]])
    assert (b.entries, b.diag) == (((), ((0, el(0, 1, 1)),)), (2, 0))
    assert Lattice.from_canonical(QQ, b.entries, b.diag) == b
    x = b.entries[1]
    for entries in ((((0, el(2, 2)),), x),       # an entry at the pivot row
                    (((1, el(0, 1)),), x),       # nonzero below the pivot
                    ((), ((0, el(0, 1, 0, 1)),)),  # 1 + t^2 above the pivot t^2
                    ((), ((0, el(0, 0)),))):     # a stored zero
        with pytest.raises(AssertionError, match="internal: column"):
            Lattice.from_canonical(QQ, entries, b.diag)
    c = lat([[(1, 1), 0, 0], [0, (1, 1), 0], [1, 1, 1]])
    assert c.entries[2] == ((0, el(0, 1)), (1, el(0, 1)))
    with pytest.raises(AssertionError, match="internal: column"):  # rows out of order
        Lattice.from_canonical(QQ, c.entries[:2] + (c.entries[2][::-1],), c.diag)


@pytest.mark.parametrize("field, factor", [(QQ, 2), (GF101, 3)])
def test_from_columns_keeps_a_canonical_basis(monkeypatch, field, factor):
    """A canonical basis comes back as it is, with no canonicalization; a
    basis with one defect of shape falls through to _canonicalize."""
    canonicalize = lattice_module._canonicalize
    calls = []

    def counted(*args):
        calls.append(args)
        return canonicalize(*args)

    monkeypatch.setattr(lattice_module, "_canonicalize", counted)

    def falls_through(columns):
        del calls[:]
        got = Lattice.from_columns(field, len(columns[0]), columns)
        assert len(calls) == 1
        assert got == canonicalize(field, len(columns[0]), columns)

    rng = random.Random(37)
    seen = set()
    for _ in range(30):
        n = rng.randint(1, 4)
        l = lat(random_columns(rng, n, field=field, extra=rng.randint(0, 2)), field=field)
        seen.update(l.diag)
        del calls[:]
        assert Lattice.from_columns(field, n, [list(c) for c in l.cols]) == l
        assert not calls
        j = rng.randrange(n)
        cols = [list(c) for c in l.cols]
        cols[j][j] = cols[j][j] * el(0, factor, field=field)  # pivot not t^a
        falls_through(cols)
        if n > 1:
            i, j = sorted(rng.sample(range(n), 2))
            cols = [list(c) for c in l.cols]  # entry above a pivot not reduced
            cols[j][i] = cols[j][i] + LocalElement.t_power(field, l.diag[i])
            falls_through(cols)
            cols = [list(c) for c in l.cols]  # nonzero entry below a pivot
            cols[i][j] = el(0, 1, field=field)
            falls_through(cols)
        cols = [list(c) for c in l.cols]
        cols[rng.randrange(n)].pop()
        with pytest.raises(AmbientMismatch):
            Lattice.from_columns(field, n, cols)
    assert min(seen) < 0 < max(seen)


def test_apply_matrix_and_image_columns():
    l = diagonal_lattice(QQ, [0, 1])
    rows = [[el(0, 0), el(0, 1)], [el(1, 1), el(0, 0)]]  # swap, t on one slot
    img = apply_matrix(rows, l)
    assert img == diagonal_lattice(QQ, [1, 1])
    gens = [mat_vec(rows, c) for c in l.cols]
    assert gens == [[el(0, 0), el(1, 1)], [el(1, 1), el(0, 0)]]
    singular = [[el(0, 1), el(0, 1)], [el(0, 1), el(0, 1)]]
    with pytest.raises(SingularBasis):
        apply_matrix(singular, l)

"""Support-aware Laurent matrix kernels against dense references, where
the jet-space oracle (tests/jetspace.py, read by tests/test_jetspace.py)
cannot see.

The oracle compares spans of lattices: it is the one reference for the
lattices that ``from_columns``, ``scale``, ``direct_sum``,
``restrict_scalars`` and ``twist_restricted`` return and for the answers
of ``member``, ``contains`` and ``==``.  What it cannot see is checked
here against references that walk every index and multiply zeros like any
other entry, so they share no skipping logic with the library:

* products ``mat_vec`` of sparse matrices with vectors and basis columns;
* back-substitution and the triangular inverse on upper-triangular bases
  whose entries are not reduced, which no lattice stores;
* ``restrict_matrix``, the restriction of a matrix rather than a lattice
  (e <= 7);
* the shape check of ``from_canonical`` on stored forms with one fault
  each: an entry at or below its column's pivot row, a stored zero, two
  entries out of row order, a pivot exponent off by one, or an entry at or
  past its row's pivot degree;
* the precision bound of ``_canonicalize``, that no kernel multiplies by a
  zero entry, and that a product with a t-power is a shift.

Inputs are sparse on purpose: the zero vector, vectors whose only nonzero
entry is the first or the last row, vectors with negative valuations, and
generators with zero rows and zero columns, on Q, GF(101) and GF(3), and
on GF(2) for the shape check.
"""

import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from parstack import QQ, Lattice, LocalElement, ParabolicPoint, PrimeField, SingularBasis
from parstack.functors import restrict_matrix, restrict_scalars, twist_restricted
from parstack.harness import gen_unimodular
from parstack.lattice import back_substitute, entries_above, triangular_inverse
from parstack.linalg import mat_vec

from conftest import decompose_element

FIELDS = (QQ, PrimeField(101), PrimeField(3))
ALL_FIELDS = FIELDS + (PrimeField(2),)
ZERO = LocalElement.zero()


# -- dense references --------------------------------------------------------


def dense_dot(row, v):
    return reduce(add, [a * x for a, x in zip(row, v)], ZERO)


def dense_mat_vec(a, v):
    return [dense_dot(row, v) for row in a]


def dense_solve(cols, diag, w):
    n = len(cols)
    x = [ZERO] * n
    for j in range(n - 1, -1, -1):
        acc = w[j] - dense_dot([cols[k][j] for k in range(j + 1, n)], x[j + 1:])
        x[j] = acc.shift(-diag[j])
    return x


def dense_restrict_matrix(rows, e, u):
    """Entry (i*e + rho2, j*e + sigma): component rho2 of t^sigma * rows[i][j]."""
    comps = [[decompose_element(x.shift(sigma), e, u) for x in row for sigma in range(e)]
             for row in rows]
    return [[c[rho2] for c in row] for row in comps for rho2 in range(e)]


def dense_stored_shape(field, entries, diag):
    """The shape check of a stored form through a dense one: place the
    pairs in dense columns, the pivot t^{diag[j]} where row j stores
    nothing, and require a canonical dense basis (zero below each pivot,
    entries above it of degree below their row's pivot exponent) whose
    nonzero entries off the pivots, read back in row order, are the stored
    pairs."""
    n = len(diag)
    cols = [[ZERO] * n for _ in range(n)]
    for j, ent in enumerate(entries):
        cols[j][j] = LocalElement.t_power(field, diag[j])
        for i, x in ent:
            cols[j][i] = x
    for j in range(n):
        for i in range(n):
            x = cols[j][i]
            if i == j:
                ok = x == LocalElement.t_power(field, diag[j])
            elif i > j:
                ok = not x.coeffs
            else:
                ok = not x.coeffs or x.degree < diag[i]
            if not ok:
                return False
    return all(tuple((i, x) for i, x in enumerate(col) if i != j and x.coeffs) == ent
               for j, (col, ent) in enumerate(zip(cols, entries)))


# -- strategies ----------------------------------------------------------------


@st.composite
def elements(draw, field, zero_weight=3):
    """A Laurent element, zero with probability zero_weight / 5."""
    if draw(st.integers(0, 4)) < zero_weight:
        return ZERO
    lo, hi = (0, field.p - 1) if field.p else (-6, 6)
    vals = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=4))
    return LocalElement.make(field, draw(st.integers(-3, 3)), [field.of(v) for v in vals])


@st.composite
def vectors(draw, field, n):
    """The zero vector, a single nonzero entry in row 0 or row n-1, or a
    sparse vector; entries may have negative valuation."""
    kind = draw(st.sampled_from(("zero", "first", "last", "sparse")))
    v = [ZERO] * n
    if kind == "sparse":
        return [draw(elements(field)) for _ in range(n)]
    if kind != "zero":
        v[0 if kind == "first" else n - 1] = draw(elements(field, zero_weight=0))
    return v


@st.composite
def generators(draw, field, n):
    """n + extra sparse columns, with a zero row and zero columns at times."""
    cols = [[draw(elements(field)) for _ in range(n)]
            for _ in range(n + draw(st.integers(0, 3)))]
    if draw(st.integers(0, 3)) == 0:
        dead = draw(st.integers(0, n - 1))
        for col in cols:
            col[dead] = ZERO
    for _ in range(draw(st.integers(0, 2))):
        cols.insert(draw(st.integers(0, len(cols))), [ZERO] * n)
    return cols


@st.composite
def lattices(draw, field, n):
    """A full-rank lattice: sparse generators plus t^{d_i} e_i for each i."""
    cols = draw(generators(field, n))
    for i in range(n):
        cols.append([LocalElement.t_power(field, draw(st.integers(0, 3))) if r == i else ZERO
                     for r in range(n)])
    return Lattice.from_columns(field, n, cols)


@st.composite
def triangular_bases(draw, field, n):
    """(cols, diag) of an upper-triangular basis with pivots t^{diag[j]};
    about half of the entries above the pivots get a term of degree at
    least their row's pivot exponent, so the basis is not reduced."""
    diag = [draw(st.integers(-2, 3)) for _ in range(n)]
    cols = [[ZERO] * n for _ in range(n)]
    for j in range(n):
        cols[j][j] = LocalElement.t_power(field, diag[j])
        for i in range(j):
            x = draw(elements(field))
            if draw(st.booleans()):
                x = x + LocalElement.t_power(field, diag[i] + draw(st.integers(0, 2)))
            cols[j][i] = x
    return cols, diag


@st.composite
def field_and_rank(draw, max_n=5):
    return draw(st.sampled_from(FIELDS)), draw(st.integers(1, max_n))


@st.composite
def units(draw, field):
    """A unit of the field; on Q some have denominators."""
    if field.p:
        return draw(st.integers(1, field.p - 1))
    return Fraction(draw(st.sampled_from((1, -1, 2, -3, 5, "2/3", "-5/4", "7/2"))))


@st.composite
def twisted_restrictions(draw, field):
    """res(t^l * L) built by restrict_scalars and twist_restricted: a basis
    whose columns are mostly pivot-only."""
    lattice = draw(lattices(field, draw(st.integers(1, 3))))
    e, u = draw(st.integers(1, 4)), draw(units(field))
    return twist_restricted(restrict_scalars(lattice, e, u), e, u,
                            draw(st.integers(-2 * e, 2 * e)))


@st.composite
def near_canonical_bases(draw, field):
    """(entries, diag), the stored form of a twisted restriction, as it is
    or with one fault: an entry below its column's pivot row or at it, a
    stored zero, two entries out of row order, a pivot exponent off by
    one, or an entry above a pivot at or past its row's pivot degree."""
    lattice = draw(twisted_restrictions(field))
    n = lattice.n
    entries, diag = [list(c) for c in lattice.entries], list(lattice.diag)
    j = draw(st.integers(0, n - 1))
    ent = entries[j]
    fault = draw(st.sampled_from(("none", "below", "pivot", "zero", "order", "exponent",
                                  "above")))
    if fault == "below" and j < n - 1:
        ent.append((draw(st.integers(j + 1, n - 1)), draw(elements(field, zero_weight=0))))
    elif fault == "pivot":
        ent.append((j, draw(elements(field, zero_weight=0))))
    elif fault == "zero" and ent:
        k = draw(st.integers(0, len(ent) - 1))
        ent[k] = (ent[k][0], ZERO)
    elif fault == "order" and len(ent) > 1:
        k = draw(st.integers(1, len(ent) - 1))
        ent[k - 1], ent[k] = ent[k], ent[k - 1]
    elif fault == "exponent":
        diag[j] += draw(st.sampled_from((-1, 1)))
    elif fault == "above" and j:
        i = draw(st.integers(0, j - 1))
        col = dict(ent)
        col[i] = col.get(i, ZERO) + LocalElement.t_power(field, diag[i] + draw(st.integers(0, 2)))
        entries[j] = sorted(col.items(), key=lambda pair: pair[0])
    return tuple(tuple(c) for c in entries), tuple(diag)


PROPS = settings(max_examples=120, deadline=None)


# -- the kernels against the references ----------------------------------------


@PROPS
@given(st.data(), field_and_rank())
def test_normalization_precision_lies_in_the_lattice(data, fn):
    """t^P e_i is in L for P = sum(diag) - (n-1)*m, where m <= 0 bounds the
    valuations of a basis of L: the precision bound of _canonicalize."""
    field, n = fn
    lattice = data.draw(lattices(field, n))
    m = min(0, min(x.ord for col in lattice.cols for x in col if x.coeffs))
    prec = sum(lattice.diag) - (n - 1) * m
    for i in range(n):
        assert lattice.member([LocalElement.t_power(field, prec) if r == i else ZERO
                               for r in range(n)])


@PROPS
@given(st.data(), field_and_rank())
def test_back_substitution_matches_dense_on_unreduced_bases(data, fn):
    field, n = fn
    cols, diag = data.draw(triangular_bases(field, n))
    w = data.draw(vectors(field, n))
    assert back_substitute(entries_above(cols), diag, w) == dense_solve(cols, diag, w)
    units = [[LocalElement.t_power(field, 0) if i == j else ZERO for i in range(n)]
             for j in range(n)]
    inv = triangular_inverse(field, entries_above(cols), diag)
    assert inv == [list(row) for row in zip(*[dense_solve(cols, diag, e) for e in units])]
    assert [dense_mat_vec(inv, col) for col in cols] == units


@PROPS
@given(st.data(), field_and_rank())
def test_products_match_dense(data, fn):
    field, n = fn
    lattice = data.draw(lattices(field, n))
    rows = data.draw(generators(field, n))  # zero rows and zero columns included
    cols = lattice.cols
    assert [mat_vec(rows, c) for c in cols] == [dense_mat_vec(rows, c) for c in cols]
    v = data.draw(vectors(field, n))
    assert mat_vec(rows, v) == dense_mat_vec(rows, v)


@PROPS
@given(st.data(), field_and_rank(max_n=3), st.integers(1, 7))
def test_restrict_matrix_matches_dense(data, fn, e):
    field, n = fn
    rows = data.draw(generators(field, n))  # zero rows and zero columns included
    u = field.of(data.draw(st.integers(-5, 5).filter(lambda c: c % (field.p or 7))))
    assert restrict_matrix(rows, e, u) == dense_restrict_matrix(rows, e, u)


@PROPS
@given(st.data(), st.sampled_from(ALL_FIELDS))
def test_from_canonical_matches_the_dense_shape(data, field):
    entries, diag = data.draw(near_canonical_bases(field))
    if dense_stored_shape(field, entries, diag):
        lattice = Lattice.from_canonical(field, entries, diag)
        assert (lattice.entries, lattice.diag) == (entries, diag)
    else:
        with pytest.raises(AssertionError, match="internal: columns not in canonical form"):
            Lattice.from_canonical(field, entries, diag)


# -- the invariant itself --------------------------------------------------------


def _random_entry(rng, field):
    """A random entry, zero with probability 0.65, of any valuation."""
    if rng.random() < 0.65:
        return ZERO
    return LocalElement.make(field, rng.randint(-3, 3),
                             [field.of(rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))])


def _random_sparse(rng, field, shape):
    """Random entries, about two in three zero, with negative valuations."""
    return [[_random_entry(rng, field) for _ in range(shape[1])] for _ in range(shape[0])]


def test_no_kernel_multiplies_by_a_zero_entry(monkeypatch):
    """Every product inside the kernels has two nonzero factors."""
    mul = LocalElement.__mul__
    products, zero_products = [0], []

    def counted(a, b):
        products[0] += 1
        if not a.coeffs or not b.coeffs:
            zero_products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(LocalElement, "__mul__", counted)
    rng, unimodular_rng = random.Random(10), random.Random(11)
    for field in FIELDS:
        for _ in range(30):
            n = rng.randint(1, 5)
            gen_unimodular(unimodular_rng, field, n)
            cols = _random_sparse(rng, field, (n + rng.randint(0, 2), n))
            try:
                Lattice.from_columns(field, n, cols)
            except SingularBasis:
                pass
            cols += [[LocalElement.t_power(field, rng.randint(0, 2)) if r == i else ZERO
                      for r in range(n)] for i in range(n)]
            lattice = Lattice.from_columns(field, n, cols)
            other = Lattice.from_columns(field, n, cols[::-1] + _random_sparse(rng, field, (2, n)))
            w = _random_sparse(rng, field, (1, n))[0]
            rows = _random_sparse(rng, field, (rng.randint(1, n + 1), n))
            lattice.solve(w)
            lattice.contains(other)
            other.contains(lattice.scale(1))
            [mat_vec(rows, c) for c in lattice.cols]
            mat_vec(rows, w)
            e, u = rng.randint(2, 4), field.of(rng.choice((1, 2, -1)))
            twist_restricted(restrict_scalars(lattice, e, u), e, u, rng.randint(1 - 2 * e, 2 * e))
            twists, jumps = [rng.randint(-1, 1) for _ in range(n)], [rng.randint(0, 3) for _ in range(n)]
            for matrix in ([list(row) for row in zip(*other.cols)], _random_sparse(rng, field, (n, n))):
                try:
                    ParabolicPoint.from_lines(field, 4, matrix, twists, jumps)
                except SingularBasis:
                    pass
    for n in range(1, 6):
        gen_unimodular(unimodular_rng, PrimeField(2), n)  # draws f = 2 = 0 too
    assert products[0] > 1000
    assert zero_products == []


def test_t_power_products_are_shifts():
    """A product with a factor t^d, in either order, is x.shift(d) and keeps
    x's coefficient tuple; a constant other than 1 is no such factor."""
    rng = random.Random(11)
    near_misses = {0: (2, Fraction(1, 2)), 101: (2, 100), 3: (2,)}
    for field in FIELDS:
        for _ in range(200):
            x = _random_entry(rng, field)
            if x.coeffs == (1,) and x.den == 1:
                continue  # x is a t-power too, and either tuple may be kept
            d = rng.randint(-4, 4)
            t = LocalElement.t_power(field, d)
            for prod in (x * t, t * x):
                assert prod == x.shift(d)
                assert prod.coeffs is x.coeffs
            if x.coeffs:
                for c in near_misses[field.p]:
                    assert x * LocalElement.make(field, d, [field.of(c)]) != x.shift(d)

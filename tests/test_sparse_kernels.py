"""Support-aware Laurent matrix kernels against dense references.

The kernels in lattice, linalg and functors visit only the nonzero
support of their sparse operand.  The references below walk every index
and multiply zeros like any other entry, so they share no skipping logic
with the library.  Inputs are sparse on purpose: the zero vector, vectors
whose only nonzero entry is the first or the last row, vectors with
negative valuations (non-members), and generators with zero rows and zero
columns, on Q, GF(101) and GF(3).  Restriction of scalars, which builds
its canonical form without canonicalizing, is checked against the dense
canonicalization also on GF(2) and with non-integer units on Q.

A lattice stores its pivot exponents and, per column, only the nonzero
entries above the pivot; a pivot-only column stores none.  The kernels on
that stored form (back-substitution, containment, the shape check of
``from_canonical``, twists of restrictions, ``scale`` and ``direct_sum``)
are checked on Q, GF(101), GF(3) and GF(2) against references that treat
every column alike and read the dense view ``cols``.  Their inputs are
restricted and twisted lattices, whose columns are mostly pivot-only;
sublattices that keep the container's columns; and lattices t^{a'_j} e_j
against containers whose column j has entries above its pivot (where the
pivot-only shortcut must not fire) or whose pivot exponent a_j is above
a'_j.  The shape check is compared with the dense one on stored forms
with one fault each: an entry at or below its column's pivot row, a
stored zero, two entries out of row order, a pivot exponent off by one,
or an entry at or past its row's pivot degree.
"""

import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from parstack import QQ, Lattice, LocalElement, ParabolicPoint, PrimeField, SingularBasis
from parstack.functors import restrict_matrix, restrict_scalars, twist_restricted
from parstack.harness import gen_unimodular
from parstack.lattice import back_substitute, direct_sum, entries_above, triangular_inverse
from parstack.linalg import mat_vec

from conftest import CONTAINS_FAULTS, planted

FIELDS = (QQ, PrimeField(101), PrimeField(3))
ALL_FIELDS = FIELDS + (PrimeField(2),)
ZERO = LocalElement.zero()


# -- dense references --------------------------------------------------------


def dense_dot(row, v):
    return reduce(add, [a * x for a, x in zip(row, v)], ZERO)


def dense_mat_vec(a, v):
    return [dense_dot(row, v) for row in a]


def dense_image_columns(rows, lattice):
    return [dense_mat_vec(rows, list(col)) for col in lattice.cols]


def dense_solve(cols, diag, w):
    n = len(cols)
    x = [ZERO] * n
    for j in range(n - 1, -1, -1):
        acc = w[j] - dense_dot([cols[k][j] for k in range(j + 1, n)], x[j + 1:])
        x[j] = acc.shift(-diag[j])
    return x


def dense_member(lattice, w):
    return all(x.ord >= 0 for x in dense_solve(lattice.cols, lattice.diag, w))


def dense_contains(big, small):
    return all(dense_member(big, list(col)) for col in small.cols)


def dense_canonicalize(field, n, columns):
    """(cols, diag) of the canonical basis: the kernel's two phases with
    every row of every column updated, zeros included, and normalized at
    the kernel's earlier precision, which is never below its proven one."""
    work = [list(c) for c in columns if any(x.coeffs for x in c)]
    avail = list(range(len(work)))
    tri = [None] * n
    for i in range(n - 1, -1, -1):
        cands = [(work[c][i].ord, c) for c in avail if work[c][i].coeffs]
        if not cands:
            raise SingularBasis("rank deficiency at row %d" % i)
        vp, cp = min(cands)
        avail.remove(cp)
        piv = tri[i] = work[cp]
        ptilde = piv[i].unit_poly()
        for c in avail:
            f = work[c][i].shift(-vp)
            work[c][:i + 1] = [ptilde * a - f * b for a, b in zip(work[c][:i + 1], piv)]
    diag = [tri[i][i].ord for i in range(n)]
    ords = [x.ord for col in tri for x in col if x.coeffs]
    m, amax = min(0, min(ords)), max(0, max(diag))
    prec = amax + n * (amax - m) + abs(m) + 2
    canon = []
    for j in range(n):
        uinv = tri[j][j].unit_poly().inv_series(prec - m + 1)
        w = [(tri[j][r] * uinv).truncate(prec) for r in range(j)]
        for i in range(j - 1, -1, -1):
            lam = w[i].high_div(diag[i])
            for r in range(i):
                w[r] = (w[r] - lam * canon[i][r]).truncate(prec)
            w[i] = w[i].truncate(diag[i])
        canon.append(tuple(w + [LocalElement.t_power(field, diag[j])] + [ZERO] * (n - j - 1)))
    return tuple(canon), tuple(diag)


def dense_restrict_matrix(rows, e, u):
    """Entry (i*e + rho2, j*e + sigma): component rho2 of t^sigma * rows[i][j]."""
    return [[rows[i][j].shift(sigma).decimate(e, rho2).twist(u, -1)
             for j in range(len(rows[0])) for sigma in range(e)]
            for i in range(len(rows)) for rho2 in range(e)]


def dense_restrict_scalars(lattice, e, u, l=0):
    """The canonical basis of res(t^l * lattice)."""
    gens = [[x.shift(rho + l).decimate(e, rho2).twist(u, -1) for x in col for rho2 in range(e)]
            for col in lattice.cols for rho in range(e)]
    return dense_canonicalize(lattice.field, lattice.n * e, gens)


def dense_canonical_shape(field, cols, diag):
    n = len(cols)
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
    return True


def dense_scale(lattice, d):
    return (tuple(tuple(x.shift(d) for x in col) for col in lattice.cols),
            tuple(a + d for a in lattice.diag))


def dense_direct_sum(blocks):
    n = sum(b.n for b in blocks)
    cols, diag, off = [], [], 0
    for b in blocks:
        for j in range(b.n):
            cols.append(tuple(b.cols[j][i - off] if off <= i < off + b.n else ZERO
                              for i in range(n)))
        diag.extend(b.diag)
        off += b.n
    return tuple(cols), tuple(diag)


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
def sublattices(draw, field, big):
    """A sublattice of big: t^s times its basis plus R-combinations."""
    n = big.n
    cols = [[x.shift(draw(st.integers(0, 2))) for x in col] for col in big.cols]
    rows = [list(r) for r in zip(*big.cols)]
    for _ in range(draw(st.integers(0, 2))):
        coeff = [x if x.ord >= 0 else x.shift(-x.ord) for x in draw(vectors(field, n))]
        cols.append(mat_vec(rows, coeff))
    return Lattice.from_columns(field, n, cols)


@st.composite
def units(draw, field):
    """A unit of the field; on Q some have denominators."""
    if field.p:
        return draw(st.integers(1, field.p - 1))
    return Fraction(draw(st.sampled_from((1, -1, 2, -3, 5, "2/3", "-5/4", "7/2"))))


@st.composite
def twisted_restrictions(draw, field):
    """(lattice, e, u, l, res(t^l * lattice)) built by restrict_scalars and
    twist_restricted: bases whose columns are mostly pivot-only."""
    lattice = draw(lattices(field, draw(st.integers(1, 3))))
    e, u = draw(st.integers(1, 4)), draw(units(field))
    l = draw(st.integers(-2 * e, 2 * e))
    return lattice, e, u, l, twist_restricted(restrict_scalars(lattice, e, u), e, u, l)


@st.composite
def containers(draw, field):
    """A restricted, twisted or general lattice."""
    if draw(st.booleans()):
        return draw(twisted_restrictions(field))[-1]
    return draw(lattices(field, draw(st.integers(1, 5))))


@st.composite
def raised_pivots(draw, field, big):
    """A sublattice of big that keeps its columns: the pivot of some
    pivot-only columns is raised, which keeps the shape, and every other
    column stores big's own entries tuple or an equal copy of it."""
    entries, diag = list(big.entries), list(big.diag)
    for j, ent in enumerate(entries):
        if not ent and draw(st.booleans()):
            diag[j] += draw(st.integers(1, 2))
        elif draw(st.booleans()):
            entries[j] = tuple(list(ent))
    return Lattice.from_canonical(field, tuple(entries), tuple(diag))


@st.composite
def pivot_probes(draw, field, big):
    """The lattice spanned by t^{a_j + d_j} e_j, with d_j in [-1, 2]: each
    column is pivot-only, some with an exponent below big's pivot, and
    where big's column has entries above its pivot it may not be a member."""
    n = big.n
    exps = [a + draw(st.integers(-1, 2)) for a in big.diag]
    return Lattice.from_canonical(field, ((),) * n, tuple(exps))


@st.composite
def unshared_probes(draw, field):
    """A container whose column j is not pivot-only, against the pivot
    probe that is t^{a_j + d} e_j, d in {0, 1}, in column j.  Column j of
    the container is t^{a_j} e_j + c * t^k e_i for some i < j, with c a
    nonzero constant and k < a_i, so the probe's column j is a member only
    if k + d >= a_i: most draws are not containments, and the pivot
    exponents alone cannot tell."""
    n = draw(st.integers(2, 4))
    j = draw(st.integers(1, n - 1))
    i = draw(st.integers(0, j - 1))
    diag = [draw(st.integers(-1, 2)) for _ in range(n)]
    cols = [[LocalElement.t_power(field, a) if r == c else ZERO for r in range(n)]
            for c, a in enumerate(diag)]
    lo, hi = (1, field.p - 1) if field.p else (-6, 6)
    value = draw(st.integers(lo, hi).filter(bool))
    cols[j][i] = LocalElement.make(field, diag[i] - draw(st.integers(1, 2)), [field.of(value)])
    big = Lattice.from_columns(field, n, cols)
    exps = [a + draw(st.integers(0, 1)) if c == j else a + draw(st.integers(-1, 2))
            for c, a in enumerate(big.diag)]
    return big, Lattice.from_canonical(field, ((),) * n, tuple(exps))


@st.composite
def containment_pairs(draw, field):
    """A container and a lattice of its rank: one that keeps its columns, a
    pivot probe against any container or against a column that is not
    pivot-only, a sublattice, or any lattice."""
    kind = draw(st.sampled_from(("raised", "probe", "unshared", "sub", "any")))
    if kind == "unshared":
        return draw(unshared_probes(field))
    big = draw(containers(field))
    if kind == "raised":
        return big, draw(raised_pivots(field, big))
    if kind == "probe":
        return big, draw(pivot_probes(field, big))
    if kind == "sub":
        return big, draw(sublattices(field, big))
    return big, draw(lattices(field, big.n))


@st.composite
def near_canonical_bases(draw, field):
    """(entries, diag), the stored form of a twisted restriction, as it is
    or with one fault: an entry below its column's pivot row or at it, a
    stored zero, two entries out of row order, a pivot exponent off by
    one, or an entry above a pivot at or past its row's pivot degree."""
    lattice = draw(twisted_restrictions(field))[-1]
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


def dense_stored_shape(field, entries, diag):
    """The shape check of a stored form through the dense one: place the
    pairs in dense columns, the pivot t^{diag[j]} where row j stores
    nothing, and require a canonical dense basis whose nonzero entries off
    the pivots, read back in row order, are the stored pairs."""
    n = len(diag)
    cols = [[ZERO] * n for _ in range(n)]
    for j, ent in enumerate(entries):
        cols[j][j] = LocalElement.t_power(field, diag[j])
        for i, x in ent:
            cols[j][i] = x
    return dense_canonical_shape(field, cols, diag) and all(
        tuple((i, x) for i, x in enumerate(col) if i != j and x.coeffs) == ent
        for j, (col, ent) in enumerate(zip(cols, entries)))


PROPS = settings(max_examples=120, deadline=None)


# -- the kernels against the references ----------------------------------------


@PROPS
@given(st.data(), field_and_rank())
def test_from_columns_matches_dense(data, fn):
    field, n = fn
    cols = data.draw(generators(field, n))
    try:
        ref = dense_canonicalize(field, n, cols)
    except SingularBasis:
        with pytest.raises(SingularBasis):
            Lattice.from_columns(field, n, cols)
        return
    lattice = Lattice.from_columns(field, n, cols)
    assert (lattice.cols, lattice.diag) == ref


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
def test_solve_and_member_match_dense(data, fn):
    field, n = fn
    lattice = data.draw(lattices(field, n))
    w = data.draw(vectors(field, n))
    assert lattice.solve(w) == dense_solve(lattice.cols, lattice.diag, w)
    assert lattice.member(w) == dense_member(lattice, w)


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
@given(st.data(), st.sampled_from(ALL_FIELDS))
def test_contains_matches_dense(data, field):
    big, small = data.draw(containment_pairs(field))
    assert big.contains(small) == dense_contains(big, small)


@PROPS
@given(st.data(), field_and_rank())
def test_products_match_dense(data, fn):
    field, n = fn
    lattice = data.draw(lattices(field, n))
    rows = data.draw(generators(field, n))  # zero rows and zero columns included
    assert [mat_vec(rows, c) for c in lattice.cols] == dense_image_columns(rows, lattice)
    v = data.draw(vectors(field, n))
    assert mat_vec(rows, v) == dense_mat_vec(rows, v)


@PROPS
@given(st.data(), st.sampled_from(FIELDS + (PrimeField(2),)), st.integers(1, 3),
       st.integers(1, 7))
def test_restrict_scalars_matches_dense(data, field, n, e):
    """On Q the units include non-integers, whose powers in the pivots and
    the wrap factor w/u have denominators; GF(2) has the unit 1 only."""
    lattice = data.draw(lattices(field, n))
    u = data.draw(units(field))
    out = restrict_scalars(lattice, e, u)
    assert (out.cols, out.diag) == dense_restrict_scalars(lattice, e, u)


@PROPS
@given(st.data(), field_and_rank(max_n=3), st.integers(1, 7))
def test_restrict_matrix_matches_dense(data, fn, e):
    field, n = fn
    rows = data.draw(generators(field, n))  # zero rows and zero columns included
    u = field.of(data.draw(st.integers(-5, 5).filter(lambda c: c % (field.p or 7))))
    assert restrict_matrix(rows, e, u) == dense_restrict_matrix(rows, e, u)


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


# -- pivot-only and shared columns against the references ------------------------


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


@PROPS
@given(st.data(), st.sampled_from(ALL_FIELDS))
def test_twist_restricted_matches_dense(data, field):
    lattice, e, u, l, twisted = data.draw(twisted_restrictions(field))
    assert (twisted.cols, twisted.diag) == dense_restrict_scalars(lattice, e, u, l)


@PROPS
@given(st.data(), st.sampled_from(ALL_FIELDS), st.integers(-3, 3))
def test_scale_matches_dense(data, field, d):
    lattice = data.draw(containers(field))
    scaled = lattice.scale(d)
    assert (scaled.cols, scaled.diag) == dense_scale(lattice, d)


@PROPS
@given(st.data(), st.sampled_from(ALL_FIELDS))
def test_direct_sum_matches_dense(data, field):
    blocks = data.draw(st.lists(containers(field), min_size=1, max_size=3))
    out = direct_sum(blocks)
    assert (out.cols, out.diag) == dense_direct_sum(blocks)


@pytest.mark.parametrize("fault", sorted(CONTAINS_FAULTS))
def test_each_planted_containment_fault_disagrees_with_dense(fault, monkeypatch):
    """The pairs of ``test_contains_matches_dense`` find each planted shortcut."""
    monkeypatch.setattr(Lattice, "contains", planted(Lattice.contains, CONTAINS_FAULTS[fault]))
    pairs = st.sampled_from(ALL_FIELDS).flatmap(containment_pairs)
    find(pairs, lambda pair: pair[0].contains(pair[1]) != dense_contains(*pair),
         settings=settings(max_examples=2000, derandomize=True, database=None,
                           phases=[Phase.generate]))

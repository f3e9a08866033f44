"""The lattice kernels against the jet-space oracle of ``jetspace``.

Each kernel's answer is checked by rank tests over k: ``from_columns``
spans its generators, ``member`` and ``contains`` are memberships of jet
vectors, ``==`` is equality of spans, ``scale`` and ``direct_sum`` are
shifts and blocks, and ``restrict_scalars`` and ``twist_restricted`` are
the identity on sets, read in restricted coordinates.  Every lattice's
pivot exponents are also checked to be its colength.

The inputs are those of tests/test_sparse_kernels.py: diagonal and mixed
lattices and their direct sums, restrictions and twists, whose columns are
mostly pivot-only; generators with zero rows and zero columns; the zero
vector, vectors whose one entry is the first or last row, vectors of
negative valuation; and containment probes t^(a_j + d_j) * e_j against
containers with and without entries above their pivots, sublattices that
keep the container's columns, and sublattices by R-combinations.  The
fields are Q (units with denominators among them), GF(101) and GF(2).
"""

import random
from fractions import Fraction

import pytest

from parstack import QQ, Lattice, LocalElement, PrimeField, SingularBasis
from parstack.functors import restrict_scalars, twist_restricted
from parstack.lattice import direct_sum

from conftest import GF101, diagonal_lattice, lat, random_columns, random_element
from jetspace import (bound, colength_holds, jets, lattice_gens, member, padded, same,
                      shifted, unrestricted)

GF2 = PrimeField(2)
FIELDS = pytest.mark.parametrize("field", [QQ, GF101, GF2], ids=["Q", "GF101", "GF2"])
UNITS = {0: [Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 4)], 101: [1, 2, 100],
         2: [1]}
ZERO = LocalElement.zero()


def _unit_vector(field, n, i, a):
    return [LocalElement.t_power(field, a) if r == i else ZERO for r in range(n)]


def _pivot_only(col):
    return sum(1 for x in col if x.coeffs) == 1


def _lattices(rng, field):
    """Diagonal and mixed lattices of rank 1 to 3, their direct sums in both
    orders, and restrictions and twists of them."""
    out = []
    for n in (1, 2, 3):
        out.append(diagonal_lattice(field, [rng.randint(-2, 3) for _ in range(n)]))
        out.append(lat(random_columns(rng, n, field, extra=rng.randint(0, 1)), field))
    out.append(direct_sum([out[1], out[2]]))
    out.append(direct_sum([out[2], out[1]]))
    for base in (out[0], out[3]):
        e, u = rng.randint(2, 3), rng.choice(UNITS[field.p])
        res = restrict_scalars(base, e, u)
        out.extend([res, twist_restricted(res, e, u, rng.randint(1 - e, 2 * e))])
    return out


def _vectors(rng, field, n):
    """The zero vector, one entry in the first or last row, and sparse
    vectors whose entries may have negative valuation."""
    first, last = [ZERO] * n, [ZERO] * n
    first[0] = random_element(rng, field, zero_chance=0)
    last[-1] = random_element(rng, field, zero_chance=0)
    return [[ZERO] * n, first, last] + [[random_element(rng, field, 0.5) for _ in range(n)]
                                        for _ in range(3)]


def _probes(rng, field, big):
    """Lattices of big's rank: t^(a_j + d_j) * e_j with d_j in [-1, 2];
    big with the pivot of some pivot-only columns raised; t^s times big's
    basis plus R-combinations of it; and any lattice."""
    n, cols = big.n, big.cols
    raised = [list(c) for c in cols]
    for j, col in enumerate(cols):
        if _pivot_only(col) and rng.random() < 0.5:
            raised[j] = _unit_vector(field, n, j, big.diag[j] + rng.randint(1, 2))
    rows = [list(r) for r in zip(*cols)]
    sub = [[x.shift(rng.randint(0, 2)) for x in col] for col in cols]
    for _ in range(rng.randint(0, 2)):
        coeff = [random_element(rng, field) for _ in range(n)]
        coeff = [x.shift(-x.ord) if x.ord < 0 else x for x in coeff]
        sub.append([sum((row[k] * coeff[k] for k in range(n)), ZERO) for row in rows])
    return [
        Lattice.from_columns(field, n, [_unit_vector(field, n, j, a + rng.randint(-1, 2))
                                        for j, a in enumerate(big.diag)]),
        Lattice.from_columns(field, n, raised),
        Lattice.from_columns(field, n, sub),
        lat(random_columns(rng, n, field), field) if n <= 3 else big.scale(1),
    ]


def _unshared(rng, field):
    """A container whose column j is t^(a_j) * e_j + c * t^k * e_i, i < j,
    k < a_i, and the probe t^(a_j + d) * e_j, d in {0, 1}, in column j: a
    member only if k + d >= a_i."""
    n = rng.randint(2, 3)
    j = rng.randint(1, n - 1)
    i = rng.randint(0, j - 1)
    diag = [rng.randint(-1, 2) for _ in range(n)]
    cols = [_unit_vector(field, n, c, a) for c, a in enumerate(diag)]
    cols[j][i] = LocalElement.make(field, diag[i] - rng.randint(1, 2), [field.one])
    big = Lattice.from_columns(field, n, cols)
    probe = Lattice.from_columns(field, n, [
        _unit_vector(field, n, c, a + (rng.randint(0, 1) if c == j else rng.randint(-1, 2)))
        for c, a in enumerate(big.diag)])
    return big, probe


def _gens(lattice):
    return lattice_gens(lattice), 1


@FIELDS
def test_from_columns_spans_its_generators(field):
    rng = random.Random(401)
    p, checked = field.p, 0
    for _ in range(30):
        n = rng.randint(1, 3)
        cols = [[random_element(rng, field, 0.6) for _ in range(n)]
                for _ in range(n + rng.randint(0, 2))]
        if rng.random() < 0.3:  # a zero row
            dead = rng.randrange(n)
            for col in cols:
                col[dead] = ZERO
        cols.insert(rng.randint(0, len(cols)), [ZERO] * n)  # a zero column
        if rng.random() < 0.5:
            cols += [_unit_vector(field, n, i, rng.randint(0, 3)) for i in range(n)]
        try:
            lattice = Lattice.from_columns(field, n, cols)
        except SingularBasis:
            continue
        checked += 1
        assert colength_holds(lattice)
        assert same(p, n, ([jets(p, c) for c in cols], 1), _gens(lattice), bound(lattice))
        kept = Lattice.from_columns(field, n, [list(c) for c in lattice.cols])
        assert kept == lattice
    assert checked >= 10


@FIELDS
def test_member_is_a_rank_test(field):
    rng = random.Random(409)
    p = field.p
    for lattice in _lattices(rng, field):
        gens, N = lattice_gens(lattice), bound(lattice)
        assert colength_holds(lattice)
        for v in _vectors(rng, field, lattice.n) + [list(c) for c in lattice.cols]:
            assert lattice.member(v) == member(p, lattice.n, gens, N, jets(p, v))


@FIELDS
def test_contains_and_equality_are_rank_tests(field):
    rng = random.Random(419)
    p = field.p
    pairs = []
    for big in _lattices(rng, field):
        pairs.extend((big, small) for small in _probes(rng, field, big))
        pairs.append((big, Lattice.from_columns(field, big.n, [list(c) for c in big.cols][::-1])))
    pairs.extend(_unshared(rng, field) for _ in range(12))
    for big, small in pairs:
        gens, N, n = lattice_gens(big), bound(big), big.n
        want = all(member(p, n, gens, N, jets(p, c)) for c in small.cols)
        assert big.contains(small) == want
        N = max(N, bound(small))
        assert (big == small) == same(p, n, (gens, 1), _gens(small), N)


@FIELDS
def test_scale_and_direct_sum_are_shifts_and_blocks(field):
    rng = random.Random(421)
    p = field.p
    lattices = _lattices(rng, field)
    for lattice in lattices:
        for d in (-2, -1, 1, 3):
            gens = [shifted(g, d) for g in lattice_gens(lattice)]
            assert same(p, lattice.n, (gens, 1), _gens(lattice.scale(d)), bound(lattice) + d)
    for _ in range(6):
        blocks = rng.sample(lattices, rng.randint(1, 3))
        total = sum(b.n for b in blocks)
        gens, off = [], 0
        for b in blocks:
            gens += [padded(g, off, total - off - b.n) for g in lattice_gens(b)]
            off += b.n
        out = direct_sum(blocks)
        assert colength_holds(out)
        assert same(p, total, (gens, 1), _gens(out), max(bound(b) for b in blocks))


def _restricted(p, lattice, e, u):
    return [unrestricted(p, c, e, u) for c in lattice.cols], e


@FIELDS
def test_restriction_and_its_twists_are_the_identity_on_sets(field):
    """res(L), read in restricted coordinates, is L, and the twist by l of
    res(L) is t^l * L."""
    rng = random.Random(431)
    p = field.p
    for lattice in _lattices(rng, field)[:8]:
        N = bound(lattice)
        for e in (1, 2, 3):
            u = rng.choice(UNITS[p])
            res = restrict_scalars(lattice, e, u)
            assert colength_holds(res)
            assert same(p, lattice.n, _restricted(p, res, e, u), _gens(lattice), N)
            for l in (rng.randint(-e, -1), rng.randint(1, 2 * e)):
                twisted = twist_restricted(res, e, u, l)
                gens = [shifted(g, l) for g in lattice_gens(lattice)]
                assert same(p, lattice.n, _restricted(p, twisted, e, u), (gens, 1), N + l)


@FIELDS
def test_the_oracle_tells_wrong_answers(field):
    """Negative controls: t * L is not L, a non-member is refused, and where
    restricting along 1/u changes the lattice, the oracle sees it."""
    rng = random.Random(433)
    p = field.p
    flagged = 0
    for lattice in _lattices(rng, field)[:8]:
        N, n = bound(lattice), lattice.n
        assert not same(p, n, _gens(lattice), _gens(lattice.scale(1)), N + 1)
        v = [x.shift(-1) for x in lattice.cols[-1]]
        assert not member(p, n, lattice_gens(lattice), N, jets(p, v))
        for u in UNITS[p]:
            inv = pow(u, -1, p) if p else 1 / u
            wrong = restrict_scalars(lattice, 3, inv)
            if wrong != restrict_scalars(lattice, 3, u):
                flagged += 1
                assert not same(p, n, _restricted(p, wrong, 3, u), _gens(lattice), N)
    assert flagged or field.p == 2

"""The lattice kernels against the jet-space oracle of ``jetspace``.

The oracle is the one reference for the results of ``from_columns``,
``member``, ``contains``, ``==``, ``scale``, ``direct_sum``,
``restrict_scalars`` and ``twist_restricted``.  Each kernel's answer is
checked by rank tests over k: ``from_columns`` spans its generators (and a
set it calls singular spans no t^N R^n), ``member`` and ``contains`` are
memberships of jet vectors, ``==`` is equality of spans, ``scale`` and
``direct_sum`` are shifts and blocks, ``restrict_scalars`` and
``twist_restricted`` are the identity on sets, read in restricted
coordinates, the pulled chains of ``pullback_parabolic`` are spans of
substituted members, and each member of ``ParabolicPoint.from_lines``
(``parabolic._flag_member``) is the span of t * E^0 and its unjumped
lines.  The oracle reads every lattice through ``jetspace.lattice_gens``,
which checks that its stored form is canonical; every lattice's pivot
exponents are also checked to be its colength, and every planted kernel
fault of the restriction, twist and containment tests makes an oracle
check fail.

The inputs: generating sets of rank 1 to 5 with zero rows and zero
columns; diagonal and mixed lattices of rank 1 to 5, one with entries
above its pivots by construction, ``cancelling`` (below), and direct sums
in both orders, so that pivot-only columns come before and after the
others; their restrictions along e in {1, 2, 3, 4, 7} with every twist l
in [-2e, 2e] (at e = 7 a sample, see ``_twists``); the zero vector,
vectors whose one entry is the first or last row, vectors of negative
valuation; and containment probes t^(a_j + d_j) * e_j against containers
with and without entries above their pivots, sublattices that keep the
container's columns, and sublattices by R-combinations.  The fields are Q
(units with denominators among them), GF(101), GF(2) and GF(3).
"""

import random
from fractions import Fraction
from itertools import cycle

import pytest

from parstack import (QQ, Lattice, LocalElement, ParabolicPoint, PrimeField, SingularBasis,
                      make_profile, pullback_parabolic)
from parstack import functors
from parstack.functors import restrict_scalars, twist_restricted
from parstack.harness import gen_parabolic_point, gen_unimodular
from parstack.lattice import direct_sum

from conftest import (CONTAINS_FAULTS, GF101, PLANTED_FAULTS, TWIST_FAULTS, diagonal_lattice,
                      lat, pivot_only, planted, random_columns, random_element)
from jetspace import (bound, colength_holds, jets, lattice_gens, member, padded, same,
                      shifted, spans_ball, substituted, unrestricted)

GF2, GF3 = PrimeField(2), PrimeField(3)
FIELDS = pytest.mark.parametrize("field", [QQ, GF101, GF2, GF3],
                                 ids=["Q", "GF101", "GF2", "GF3"])
UNITS = {0: [Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 4)], 101: [1, 2, 100],
         2: [1], 3: [1, 2]}
ZERO = LocalElement.zero()


def _unit_vector(field, n, i, a):
    return [LocalElement.t_power(field, a) if r == i else ZERO for r in range(n)]


def _entries_above(rng, field, n):
    """A canonical basis with entries above its pivots by construction: in
    column j, row i < j holds zero or an element of degree below a_i, its
    lowest term down to three below that (random generating sets mostly
    canonicalize to diagonal lattices)."""
    diag = [rng.randint(-1, 3) for _ in range(n)]
    cols = [_unit_vector(field, n, j, a) for j, a in enumerate(diag)]
    for j in range(1, n):
        for i in range(j):
            size = rng.randint(1, 2)
            cols[j][i] = LocalElement.make(field, diag[i] - size - rng.randint(0, 2),
                                           [field.of(rng.randint(-3, 3)) for _ in range(size)])
    return Lattice.from_columns(field, n, cols)


def _cancelling(field):
    """At e = 2, u = 1 and rho = 1, reducing row 3 of the last column by
    block 1's seed cancels its row 0 to zero exactly, above block 0's pivot
    exponent -1: a zero entry has no terms to reduce."""
    return lat([[(-2, 1), 0, 0], [(-4, 1), (1, 1), 0], [(-5, 1), 1, 1]], field)


def _bases(rng, field):
    """``cancelling``, diagonal and mixed lattices of rank 1 to 3, a mixed
    lattice of rank 4 or 5, a lattice with entries above its pivots, and
    direct sums in both orders."""
    out = [_cancelling(field)]
    for n in (1, 2, 3):
        out.append(diagonal_lattice(field, [rng.randint(-2, 3) for _ in range(n)]))
        out.append(lat(random_columns(rng, n, field, extra=rng.randint(0, 1)), field))
    out.append(lat(random_columns(rng, rng.randint(4, 5), field), field))
    full = _entries_above(rng, field, 3)
    return out + [full, direct_sum([full, out[3]]), direct_sum([out[3], out[2]])]


def _lattices(rng, field):
    """The bases and restrictions and twists of three of them."""
    out = _bases(rng, field)
    for base in (out[1], out[4], out[8]):
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
        if pivot_only(col) and rng.random() < 0.5:
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
    """Generating sets of rank 1 to 5; a set of rank below n spans no
    t^N R^n, so one the library calls singular must not span t^12 R^n."""
    rng = random.Random(401)
    p, checked = field.p, 0
    for _ in range(30):
        n = rng.randint(1, 5)
        cols = [[random_element(rng, field, 0.6) for _ in range(n)]
                for _ in range(n + rng.randint(0, 2))]
        if rng.random() < 0.3:  # a zero row
            dead = rng.randrange(n)
            for col in cols:
                col[dead] = ZERO
        cols.insert(rng.randint(0, len(cols)), [ZERO] * n)  # a zero column
        if rng.random() < 0.5:
            cols += [_unit_vector(field, n, i, rng.randint(0, 3)) for i in range(n)]
        gens = [jets(p, c) for c in cols]
        try:
            lattice = Lattice.from_columns(field, n, cols)
        except SingularBasis:
            assert not spans_ball(p, n, gens, 12)
            continue
        checked += 1
        assert colength_holds(lattice)
        assert same(p, n, (gens, 1), _gens(lattice), bound(lattice))
        kept = Lattice.from_columns(field, n, [list(c) for c in lattice.cols])
        assert kept == lattice
    assert checked >= 10


@FIELDS
def test_member_is_a_rank_test(field):
    rng = random.Random(409)
    for lattice in _lattices(rng, field):
        assert colength_holds(lattice)
        for v in _vectors(rng, field, lattice.n) + [list(c) for c in lattice.cols]:
            assert lattice.member(v) == member(lattice, [v])


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
        assert big.contains(small) == member(big, small.cols)
        N = max(bound(big), bound(small))
        assert (big == small) == same(p, big.n, _gens(big), _gens(small), N)


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


def _inverse(p, u):
    return pow(u, -1, p) if p else 1 / u


def _restricted(p, lattice, e, u):
    return [unrestricted(p, c, e, u) for c in lattice.cols], e


def _twists(e):
    """Every l in [-2e, 2e]; at e = 7 a sample: each multiple of e in it
    and its two neighbours, where a column starts or stops wrapping."""
    if e < 7:
        return range(-2 * e, 2 * e + 1)
    return [k * e + d for k in range(-2, 3) for d in (-1, 0, 1) if abs(k * e + d) <= 2 * e]


@FIELDS
def test_restriction_and_its_twists_are_the_identity_on_sets(field):
    """res(L), read in restricted coordinates, is L, and the twist by l of
    res(L) is t^l * L, for e in {1, 2, 3, 4, 7}.  The bases take the
    field's units in turn, so ``cancelling``, the first, is restricted
    along u = 1."""
    rng = random.Random(431)
    p = field.p
    for lattice, u in zip(_bases(rng, field), cycle(UNITS[p])):
        N = bound(lattice)
        for e in (1, 2, 3, 4, 7):
            res = restrict_scalars(lattice, e, u)
            assert colength_holds(res)
            assert same(p, lattice.n, _restricted(p, res, e, u), _gens(lattice), N)
            for l in _twists(e):
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
    for lattice in _bases(rng, field):
        N, n = bound(lattice), lattice.n
        assert not same(p, n, _gens(lattice), _gens(lattice.scale(1)), N + 1)
        assert not member(lattice, [[x.shift(-1) for x in lattice.cols[-1]]])
        for u in UNITS[p]:
            wrong = restrict_scalars(lattice, 3, _inverse(p, u))
            if wrong != restrict_scalars(lattice, 3, u):
                flagged += 1
                assert not same(p, n, _restricted(p, wrong, 3, u), _gens(lattice), N)
    # over GF(2) and GF(3) every unit is its own inverse
    assert flagged or field.p in (2, 3)


@FIELDS
def test_pulled_chains_are_spans_of_substituted_members(field):
    """Member k of the pullback along t_y = u * t_x^e, of order r = s / e,
    is the R-span of t_x^ceil((k - a) / r) * bc(E^a) over 0 <= a < s, bc
    substituting t_y = u * t_x^e: the filtered pullback
    (f^*E)_b = sum over c of t_x^ceil(b - e*c) * f^*(E_c), at b = k / r,
    with E_c = E^a on the weights c in ((a - 1) / s, a / s].  Where the
    pullback along 1 / u is another chain, the oracle refuses it."""
    rng = random.Random(439)
    p = field.p
    flagged = 0
    for _ in range(12):
        e, r = rng.randint(1, 3), rng.randint(1, 3)
        s, n, u = e * r, rng.randint(1, 3), rng.choice(UNITS[p])
        pt = gen_parabolic_point(rng, n, s, field)
        pulled = pullback_parabolic(make_profile(s, [("x", e, r, u)]), pt, "x")
        wrong = pullback_parabolic(make_profile(s, [("x", e, r, _inverse(p, u))]), pt, "x")
        assert pulled.order == r and len(pulled.chain) == r + 1
        for k, lattice in enumerate(pulled.chain):
            gens = [shifted(substituted(p, col, e, u), -((a - k) // r))
                    for a in range(s) for col in pt.chain[a].cols]
            assert colength_holds(lattice)
            assert same(p, n, (gens, 1), _gens(lattice), bound(lattice))
            if wrong.chain[k] != lattice:
                flagged += 1
                assert not same(p, n, (gens, 1), _gens(wrong.chain[k]), bound(lattice))
    assert flagged or field.p in (2, 3)


@FIELDS
def test_from_lines_members_are_spans_of_their_unjumped_lines(field):
    """Member j of ParabolicPoint.from_lines is t * E^0 plus the lines not
    jumped at j: the R-span of t^(twists[b] + 1) * v_b for every lift v_b
    and of t^twists[b] * v_b for jumps[b] >= j.  The members strictly
    between E^0 and t * E^0 are the ones ``_flag_member`` builds."""
    rng = random.Random(443)
    p = field.p
    flagged = 0
    for _ in range(20):
        n, r = rng.randint(1, 4), rng.randint(1, 5)
        if rng.random() < 0.5:
            lifts = gen_unimodular(rng, field, n)[0]
        else:
            lifts = random_columns(rng, n, field)
        twists = [rng.randint(-2, 2) for _ in range(n)]
        jumps = [rng.randint(0, r - 1) for _ in range(n)]
        pt = ParabolicPoint.from_lines(field, r, lifts, twists, jumps)
        lines = [jets(p, v) for v in lifts]
        for j, lattice in enumerate(pt.chain):
            unjumped = [b for b in range(n) if jumps[b] >= j]
            gens = ([shifted(lines[b], twists[b] + 1) for b in range(n)]
                    + [shifted(lines[b], twists[b]) for b in unjumped])
            assert colength_holds(lattice)
            assert same(p, n, (gens, 1), _gens(lattice), bound(lattice))
            flagged += 0 < len(unjumped) < n
    assert flagged >= 10


# -- planted kernel faults against the oracle ----------------------------------


@pytest.mark.parametrize("fault", sorted(PLANTED_FAULTS))
def test_each_planted_restriction_fault_fails_the_oracle(fault):
    """A planted restriction either raises its internal guard or returns a
    lattice the oracle refuses, on the fault's own lattice; on every other
    input the oracle refuses the planted result exactly when it differs
    from the true one."""
    (old, new), cols, e, u = PLANTED_FAULTS[fault][:4]
    broken = planted(functors.restrict_scalars, (old, new))
    rng = random.Random(449)
    cases = [(lat(cols), e, QQ.of(u))] + [(lattice, rng.randint(2, 3), rng.choice(UNITS[0]))
                                          for lattice in _bases(rng, QQ)]
    failed = []
    for lattice, e, u in cases:
        try:
            out = broken(lattice, e, u)
        except AssertionError as exc:
            assert str(exc).startswith("internal: ")
            failed.append(True)
            continue
        refused = not same(0, lattice.n, _restricted(0, out, e, u), _gens(lattice),
                           bound(lattice))
        assert refused == (out != restrict_scalars(lattice, e, u))
        failed.append(refused)
    assert failed[0]


@pytest.mark.parametrize("fault", sorted(TWIST_FAULTS))
def test_each_planted_twist_fault_fails_the_oracle(fault):
    """Each planted twist returns, on some restricted lattice and twist l,
    a lattice the oracle refuses as res(t^l * L); wherever it returns, the
    oracle refuses exactly the results that differ from the true twist."""
    broken = planted(functors.twist_restricted, *TWIST_FAULTS[fault][0])
    rng = random.Random(457)
    refused_any = False
    for field in (QQ, GF101):
        p = field.p
        for lattice in _bases(rng, field):
            for e in (2, 3):
                u = rng.choice(UNITS[p][1:])
                res = restrict_scalars(lattice, e, u)
                for l in range(1 - e, 2 * e + 1):
                    try:
                        out = broken(res, e, u, l)
                    except AssertionError:
                        continue
                    gens = [shifted(g, l) for g in lattice_gens(lattice)]
                    refused = not same(p, lattice.n, _restricted(p, out, e, u), (gens, 1),
                                       bound(lattice) + l)
                    assert refused == (out != twist_restricted(res, e, u, l))
                    refused_any |= refused
    assert refused_any


@pytest.mark.parametrize("fault", sorted(CONTAINS_FAULTS))
def test_each_planted_containment_fault_fails_the_oracle(fault, monkeypatch):
    """The containment pairs of ``test_contains_and_equality_are_rank_tests``
    find each planted shortcut of ``Lattice.contains``: on some pair it
    disagrees with membership of the columns by rank tests."""
    rng = random.Random(461)
    pairs = []
    for field in (QQ, GF101, GF2, GF3):
        for big in _lattices(rng, field):
            pairs.extend((big, small) for small in _probes(rng, field, big))
        pairs.extend(_unshared(rng, field) for _ in range(12))
    monkeypatch.setattr(Lattice, "contains", planted(Lattice.contains, CONTAINS_FAULTS[fault]))
    wrong = 0
    for big, small in pairs:
        wrong += big.contains(small) != member(big, small.cols)
    assert wrong

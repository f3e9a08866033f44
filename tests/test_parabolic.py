"""Parabolic chains: validity, weights, degrees, morphisms, splitting."""

import random
from fractions import Fraction

import pytest

from parstack import (QQ, InvalidChain, Lattice, ParabolicBundle,
                      ParabolicPoint, PrimeField, ShapeMismatch, direct_sum,
                      from_parabolic, is_point_morphism, make_profile,
                      parabolic_degree, pullback_parabolic, pushforward_graded,
                      pushforward_parabolic, split_into_lines, to_parabolic)
from parstack import lattice
from parstack.harness import (gen_parabolic_point, gen_point_morphism, gen_profile,
                              mix_lines)
from parstack.lattice import entries_above, triangular_inverse
from parstack.linalg import identity_matrix, mat_mul, transpose

from conftest import FOUR_FIELDS, GF101, diagonal_lattice, lat, planted, trivial_point

THREE_FIELDS = pytest.mark.parametrize("field", [QQ, GF101, PrimeField(2)],
                                       ids=["rational", "prime101", "prime2"])


L_MIXED = lat([[1, 1], [0, (1, 1)]])  # span{(1,1),(0,t)} inside R^2


def test_chain_validation():
    r2 = diagonal_lattice(QQ, [0, 0])
    with pytest.raises(InvalidChain):
        ParabolicPoint(2, [r2, r2.scale(1)])  # wrong length
    with pytest.raises(InvalidChain):
        ParabolicPoint(1, [r2.scale(1), r2])  # not decreasing
    with pytest.raises(InvalidChain):
        ParabolicPoint(1, [r2, r2.scale(2)])  # endpoint is not t*E^0
    with pytest.raises(InvalidChain):
        ParabolicPoint.line(QQ, 2, 2)


def test_weights_examples():
    assert trivial_point(QQ, 3, order=2).weights() == ((Fraction(0), 3),)
    assert ParabolicPoint.line(QQ, 4, 3).weights() == ((Fraction(3, 4), 1),)
    r2 = diagonal_lattice(QQ, [0, 0])
    pt = ParabolicPoint(2, [r2, L_MIXED, r2.scale(1)])
    assert pt.weights() == ((Fraction(0), 1), (Fraction(1, 2), 1))
    assert pt.weight_sum() == Fraction(1, 2)


# -- the line cache ----------------------------------------------------------


def test_line_returns_one_object_per_key():
    """Equal arguments give the identical point; fields are keys by value."""
    a = ParabolicPoint.line(PrimeField(101), 5, 2, 1)
    assert ParabolicPoint.line(PrimeField(101), 5, 2, 1) is a
    assert ParabolicPoint.line(GF101, 5, 2, 1) is a
    assert ParabolicPoint.line(QQ, 5, 2, 1) is not a
    assert ParabolicPoint.line(PrimeField(103), 5, 2, 1) is not a


@FOUR_FIELDS
def test_cached_line_equals_a_fresh_build(field):
    build = ParabolicPoint.line.__wrapped__
    for order in range(1, 9):
        for jump in range(order):
            for twist in range(-2, 3):
                fresh = build(ParabolicPoint, field, order, jump, twist)
                cached = ParabolicPoint.line(field, order, jump, twist)
                assert cached == fresh and cached.chain == fresh.chain
                assert cached.weights() == fresh.weights() == \
                    ((Fraction(jump, order), 1),)
                assert cached.chain[0].diag == (twist,)


def test_a_bad_jump_raises_on_every_call():
    """InvalidChain is raised, not cached: the second call raises too."""
    for order, jump in ((3, 3), (3, -1), (1, 1)):
        for _ in range(2):
            with pytest.raises(InvalidChain):
                ParabolicPoint.line(QQ, order, jump)


# -- weight sums -------------------------------------------------------------


def _weight_sum_points(field):
    """Generated, pulled and pushed points, and index-map points built by
    ``ParabolicPoint._unchecked``."""
    rng = random.Random(307)
    pts = []
    for _ in range(12):
        s = rng.randint(1, 8)
        pt = gen_parabolic_point(rng, rng.randint(1, 3), s, field)
        e = rng.choice([d for d in range(1, s + 1) if s % d == 0])
        profile = make_profile(s, [("x", e, s // e, field.one)])
        pts += [pt, pullback_parabolic(profile, pt, "x"), to_parabolic(from_parabolic(pt))]
        profile, ranks = gen_profile(rng, s, 2, field, rank_bound=6, max_rank=2)
        branch_pts = [gen_parabolic_point(rng, n, br.r, field)
                      for br, n in zip(profile.branches, ranks)]
        pts += [pushforward_parabolic(profile, branch_pts),
                to_parabolic(pushforward_graded(profile, [from_parabolic(p)
                                                          for p in branch_pts]))]
    return pts


def _weight_sum_mismatches(weight_sum, field):
    return sum(weight_sum(pt) != sum(w * m for w, m in pt.weights())
               for pt in _weight_sum_points(field))


@THREE_FIELDS
def test_weight_sum_reads_the_jump_counts(field):
    """The integer form equals the sum over the weights() tuple, and the
    parabolic degree of bundles of those points is the reference sum."""
    assert _weight_sum_mismatches(ParabolicPoint.weight_sum, field) == 0
    pts = _weight_sum_points(field)
    rng = random.Random(311)
    for _ in range(20):
        n = rng.choice([pt.n for pt in pts])
        same_rank = [pt for pt in pts if pt.n == n]
        chosen = rng.sample(same_rank, min(len(same_rank), rng.randint(1, 2)))
        bundle = ParabolicBundle(n, rng.randint(-3, 3),
                                 {"p%d" % i: pt for i, pt in enumerate(chosen)})
        assert parabolic_degree(bundle) == bundle.underlying_degree + sum(
            w * m for pt in chosen for w, m in pt.weights())


@THREE_FIELDS
def test_an_off_by_one_jump_index_is_caught(field):
    shifted = planted(ParabolicPoint.weight_sum,
                      ("delta[a + 1] - delta[a]", "delta[a] - delta[a - 1]"))
    assert _weight_sum_mismatches(shifted, field) > 0


def test_parabolic_degree():
    r2 = diagonal_lattice(QQ, [0, 0])
    pt = ParabolicPoint(2, [r2, L_MIXED, r2.scale(1)])
    bundle = ParabolicBundle(2, -1, {"y": pt, "z": trivial_point(QQ, 2)})
    assert parabolic_degree(bundle) == Fraction(-1, 2)
    with pytest.raises(ShapeMismatch):
        ParabolicBundle(3, 0, {"y": pt})


def test_point_morphism_respects_filtration():
    r = diagonal_lattice(QQ, [0])
    src = ParabolicPoint(2, [r, r, r.scale(1)])           # weight 1/2
    dst = ParabolicPoint(2, [r, r.scale(1), r.scale(1)])  # weight 0
    ident = identity_matrix(QQ, 1)
    assert not is_point_morphism(ident, src, dst)  # E^1 = R not inside F^1 = tR
    assert is_point_morphism(ident, dst, src)
    with pytest.raises(ShapeMismatch):
        is_point_morphism(ident, src, trivial_point(QQ, 1, order=3))
    with pytest.raises(ShapeMismatch):
        is_point_morphism(identity_matrix(QQ, 2), src, dst)


def test_lattice_extends_the_chain_examples():
    line = trivial_point(QQ, 1)
    r = diagonal_lattice(QQ, [0])
    assert [line.lattice(m) for m in range(4)] == [r, r.scale(1), r.scale(2), r.scale(3)]
    half = ParabolicPoint.line(QQ, 2, 1)
    assert [half.lattice(m).diag[0] for m in range(7)] == [0, 0, 1, 1, 2, 2, 3]


@pytest.mark.parametrize("field", [QQ, GF101])
def test_lattice_past_the_chain_is_a_t_power_shift(field):
    rng = random.Random(47)
    for _ in range(8):
        r = rng.randint(1, 6)
        pt = gen_parabolic_point(rng, rng.randint(1, 3), r, field)
        assert [pt.lattice(m) for m in range(r + 1)] == list(pt.chain)
        for m in range(2 * r + 1):
            assert pt.lattice(m + r) == pt.lattice(m).scale(1)


def _sum_of_lines(field, order, jumps):
    """Direct sum of the rank-1 lines ParabolicPoint.line(order, jump)."""
    lines = [ParabolicPoint.line(field, order, j) for j in jumps]
    return ParabolicPoint(order, [direct_sum([l.chain[j] for l in lines])
                                  for j in range(order + 1)])


def test_split_into_lines_adapted_basis_example():
    r2 = diagonal_lattice(QQ, [0, 0])
    pt = ParabolicPoint(2, [r2, L_MIXED, r2.scale(1)])
    jumps, lifts = split_into_lines(pt)
    assert sorted(jumps) == [0, 1]
    inverse = triangular_inverse(QQ, entries_above(lifts), pt.chain[0].diag)
    assert mat_mul(transpose(lifts), inverse) == identity_matrix(QQ, 2)
    lines = _sum_of_lines(QQ, 2, jumps)
    assert is_point_morphism(transpose(lifts), lines, pt)
    assert is_point_morphism(inverse, pt, lines)


def test_split_into_lines_runs_no_back_substitution(monkeypatch):
    """The splitting is its jumps and its lifts; no inverse is computed."""
    calls = []
    back_substitute = lattice.back_substitute

    def counting(*args):
        calls.append(args)
        return back_substitute(*args)

    monkeypatch.setattr(lattice, "back_substitute", counting)
    rng = random.Random(47)
    for _ in range(10):
        pt = gen_parabolic_point(rng, rng.randint(1, 4), rng.randint(1, 6))
        del calls[:]
        jumps, lifts = split_into_lines(pt)
        assert not calls and len(jumps) == len(lifts) == pt.n
        assert all(len(v) == pt.n for v in lifts)


@pytest.mark.parametrize("field", [QQ, GF101])
def test_split_into_lines_random(field):
    rng = random.Random(41)
    mixed_changed = 0
    for _ in range(12):
        n, r = rng.randint(1, 6), rng.randint(1, 12)
        pt = gen_parabolic_point(rng, n, r, field)
        jumps, first = split_into_lines(pt)
        mixed = mix_lines(pt, (jumps, first), random.Random(rng.getrandbits(32)))
        mixed_changed += [list(v) for v in mixed] != [list(v) for v in first]
        assert sorted(Fraction(j, r) for j in jumps) == \
            sorted(w for w, m in pt.weights() for _ in range(m))
        lines = _sum_of_lines(field, r, jumps)
        for lifts in (first, mixed):
            assert is_point_morphism(transpose(lifts), lines, pt)
            assert ParabolicPoint.from_lines(field, r, lifts, [0] * n, jumps) == pt
        inverse = triangular_inverse(field, entries_above(first), pt.chain[0].diag)
        assert mat_mul(transpose(first), inverse) == identity_matrix(field, n)
        assert is_point_morphism(inverse, pt, lines)
    assert mixed_changed  # mixing moves the basis of some rank >= 2 point


def _reference_jumps(pt):
    """The jumps by way of fibre lattices: line i jumps at the largest
    member E^j whose fibre lattice B0^{-1} * E^j has pivot 1 in row i."""
    top = pt.chain[0]
    jumps = [0] * pt.n
    for j in range(1, pt.order):
        fibre = Lattice.from_columns(pt.field, pt.n, [top.solve(c) for c in pt.chain[j].cols])
        for i in range(pt.n):
            if fibre.diag[i] == 0:
                jumps[i] = j
    return jumps


@pytest.mark.parametrize("field", [QQ, GF101])
def test_split_jumps_match_the_fibre_lattice_reference(field):
    rng = random.Random(53)
    for _ in range(30):
        n, r = rng.randint(1, 6), rng.randint(1, 12)
        pt = gen_parabolic_point(rng, n, r, field)
        jumps, lifts = split_into_lines(pt)
        assert jumps == _reference_jumps(pt)
        assert all(not lifts[b][i].coeffs for b in range(n) for i in range(b + 1, n))


def test_generated_morphisms_are_morphisms():
    rng = random.Random(43)
    for _ in range(10):
        n, r = rng.randint(1, 3), rng.randint(1, 4)
        src = gen_parabolic_point(rng, n, r)
        dst = gen_parabolic_point(rng, rng.randint(1, 3), r)
        mat = gen_point_morphism(rng, src, dst)
        assert is_point_morphism(mat, src, dst)

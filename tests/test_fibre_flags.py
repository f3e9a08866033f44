"""Lattice work that the chain already determines: flag members, t * L
once per lattice, the level-0 rank test and shared graded columns.

``ParabolicPoint.from_lines`` canonicalizes E^0 only and reads every other
member off the fibre flag of the lines (``parabolic._flag_member``); its
members are checked against the per-pattern canonicalization it replaced
(each member's lines through ``Lattice.from_columns``) here and against
the jet-space oracle in tests/test_jetspace.py, and the two flag faults
below must trip a guard or make a member the oracle refuses.  Each new shortcut has a planted
fault that its guard or its test must catch.
"""

import random

import pytest

from parstack import (QQ, SYMMETRIC, GradedModule, Lattice, ParabolicBundle,
                      ParabolicPairing, ParabolicPoint, SingularBasis,
                      check_pairing, from_parabolic, is_graded_morphism, to_parabolic)
from parstack import pairing, parabolic, rootstack
from parstack.harness import gen_parabolic_point, gen_unimodular
from parstack.lattice import triangularize
from parstack.localring import LocalElement

from conftest import FOUR_FIELDS, diagonal_lattice, el, planted, trivial_point
from jetspace import is_lines_chain

_Z = LocalElement.zero()


def _entry(rng, field):
    if rng.random() < 0.4:
        return _Z
    vals = [field.of(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
    return LocalElement.make(field, rng.randint(-2, 2), vals)


def _lines(rng, field, n, r):
    """An adapted basis: the lifts of a unimodular matrix over R or n
    random columns over K (which may be singular), twists in [-2, 2] and
    jumps in [0, r)."""
    if rng.random() < 0.5:
        lifts = gen_unimodular(rng, field, n)[0]
    else:
        lifts = [[_entry(rng, field) for _ in range(n)] for _ in range(n)]
    return (lifts, [rng.randint(-2, 2) for _ in range(n)],
            [rng.randint(0, r - 1) for _ in range(n)])


def _draws(field, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n, r = rng.randint(1, 5), rng.randint(1, 12)
        yield (r,) + _lines(rng, field, n, r)


@FOUR_FIELDS
def test_from_lines_matches_per_pattern_canonicalization(field):
    """The flag members of from_lines equal the general path they replace:
    each member's lines canonicalized on their own by from_columns, with
    singular bases raising alike on both paths."""
    built = 0
    for r, lifts, twists, jumps in _draws(field, 150, 211):
        n = len(jumps)
        try:
            ref = tuple(Lattice.from_columns(field, n, [
                [x.shift(g + (j > jb)) for x in col] for col, g, jb in zip(lifts, twists, jumps)])
                for j in range(r + 1))
        except SingularBasis:
            with pytest.raises(SingularBasis):
                ParabolicPoint.from_lines(field, r, lifts, twists, jumps)
            continue
        pt = ParabolicPoint.from_lines(field, r, lifts, twists, jumps)
        assert pt.chain == ref
        assert pt.chain[r] is pt.chain[0].scale(1)  # the endpoint the point's check built
        built += len(set(ref)) > 2
    assert built > 50


def _planted_chains(field, seed):
    """For each drawn adapted basis that is not singular: None where an
    internal guard of from_lines fires, else whether the oracle refuses a
    member of the chain it returns."""
    for r, lifts, twists, jumps in _draws(field, 150, seed):
        try:
            chain = ParabolicPoint.from_lines(field, r, lifts, twists, jumps).chain
        except SingularBasis:
            continue
        except AssertionError as exc:
            assert str(exc).startswith("internal: ")
            yield None
            continue
        yield not is_lines_chain(chain, lifts, twists, jumps)


@FOUR_FIELDS
def test_a_skipped_echelon_reduction_is_caught(field, monkeypatch):
    """Without the reduction of the earlier pivot vectors at each new pivot
    row, B0 * u_p keeps a t^{a_h} term at another pivot row h; the shape
    check of from_canonical raises on it, and no wrong chain comes back."""
    monkeypatch.setattr(parabolic, "_flag_member", planted(
        parabolic._flag_member,
        ("echelon[p] = [x - c * y if y.coeffs else x for x, y in zip(u, f)]",
         "echelon[p] = u")))
    outcomes = list(_planted_chains(field, 227))
    assert None in outcomes and True not in outcomes


@FOUR_FIELDS
def test_a_wrong_fibre_vector_is_caught_by_the_member_guard(field, monkeypatch):
    """Fibre vectors read off the last coordinate instead of the constant
    terms give a lattice of the right shape and colength that misses an
    unjumped line."""
    monkeypatch.setattr(ParabolicPoint, "from_lines", classmethod(planted(
        ParabolicPoint.from_lines.__func__,
        ("[x.truncate(1) for x in back_substitute(top.entries, top.diag, v)]",
         "[x.truncate(1) for x in back_substitute(top.entries, top.diag, v)][::-1]"))))
    outcomes = list(_planted_chains(field, 229))
    assert None in outcomes and True not in outcomes


# -- t * L once per lattice --------------------------------------------------


@FOUR_FIELDS
def test_scale_by_t_is_built_once_and_undoes_its_inverse(field):
    rng = random.Random(233)
    for _ in range(20):
        pt = gen_parabolic_point(rng, rng.randint(1, 3), rng.randint(1, 6), field)
        top = pt.chain[0]
        assert top.scale(1) is top.scale(1)
        assert top.scale(-1).scale(1) is top
        assert top.scale(-1).scale(-1).scale(1).scale(1) is top
        assert top.scale(2) == top.scale(1).scale(1)
        # the index maps give back the very members they started from
        assert all(a is b for a, b in zip(to_parabolic(from_parabolic(pt)).chain, pt.chain))


# -- the level-0 rank test of check_pairing -----------------------------------


def test_triangularize_is_a_rank_test():
    one, t = el(0, 1), el(1, 1)
    assert len(triangularize(2, [[one, t], [t, one]])) == 2
    for cols in ([[one, t], [t, t.shift(1)]], [[one, _Z], [_Z, _Z]], [[one, one]]):
        with pytest.raises(SingularBasis):
            triangularize(2, cols)


def test_a_singular_level_0_matrix_is_caught(monkeypatch):
    """F = (t) on the trivial rank-1 point of order 1 passes every
    valuation and index test, but its level-0 constant matrix is 0: only
    the rank test rejects it."""
    bundle = ParabolicBundle(1, 0, {"y": trivial_point(QQ, 1)})
    line = ParabolicBundle(1, 0, {"y": trivial_point(QQ, 1)})
    assert check_pairing(ParabolicPairing(SYMMETRIC, [[el(0, 3)]], line), bundle)
    singular = ParabolicPairing(SYMMETRIC, [[el(1, 3)]], line)
    assert not check_pairing(singular, bundle)
    monkeypatch.setattr(pairing, "check_pairing", planted(
        pairing.check_pairing, ("triangularize(n, ", "(n, ")))
    assert pairing.check_pairing(singular, bundle)


# -- shared graded columns ----------------------------------------------------


def test_a_column_skip_where_the_target_does_not_ascend_is_caught(monkeypatch):
    """Grade 0 has no previous grade: N_{s-1} does not lie in N_0, so a
    column shared with M_{s-1} must still be tested there."""
    rows = [[el(-1, 1)]]
    src = GradedModule(2, [diagonal_lattice(QQ, [0])] * 2)
    dst = GradedModule(2, [diagonal_lattice(QQ, [0]), diagonal_lattice(QQ, [-1])])
    assert not is_graded_morphism(rows, src, dst)
    monkeypatch.setattr(rootstack, "is_graded_morphism", planted(
        rootstack.is_graded_morphism, ("prev = None", "prev = src.pieces[-1]")))
    assert rootstack.is_graded_morphism(rows, src, dst)


def test_graded_morphism_tests_each_changed_column_once(monkeypatch):
    """Column j of M_k is solved for only at k = 0 or where its pivot
    exponent differs from that of column j of M_{k-1}."""
    solves = []
    orig = Lattice.solve
    monkeypatch.setattr(Lattice, "solve", lambda self, w: solves.append(w) or orig(self, w))
    rng = random.Random(239)
    for _ in range(20):
        n, r = rng.randint(1, 3), rng.randint(1, 8)
        mod = from_parabolic(gen_parabolic_point(rng, n, r, QQ))
        ident = [[el(0, 1) if i == j else _Z for j in range(n)] for i in range(n)]
        del solves[:]
        assert is_graded_morphism(ident, mod, mod)
        assert len(solves) == n + sum(a != b for k in range(1, r)
                                      for a, b in zip(mod.pieces[k].diag,
                                                      mod.pieces[k - 1].diag))

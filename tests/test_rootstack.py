"""Graded modules, the index correspondence, and its functoriality."""

import random
from fractions import Fraction

import pytest

from parstack import (QQ, GradedModule, InvalidGrading,
                      ParabolicPoint, ShapeMismatch, from_parabolic,
                      is_graded_morphism, is_point_morphism, to_parabolic)
from parstack.harness import gen_parabolic_point, gen_point_morphism
from parstack.linalg import identity_matrix

from conftest import GF101, diagonal_lattice, gen_graded_module, graded_line, trivial_module


def test_grading_validation():
    r1 = diagonal_lattice(QQ, [0])
    with pytest.raises(InvalidGrading):
        GradedModule(2, [r1])  # wrong length
    with pytest.raises(InvalidGrading):
        GradedModule(2, [r1, r1.scale(1)])  # pieces must ascend
    with pytest.raises(InvalidGrading):
        GradedModule(2, [r1, r1.scale(-2)])  # escapes t^{-1} M_0
    with pytest.raises(InvalidGrading):
        graded_line(QQ, 2, 2)


def test_weight_half_line_correspondence():
    # M_0 = R, M_1 = t^{-1} R  <->  chain R >= R >= tR (weight 1/2)
    mod = GradedModule(2, [diagonal_lattice(QQ, [0]), diagonal_lattice(QQ, [-1])])
    assert mod == graded_line(QQ, 2, 1)
    pt = to_parabolic(mod)
    assert pt == ParabolicPoint.line(QQ, 2, 1)
    assert pt.weights() == ((Fraction(1, 2), 1),)
    assert from_parabolic(pt) == mod


def test_line_constructors_match_across_the_correspondence():
    for order in (1, 2, 3, 5):
        for jump in range(order):
            for twist in (-1, 0, 2):
                pt = ParabolicPoint.line(QQ, order, jump, twist)
                assert from_parabolic(pt) == graded_line(QQ, order, jump, twist)
                assert to_parabolic(graded_line(QQ, order, jump, twist)) == pt


def _same(a, b):
    assert type(a) is type(b)
    assert all(getattr(a, k) == getattr(b, k) for k in type(a).__slots__)


@pytest.mark.parametrize("field", [QQ, GF101])
def test_round_trip_is_exact(field):
    """The index maps skip the validation; the checked constructors accept
    their results unchanged, and the round trips are the identity."""
    rng = random.Random(53)
    for _ in range(40):
        n, s = rng.randint(1, 3), rng.randint(1, 6)
        pt = gen_parabolic_point(rng, n, s, field)
        mod = from_parabolic(pt)
        _same(mod, GradedModule(s, [pt.chain[0]] + [pt.chain[s - k].scale(-1)
                                                    for k in range(1, s)]))
        _same(to_parabolic(mod), pt)
        mod = gen_graded_module(rng, n, s, field)
        pt = to_parabolic(mod)
        _same(pt, ParabolicPoint(s, [mod.pieces[0]]
                                 + [mod.pieces[s - j].scale(1) for j in range(1, s)]
                                 + [mod.pieces[0].scale(1)]))
        _same(from_parabolic(pt), mod)


def test_morphism_equivalence_across_the_correspondence():
    rng = random.Random(59)
    for _ in range(12):
        n, s = rng.randint(1, 3), rng.randint(1, 4)
        src = gen_parabolic_point(rng, n, s)
        dst = gen_parabolic_point(rng, rng.randint(1, 3), s)
        good = gen_point_morphism(rng, src, dst)
        assert is_graded_morphism(good, from_parabolic(src), from_parabolic(dst))
        # a matrix is a graded morphism iff it is a parabolic one
        bad = [[e.shift(-1) for e in row] for row in good]
        assert is_point_morphism(bad, src, dst) == \
            is_graded_morphism(bad, from_parabolic(src), from_parabolic(dst))
    assert not is_graded_morphism(identity_matrix(QQ, 1),
                                  trivial_module(QQ, 1, 2),
                                  trivial_module(QQ, 1, 3))


def test_weight_dictionary_from_graded_pieces():
    rng = random.Random(61)
    for _ in range(12):
        n, s = rng.randint(1, 3), rng.randint(2, 6)
        mod = gen_graded_module(rng, n, s)
        got = dict(to_parabolic(mod).weights())
        expected = {}
        for a in range(1, s):
            big, small = mod.pieces[s - a], mod.pieces[s - a - 1]
            assert big.contains(small)
            m = small.det_valuation() - big.det_valuation()
            if m:
                expected[Fraction(a, s)] = m
        rest = n - sum(expected.values())
        if rest:
            expected[Fraction(0)] = rest
        assert got == expected



def test_both_morphism_checks_reject_a_matrix_of_the_wrong_shape():
    pt = gen_parabolic_point(random.Random(1), 2, 3)
    mod = from_parabolic(pt)
    square = identity_matrix(QQ, 3)
    for rows in (square, square[:2]):  # 3x3 and 2x3 on rank 2
        with pytest.raises(ShapeMismatch):
            is_point_morphism(rows, pt, pt)
        with pytest.raises(ShapeMismatch):
            is_graded_morphism(rows, mod, mod)

"""Symplectic/orthogonal parabolic pairings and their transport."""

import random
from fractions import Fraction

import pytest

from parstack import (ANTISYMMETRIC, SYMMETRIC, QQ, NotAPairing,
                      ParabolicBundle, ParabolicPairing, ParabolicPoint,
                      PrimeField, ProfileMismatch, ShapeMismatch, TrialConfig,
                      ValueLineMismatch, check_pairing, make_profile,
                      parabolic_degree, pullback_parabolic,
                      pullback_pairing, pushforward_pairing, split_into_lines)
from parstack import harness
from parstack.harness import (_value_line_bundle, gen_pairing_point,
                              gen_parabolic_point, gen_profile, mix_lines)
from parstack.linalg import identity_matrix, mat_mul, transpose
from parstack.localring import LocalElement
from parstack import pairing
from parstack.pairing import (_gram, _symmetry_holds, expected_branch_value_data,
                              hom_chain, line_local_data, pullback_bundle,
                              residue_push_form)

from conftest import (GF101, decompose_element, diag_point, diagonal_lattice, el, planted,
                      random_columns, random_element, reference_check, trivial_point)

_Z = LocalElement.zero()


def _trivial_line(order=1):
    return ParabolicBundle(1, 0, {"y": trivial_point(QQ, 1, order)})


J2 = [[_Z, el(0, 1)], [el(0, -1), _Z]]
H2 = [[_Z, el(0, 1)], [el(0, 1), _Z]]
I2 = identity_matrix(QQ, 2)


# -- validation and the perfection check -----------------------------------


def test_pairing_constructor_validation():
    with pytest.raises(NotAPairing):
        ParabolicPairing("hermitian", I2, _trivial_line())
    rank2 = ParabolicBundle(2, 0, {"y": trivial_point(QQ, 2)})
    with pytest.raises(NotAPairing):
        ParabolicPairing(SYMMETRIC, I2, rank2)  # value line must be rank 1
    unbalanced = ParabolicBundle(1, 0, {"y": ParabolicPoint.line(QQ, 2, 1)})
    assert parabolic_degree(unbalanced) != 0
    with pytest.raises(NotAPairing):
        ParabolicPairing(SYMMETRIC, I2, unbalanced)


def test_check_pairing_trivial_examples():
    bundle = ParabolicBundle(2, 0, {"y": trivial_point(QQ, 2)})
    assert check_pairing(ParabolicPairing(ANTISYMMETRIC, J2, _trivial_line()), bundle)
    assert check_pairing(ParabolicPairing(SYMMETRIC, I2, _trivial_line()), bundle)
    # wrong declared kind fails the symmetry test
    assert not check_pairing(ParabolicPairing(SYMMETRIC, J2, _trivial_line()), bundle)
    with pytest.raises(ShapeMismatch):
        check_pairing(ParabolicPairing(SYMMETRIC, I2, _trivial_line()),
                      ParabolicBundle(3, 0, {"y": trivial_point(QQ, 3)}))


def test_line_local_data_needs_the_stated_order():
    value = _value_line_bundle(QQ, "y", 4, 1, 0)
    assert line_local_data(value, "y", 4) == (0, 1)
    assert line_local_data(value, "z", 2) == (0, 0)  # unmarked: any order
    with pytest.raises(ShapeMismatch, match="order 4 at 'y', expected 2"):
        line_local_data(value, "y", 2)


@pytest.mark.parametrize("field", [QQ, GF101], ids=["Q", "GF101"])
def test_check_pairing_reads_the_trivial_datum_where_the_value_line_is_unmarked(field):
    """With the value line marked only at y, the point z is tested against
    the datum (0, 0): the pairing perfect on P at y is perfect on P at z
    and not on t * P there."""
    rng = random.Random(field.p + 61)
    made = None
    while made is None:
        made = gen_pairing_point(rng, field, 3, 0, 0, SYMMETRIC, 2, "y")
    pt, form, value = made
    assert set(value.points) == {"y"}
    pairing = ParabolicPairing(SYMMETRIC, form, value)
    assert check_pairing(pairing, ParabolicBundle(pt.n, 0, {"y": pt, "z": pt}))
    shifted = ParabolicPoint(pt.order, [l.scale(1) for l in pt.chain])
    assert not check_pairing(pairing, ParabolicBundle(pt.n, 0, {"y": pt, "z": shifted}))


def test_identity_form_fails_on_mixed_weights():
    bundle = ParabolicBundle(2, 0, {"y": diag_point(2, [0, 1])})
    pairing = ParabolicPairing(SYMMETRIC, I2, _trivial_line(order=2))
    assert not check_pairing(pairing, bundle)


def test_singular_form_fails():
    bundle = ParabolicBundle(2, 0, {"y": trivial_point(QQ, 2)})
    sing = [[el(0, 1), el(0, 1)], [el(0, 1), el(0, 1)]]
    assert not check_pairing(ParabolicPairing(SYMMETRIC, sing, _trivial_line()), bundle)


def test_hyperbolic_pair_with_complementary_jumps():
    # order 6, jumps 2 and 3 (sum = order - 1): perfect against trivial L
    bundle = ParabolicBundle(2, 0, {"y": diag_point(6, [2, 3])})
    line = _value_line_bundle(QQ, "y", 6, 0, 0)
    assert check_pairing(ParabolicPairing(SYMMETRIC, H2, line), bundle)
    assert check_pairing(ParabolicPairing(ANTISYMMETRIC, J2, line), bundle)
    # non-complementary jumps are imperfect
    bad = ParabolicBundle(2, 0, {"y": diag_point(6, [2, 4])})
    assert not check_pairing(ParabolicPairing(SYMMETRIC, H2, line), bad)


def test_dual_point_involution_and_weights():
    rng = random.Random(101)
    for _ in range(10):
        pt = gen_parabolic_point(rng, rng.randint(1, 3), rng.randint(1, 5))
        d = hom_chain(pt, 0, 0)
        assert hom_chain(d, 0, 0) == pt
        # weight a/r dualizes to the complementary level (r-1-a)/r, the
        # normalization under which the residue pairing is weight-exact
        r = pt.order
        expected = {}
        for w, m in pt.weights():
            key = Fraction(r - 1 - w.numerator * r // w.denominator, r)
            expected[key] = expected.get(key, 0) + m
        assert dict(d.weights()) == expected


@pytest.mark.parametrize("field", [QQ, GF101, PrimeField(2), PrimeField(3)],
                         ids=["rational", "prime101", "prime2", "prime3"])
def test_check_pairing_matches_reference_definition(field):
    """Drawn pairings, perturbed, t^{+-1}-shifted and rank-1 forms, each
    checked against every value datum (c, g), c < r, g in {-1, 0, 1}, of
    its point: the drawn datum and every other one."""
    rng = random.Random(211)
    verdicts, data = [], set()
    made_count = 0
    while made_count < 30:
        kind = rng.choice([SYMMETRIC, ANTISYMMETRIC])
        r = rng.randint(1, 6)
        c_l, g_l = rng.randint(0, r - 1), rng.randint(-1, 1)
        made = gen_pairing_point(rng, field, r, c_l, g_l, kind, rng.randint(1, 2), "p")
        if made is None:
            continue
        made_count += 1
        data.add((c_l > 0, g_l != 0))
        pt, form, _ = made
        n = pt.n
        bundle = ParabolicBundle(n, 0, {"p": pt})
        # one entry perturbed, keeping the declared kind
        i, j = rng.randrange(n), rng.randrange(n)
        d = el(rng.randint(-1, 2), rng.randint(1, 5), field=field)
        perturbed = [row[:] for row in form]
        perturbed[i][j] = perturbed[i][j] + d
        if i != j:
            perturbed[j][i] = perturbed[j][i] + (d if kind == SYMMETRIC else -d)
        elif kind == ANTISYMMETRIC:
            perturbed[i][j] = form[i][j]
        forms = [form, perturbed] + [[[x.shift(s) for x in row] for row in form]
                                     for s in (-1, 1)]
        if n >= 2 and kind == SYMMETRIC:
            # symmetric rank-1 form v v^T
            forms.append([[x * y for y in form[0]] for x in form[0]])
        for c in range(r):
            for g in (-1, 0, 1):
                value = _value_line_bundle(field, "p", r, c, g)
                for f in forms:
                    pairing = ParabolicPairing(kind, f, value)
                    verdict = check_pairing(pairing, bundle)
                    assert verdict == reference_check(pairing, bundle)
                    verdicts.append((verdict, (c, g) == (c_l, g_l)))
    assert {(True, True), (True, False), (False, True), (False, False)} <= set(verdicts)
    assert (True, True) in data


@pytest.mark.parametrize("field", [QQ, GF101], ids=["rational", "prime101"])
def test_check_pairing_tests_each_mirrored_level_once(field, monkeypatch):
    """Every level, the mirrored ones r+c-a included, is read off one Gram
    matrix H = V^T * F * V per marked point, whatever the order: on pushed
    pairings of order 8 to 10 check_pairing splits the point once, and the
    verdicts match the reference definition.  The branch points are
    diagonal with line 2k paired to line 2k+1; jumps j and order-1-j make
    the pair perfect, and the last case is not."""
    splits = []
    split = pairing.split_into_lines
    monkeypatch.setattr(pairing, "split_into_lines",
                        lambda pt: splits.append(pt) or split(pt))
    rng = random.Random(223)
    verdicts = []
    for order, e, jumps in ((1, 8, [0, 0]), (2, 4, [0, 1]), (2, 5, [1, 0, 0, 1]),
                            (3, 3, [0, 2, 1, 1]), (3, 3, [0, 1])):
        n = len(jumps)
        pt = ParabolicPoint(order, [diagonal_lattice(field, [int(j > x) for x in jumps])
                                    for j in range(order + 1)])
        kind = rng.choice([SYMMETRIC, ANTISYMMETRIC])
        form = [[_Z] * n for _ in range(n)]
        for k in range(0, n, 2):
            form[k][k + 1] = el(0, 1, field=field)
            form[k + 1][k] = el(0, 1 if kind == SYMMETRIC else -1, field=field)
        s = order * e
        profile = make_profile(s, [("x0", e, order, field.random_nonzero(rng))])
        value = ParabolicBundle(1, 0, {"y": ParabolicPoint.line(field, s, 0)})
        pushed, bundle = pushforward_pairing(profile, value, "y", [(pt, form, (0, 0))])
        for f in (pushed.form, [[x.shift(1) for x in row] for row in pushed.form]):
            candidate = ParabolicPairing(kind, f, value)
            del splits[:]
            verdict = check_pairing(candidate, bundle)
            assert verdict == reference_check(candidate, bundle)
            verdicts.append(verdict)
            assert splits == [bundle.points["y"]]
    assert verdicts == [True, False] * 4 + [False, False]


def _gram_cases(field):
    """(kind, form, lifts): drawn pairings with their point's lifts and with
    mixed lifts (``mix_lines``, not triangular), and random symmetric and
    alternating forms against random bases."""
    rng = random.Random(227)
    cases = []
    while len(cases) < 40:
        kind = rng.choice([SYMMETRIC, ANTISYMMETRIC])
        r = rng.randint(1, 6)
        made = gen_pairing_point(rng, field, r, rng.randint(0, r - 1), rng.randint(-1, 1),
                                 kind, rng.randint(1, 2), "y")
        if made is not None:
            pt, form, _ = made
            lines = split_into_lines(pt)
            cases += [(kind, form, lines[1]),
                      (kind, form, mix_lines(pt, lines, random.Random(rng.getrandbits(32))))]
    for _ in range(40):
        kind, n = rng.choice([SYMMETRIC, ANTISYMMETRIC]), rng.randint(1, 4)
        form = [[_Z] * n for _ in range(n)]
        for i in range(n):
            if kind == SYMMETRIC:
                form[i][i] = random_element(rng, field)
            for k in range(i + 1, n):
                x = random_element(rng, field)
                form[i][k], form[k][i] = x, x if kind == SYMMETRIC else -x
        assert _symmetry_holds(kind, form)
        cases.append((kind, form, random_columns(rng, n, field)))
    return cases


def _gram_mismatches(gram, field):
    return sum(gram(form, lifts, kind) != mat_mul(lifts, mat_mul(form, transpose(lifts)))
               for kind, form, lifts in _gram_cases(field))


@pytest.mark.parametrize("field", [QQ, GF101, PrimeField(2), PrimeField(3)],
                         ids=["rational", "prime101", "prime2", "prime3"])
def test_gram_on_one_triangle_is_the_dense_product(field):
    assert _gram_mismatches(_gram, field) == 0


@pytest.mark.parametrize("field", [QQ, GF101, PrimeField(3)],
                         ids=["rational", "prime101", "prime3"])
def test_a_wrong_mirror_sign_is_caught(field):
    """Mirroring antisymmetric entries without the sign breaks the product;
    over GF(2), -x = x, so no field of characteristic 2 is listed."""
    unsigned = planted(_gram, ("neg = kind == ANTISYMMETRIC", "neg = False"))
    assert _gram_mismatches(unsigned, field) > 0


# -- pullback --------------------------------------------------------------


def test_pullback_identity_cover():
    profile = make_profile(1, [("x", 1, 1, QQ.one)])
    bundle = ParabolicBundle(2, 0, {"y": trivial_point(QQ, 2)})
    pairing = ParabolicPairing(ANTISYMMETRIC, J2, _trivial_line())
    pulled, pulled_bundle = pullback_pairing(profile, pairing, bundle, "y")
    assert pulled.kind == ANTISYMMETRIC and pulled.form == J2
    assert pulled_bundle.points["x"] == bundle.points["y"]
    assert check_pairing(pulled, pulled_bundle)


def test_pullback_hyperbolic_example():
    profile = make_profile(6, [("x", 2, 3, QQ.one)])
    bundle = ParabolicBundle(2, 0, {"y": diag_point(6, [2, 3])})
    line = _value_line_bundle(QQ, "y", 6, 0, 0)
    pairing = ParabolicPairing(SYMMETRIC, H2, line)
    pulled, pulled_bundle = pullback_pairing(profile, pairing, bundle, "y")
    assert pulled.kind == SYMMETRIC
    assert dict(pulled_bundle.points["x"].weights()) == \
        {Fraction(2, 3): 1, Fraction(0): 1}
    assert check_pairing(pulled, pulled_bundle)


def test_pullback_rejects_bad_input():
    profile = make_profile(2, [("x", 2, 1, QQ.one)])
    bundle = ParabolicBundle(2, 0, {"y": diag_point(2, [0, 1])})
    bad = ParabolicPairing(SYMMETRIC, I2, _trivial_line(order=2))
    with pytest.raises(NotAPairing):
        pullback_pairing(profile, bad, bundle, "y")
    two = make_profile(2, [("x0", 2, 1, QQ.one), ("x1", 2, 1, QQ.one)])
    good_bundle = ParabolicBundle(2, 0, {"y": trivial_point(QQ, 2)})
    good = ParabolicPairing(SYMMETRIC, I2, _trivial_line())
    with pytest.raises(ProfileMismatch):
        pullback_pairing(two, good, good_bundle, "y")


@pytest.mark.parametrize("field", [QQ, GF101], ids=["Q", "GF101"])
def test_pullback_pairing_composes_along_a_tower(field):
    """Pulling along z -> x -> y (w_y = u1 * t_x^{e1}, t_x = u2 * t_z^{e2})
    in two steps equals pulling along the composite cover
    w_y = (u1 * u2^{e1}) * t_z^{e1 * e2}: the same point and the same form."""
    rng = random.Random(field.p + 211)
    towers = 0
    while towers < 40:
        e1, e2, r_z = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        u1 = field.of(rng.choice([1, 2, 3, -1]))
        u2 = field.of(rng.choice([1, 2, -3, 5]))
        r_x, s = r_z * e2, r_z * e2 * e1
        kind = rng.choice([SYMMETRIC, ANTISYMMETRIC])
        made = gen_pairing_point(rng, field, s, 0, 0, kind, rng.randint(1, 2), "y")
        if made is None:
            continue
        towers += 1
        pt, form, value = made
        pairing = ParabolicPairing(kind, form, value)
        bundle = ParabolicBundle(pt.n, 0, {"y": pt})
        mid = pullback_pairing(make_profile(s, [("x", e1, r_x, u1)]), pairing, bundle, "y")
        two_step = pullback_pairing(make_profile(r_x, [("z", e2, r_z, u2)]), *mid, "x")
        u = field.of(u1 * u2 ** e1)
        composite = pullback_pairing(make_profile(s, [("z", e1 * e2, r_z, u)]),
                                     pairing, bundle, "y")
        assert two_step[1].points["z"] == composite[1].points["z"]
        assert two_step[0].form == composite[0].form


@pytest.mark.parametrize("field", [QQ, GF101], ids=["Q", "GF101"])
def test_pullback_pairing_pulls_its_bundle_with_pullback_bundle(field):
    rng = random.Random(field.p + 53)
    pulled = 0
    while pulled < 20:
        s = rng.randint(1, 6)
        profile, _ = gen_profile(rng, s, 1, field)
        kind = rng.choice([SYMMETRIC, ANTISYMMETRIC])
        made = gen_pairing_point(rng, field, s, rng.randint(0, s - 1), rng.randint(-1, 1),
                                 kind, rng.randint(1, 2), "y")
        if made is None:
            continue
        pulled += 1
        pt, form, value = made
        bundle = ParabolicBundle(pt.n, 0, {"y": pt})
        got = pullback_pairing(profile, ParabolicPairing(kind, form, value), bundle, "y")
        assert got[1] == pullback_bundle(profile, bundle, "y")
        assert got[0].value_line == pullback_bundle(profile, value, "y")


def test_pullback_pairing_refuses_a_bundle_unmarked_at_the_target():
    profile = make_profile(2, [("x", 2, 1, QQ.one)])
    pairing = ParabolicPairing(SYMMETRIC, [[el(0, 1)]], _value_line_bundle(QQ, "y", 2, 0, 0))
    with pytest.raises(ProfileMismatch, match="'y'"):
        pullback_pairing(profile, pairing, ParabolicBundle(1, 0, {}), "y")


@pytest.mark.parametrize("field", [QQ, GF101], ids=["Q", "GF101"])
def test_pullback_pairing_refuses_a_bundle_with_another_marked_point(field):
    """A pairing has one form for all its points.  The pulled form is
    substituted at the branch only, so it cannot serve the copies z@i of a
    second point, which keep their lattices; such a bundle is refused."""
    rng = random.Random(field.p + 59)
    profile = make_profile(4, [("x", 2, 2, field.of(3))])
    made = None
    while made is None:
        made = gen_pairing_point(rng, field, 4, 0, 0, SYMMETRIC, 2, "y")
    pt, form, value = made
    pairing = ParabolicPairing(SYMMETRIC, form, value)
    pulled = pullback_pairing(profile, pairing, ParabolicBundle(pt.n, 0, {"y": pt}), "y")
    assert check_pairing(*pulled)
    with pytest.raises(ProfileMismatch, match="'y' only"):
        pullback_pairing(profile, pairing, ParabolicBundle(pt.n, 0, {"y": pt, "z": pt}), "y")


def test_antisymmetric_means_alternating_in_characteristic_2():
    """Over GF(2), -x = x, so F^T = -F holds for every symmetric form; the
    antisymmetric kind also requires a zero diagonal."""
    one = LocalElement.const(PrimeField(2), 1)
    assert _symmetry_holds(SYMMETRIC, [[one]])
    assert not _symmetry_holds(ANTISYMMETRIC, [[one]])
    hyperbolic = [[_Z, one], [one, _Z]]
    assert _symmetry_holds(SYMMETRIC, hyperbolic)
    assert _symmetry_holds(ANTISYMMETRIC, hyperbolic)
    # a form that is not square holds neither kind
    assert not _symmetry_holds(SYMMETRIC, [[_Z, one]])
    assert not _symmetry_holds(ANTISYMMETRIC, [[_Z, one]])


@pytest.mark.parametrize("field", [QQ, GF101], ids=["Q", "GF101"])
def test_pullback_bundle_multiplies_the_parabolic_degree(field):
    """Along a cover of degree deg f = sum of the e_b, with up to three
    branches, the pulled bundle has deg f times the parabolic degree; the
    target point becomes one point per branch and each other point passes
    through once per sheet."""
    rng = random.Random(field.p + 43)
    for _ in range(30):
        s = rng.randint(1, 6)
        profile, _ = gen_profile(rng, s, 3, field)
        deg_f = sum(br.e for br in profile.branches)
        n = rng.randint(1, 3)
        bundle = ParabolicBundle(n, rng.randint(-3, 3), {
            "y": gen_parabolic_point(rng, n, s, field),
            "z": gen_parabolic_point(rng, n, rng.randint(1, 4), field)})
        pulled = pullback_bundle(profile, bundle, "y")
        assert parabolic_degree(pulled) == deg_f * parabolic_degree(bundle)
        assert pulled.labels() == sorted([br.label for br in profile.branches]
                                         + ["z@%d" % i for i in range(deg_f)])


@pytest.mark.parametrize("field", [QQ, GF101], ids=["Q", "GF101"])
def test_pullback_bundle_keeps_a_degree_zero_value_line_at_zero(field):
    """Branches (e, r) = (2, 2) and (4, 1) over s = 4: pulled along one
    branch only, this degree-0 value line read -1 and -1/2."""
    profile = make_profile(4, [("x0", 2, 2, field.one), ("x1", 4, 1, field.of(3))])
    value = _value_line_bundle(field, "y", 4, 1, 0)
    pulled = pullback_bundle(profile, value, "y")
    assert parabolic_degree(pulled) == 0
    assert pulled.labels() == ["aux@%d" % i for i in range(6)] + ["x0", "x1"]
    for br in profile.branches:
        assert pulled.points[br.label] == pullback_parabolic(profile, value.points["y"], br.label)


@pytest.mark.parametrize("field", [QQ, GF101], ids=["Q", "GF101"])
def test_pulled_value_line_has_the_declared_branch_data(field):
    """expected_branch_value_data is the local datum of the value line
    pulled back along each branch."""
    rng = random.Random(field.p + 47)
    for _ in range(30):
        s = rng.randint(1, 8)
        profile, _ = gen_profile(rng, s, 3, field)
        value = _value_line_bundle(field, "y", s, rng.randint(0, s - 1), rng.randint(-1, 1))
        pulled = pullback_bundle(profile, value, "y")
        for br in profile.branches:
            assert line_local_data(pulled, br.label, br.r) == \
                expected_branch_value_data(profile, br, value, "y")


# -- pushforward -----------------------------------------------------------


def test_pushforward_residue_example():
    # trivial line with form "1", e = 2: antidiagonal orthogonal rank 2
    profile = make_profile(2, [("x", 2, 1, QQ.one)])
    line = _trivial_line(order=2)
    branch = (trivial_point(QQ, 1), [[el(0, 1)]], (0, 0))
    pushed, pushed_bundle = pushforward_pairing(profile, line, "y", [branch])
    assert pushed.kind == SYMMETRIC
    assert pushed.form == [[_Z, el(0, 1)], [el(0, 1), _Z]]
    assert dict(pushed_bundle.points["y"].weights()) == \
        {Fraction(0): 1, Fraction(1, 2): 1}
    assert check_pairing(pushed, pushed_bundle)


def test_pushforward_antisymmetric_blocks():
    profile = make_profile(2, [("x", 2, 1, QQ.one)])
    line = _trivial_line(order=2)
    branch = (trivial_point(QQ, 2), J2, (0, 0))
    pushed, pushed_bundle = pushforward_pairing(profile, line, "y", [branch])
    assert pushed.kind == ANTISYMMETRIC
    assert pushed_bundle.rank == 4
    ft = [[pushed.form[j][i] for j in range(4)] for i in range(4)]
    assert ft == [[-e for e in row] for row in pushed.form]
    assert check_pairing(pushed, pushed_bundle)


def test_pushforward_unit_scaling():
    profile = make_profile(2, [("x", 2, 1, QQ.of(5))])
    line = _trivial_line(order=2)
    branch = (trivial_point(QQ, 1), [[el(0, 1)]], (0, 0))
    pushed, pushed_bundle = pushforward_pairing(profile, line, "y", [branch])
    assert check_pairing(pushed, pushed_bundle)
    # off-diagonal residue entries are scaled by 1/u
    assert pushed.form[0][1] == el(0, "1/5")


def test_pushforward_value_data_must_match():
    profile = make_profile(2, [("x", 2, 1, QQ.one)])
    line = _trivial_line(order=2)
    branch = (trivial_point(QQ, 1), [[el(0, 1)]], (1, 0))
    with pytest.raises(ValueLineMismatch):
        pushforward_pairing(profile, line, "y", [branch])
    with pytest.raises(ProfileMismatch):
        pushforward_pairing(profile, line, "y", [])
    asym = (trivial_point(QQ, 2), [[el(0, 1), el(0, 2)],
                                            [el(0, 3), el(0, 1)]], (0, 0))
    with pytest.raises(NotAPairing):
        pushforward_pairing(profile, line, "y", [asym])


def test_pushed_pairing_carries_the_strongest_kind_of_its_branch_forms(monkeypatch):
    """Over GF(2) an alternating form is symmetric too.  The pushed pairing
    is labelled antisymmetric when every branch form is alternating and
    symmetric when one is not; so every antisymmetric push draw of the
    corollaries suite comes back labelled antisymmetric."""
    f2 = PrimeField(2)
    one = LocalElement.const(f2, 1)
    profile = make_profile(2, [("x0", 2, 1, f2.one), ("x1", 2, 1, f2.one)])
    line = ParabolicBundle(1, 0, {"y": trivial_point(f2, 1, 2)})
    alternating = (trivial_point(f2, 2), [[_Z, one], [one, _Z]], (0, 0))
    diagonal = (trivial_point(f2, 1), [[one]], (0, 0))
    for branches, kind in (([alternating, alternating], ANTISYMMETRIC),
                           ([alternating, diagonal], SYMMETRIC)):
        pushed, bundle = pushforward_pairing(profile, line, "y", branches)
        assert pushed.kind == kind and check_pairing(pushed, bundle)

    labels = []

    def push(*args):
        pushed, bundle = pushforward_pairing(*args)
        labels.append(pushed.kind)
        return pushed, bundle

    monkeypatch.setattr(harness, "pushforward_pairing", push)
    cfg = TrialConfig(field_name="prime:2")
    drawn = 0
    for seed in range(300):
        instance = harness._draw_corollaries(random.Random(seed), cfg, None)
        if instance["kind"] != ANTISYMMETRIC or instance["direction"] != "push" \
                or "vacuous" in instance:
            continue
        drawn += 1
        assert harness._check_corollaries(instance, None) == (True, "push ok")
        assert labels.pop() == ANTISYMMETRIC
    assert drawn >= 30


def test_generated_pairings_are_perfect():
    rng = random.Random(103)
    for kind in (SYMMETRIC, ANTISYMMETRIC):
        for _ in range(6):
            r = rng.randint(1, 5)
            c_l, g_l = rng.randint(0, r - 1), rng.randint(-1, 1)
            made = gen_pairing_point(rng, QQ, r, c_l, g_l, kind, 1, "p")
            if made is None:
                continue
            pt, form, value = made
            bundle = ParabolicBundle(pt.n, 0, {"p": pt})
            assert check_pairing(ParabolicPairing(kind, form, value), bundle)


@pytest.mark.parametrize("field", [QQ, GF101, PrimeField(2)], ids=["Q", "GF101", "GF2"])
def test_residue_push_of_an_alternating_form_is_alternating(field):
    """Diagonal entry i*e + rho of the pushed form is a component of
    t^{2 rho} * form[i][i], so a zero diagonal stays zero, in
    characteristic 2 as well."""
    rng = random.Random(field.p + 29)
    for e in range(1, 5):
        for _ in range(4):
            n = rng.randint(2, 3)
            form = [[_Z] * n for _ in range(n)]
            for i in range(n):
                for i2 in range(i + 1, n):
                    x = random_element(rng, field, zero_chance=0)
                    form[i][i2], form[i2][i] = x, -x
            out = residue_push_form(form, e, field.random_nonzero(rng), field)
            assert _symmetry_holds(ANTISYMMETRIC, out)
            assert all(out[k][k].is_zero() for k in range(n * e))
            assert any(not x.is_zero() for row in out for x in row)


@pytest.mark.parametrize("field", [QQ, GF101, PrimeField(3)], ids=["Q", "GF101", "GF3"])
def test_residue_push_form_is_the_top_component(field):
    """Entry (i*e + rho, i2*e + sigma) of the pushed form is the t^{e-1}
    component of t^{rho+sigma} * form[i][i2], scaled by 1/u."""
    rng = random.Random(field.p + 17)
    for e in range(1, 8):
        for _ in range(4):
            n = rng.randint(1, 2)
            u = field.random_nonzero(rng)
            uinv = pow(u, -1, field.p) if field.p else 1 / u
            # short entries and long ones spanning several multiples of e
            form = [[random_element(rng, field) if rng.random() < 0.5 else
                     LocalElement.make(field, rng.randint(-9, 3),
                                       [field.of(rng.randint(-4, 4))
                                        for _ in range(rng.randint(1, 16))])
                     for _ in range(n)] for _ in range(n)]
            out = residue_push_form(form, e, u, field)
            for i in range(n):
                for i2 in range(n):
                    for rho in range(e):
                        for sigma in range(e):
                            top = decompose_element(form[i][i2].shift(rho + sigma), e, u)
                            assert (out[i * e + rho][i2 * e + sigma]
                                    == top[e - 1] * LocalElement.const(field, uinv))

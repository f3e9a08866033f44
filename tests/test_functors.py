"""Direct image and pullback on both sides: worked examples and laws."""

import random
from fractions import Fraction

import pytest

from parstack import (QQ, CoverProfile, InadmissibleProfile,
                      InadmissibleWeight, Lattice, ParabolicPoint, PrimeField,
                      ProfileMismatch, TrialConfig, from_parabolic, is_graded_morphism,
                      is_point_morphism, make_profile, pullback_graded,
                      pullback_matrix, pullback_parabolic,
                      pullback_parabolic_line, pushforward_graded,
                      pushforward_matrix, pushforward_parabolic,
                      restrict_scalars, to_parabolic, verify_direct_image)
from parstack import functors
from parstack.functors import (Branch, _restrict_columns, restrict_matrix,
                               substitute_element)
from parstack.harness import gen_parabolic_point, gen_profile
from parstack.lattice import direct_sum
from parstack.localring import LocalElement
from parstack.parabolic import split_into_lines

from conftest import (GF101, PLANTED_FAULTS, TWIST_FAULTS, decompose_element, diag_point,
                      diagonal_lattice, el, gen_graded_module, graded_line, lat, pivot_only,
                      planted, random_columns, random_element, trivial_module, trivial_point)


# -- profiles --------------------------------------------------------------


def test_profile_admissibility():
    p = make_profile(4, [("a", 2, 2, QQ.one), ("b", 4, 1, QQ.of(3))])
    assert p.branch("a").e == 2
    with pytest.raises(ProfileMismatch):
        p.branch("c")
    with pytest.raises(InadmissibleProfile):
        make_profile(4, [("a", 2, 3, QQ.one)])
    with pytest.raises(InadmissibleProfile):
        make_profile(4, [("a", 2, 2, QQ.zero)])
    with pytest.raises(InadmissibleProfile):
        make_profile(4, [("a", 2, 2, QQ.one), ("a", 4, 1, QQ.one)])
    with pytest.raises(InadmissibleProfile):
        make_profile(0, [])
    with pytest.raises(InadmissibleProfile):
        make_profile(4, [])
    with pytest.raises(InadmissibleProfile):
        CoverProfile(3, (Branch("a", 0, 3, QQ.one),))


# -- scalar restriction and element bookkeeping -----------------------------


def test_decompose_substitute_inverse():
    rng = random.Random(71)
    for _ in range(30):
        e = rng.randint(1, 4)
        u = QQ.random_nonzero(rng)
        x = random_element(rng)
        comps = decompose_element(x, e, u)
        back = sum((substitute_element(c, e, u).shift(rho)
                    for rho, c in enumerate(comps)),
                   el(0, 0))
        assert back == x


def test_restrict_scalars_examples():
    r = diagonal_lattice(QQ, [0])
    assert restrict_scalars(r, 1, QQ.one) == r
    assert restrict_scalars(r, 2, QQ.one) == diagonal_lattice(QQ, [0, 0])
    # t*R over e=2: spanned by (0,1) and (w_y, 0)
    assert restrict_scalars(r.scale(1), 2, QQ.one) == diagonal_lattice(QQ, [1, 0])


def test_restrict_scalars_commutes_with_full_twists():
    rng = random.Random(73)
    for _ in range(10):
        e = rng.randint(1, 3)
        u = QQ.random_nonzero(rng)
        n = rng.randint(1, 2)
        l = lat(random_columns(rng, n))
        assert restrict_scalars(l.scale(e), e, u) == \
            restrict_scalars(l, e, u).scale(1)


@pytest.mark.parametrize("fault", sorted(PLANTED_FAULTS))
def test_each_restriction_guard_catches_its_planted_fault(fault):
    (old, new), cols, e, u, message = PLANTED_FAULTS[fault]
    lattice = lat(cols)
    gens = [g for col in lattice.cols for g in _restrict_columns(col, e, QQ.of(u))]
    assert restrict_scalars(lattice, e, QQ.of(u)) == \
        Lattice.from_columns(QQ, lattice.n * e, gens)
    broken = planted(functors.restrict_scalars, (old, new))
    with pytest.raises(AssertionError, match="internal: .*" + message):
        broken(lattice, e, QQ.of(u))


@pytest.mark.parametrize("old", ["no such text", "field"], ids=["missing", "repeated"])
def test_a_plant_needs_its_text_exactly_once(old):
    with pytest.raises(LookupError, match="occurs"):
        planted(functors.restrict_scalars, (old, old))


# the component kernel planted to multiply by u^q instead of u^{-q}
UNIT_FAULT = ("self.p, u, -1)", "self.p, u, 1)")

# each field with its units
TWIST_GRID = [(QQ, [QQ.one, QQ.of("2/3"), QQ.of("-5/4"), QQ.of(3), QQ.of(-1)]),
              (GF101, [1, 2, 100]), (PrimeField(2), [1]), (PrimeField(3), [1, 2])]


def _restricted_span(lattice, e, u):
    """res(L) by canonicalizing the restricted generators t^rho * c_j."""
    gens = [g for col in lattice.cols for g in _restrict_columns(col, e, u)]
    return Lattice.from_columns(lattice.field, lattice.n * e, gens)


def test_a_diagonal_lattice_reaches_neither_the_general_path_nor_a_member_test(monkeypatch):
    """Every column of a diagonal lattice is pivot-only, so its working
    columns stay empty: no generator is built, no member test runs, and the
    component check is its guard."""
    lattice = diagonal_lattice(QQ, [5, -1, 0, 2])
    expected = _restricted_span(lattice, 3, QQ.of("2/3"))
    calls = []
    monkeypatch.setattr(functors, "_restrict_columns", lambda *a: calls.append("general"))
    monkeypatch.setattr(Lattice, "member", lambda *a: calls.append("member"))
    assert restrict_scalars(lattice, 3, QQ.of("2/3")) == expected
    assert not calls


@pytest.mark.parametrize("field,units", TWIST_GRID, ids=["Q", "GF101", "GF2", "GF3"])
def test_at_e_1_pivot_only_columns_are_the_input_tuples(field, units):
    """At e = 1 the restriction of t^a * e_j is t^a * e_j read in w, so the
    result stores the input's own empty entries tuple and exponent a for
    it; the other columns are rescaled by the unit and are new."""
    rng = random.Random(163)
    lattice = direct_sum([diagonal_lattice(field, [3, -2]), lat(random_columns(rng, 2, field),
                                                                 field)])
    assert lattice.entries[:2] == ((), ())
    for u in units:
        res = restrict_scalars(lattice, 1, u)
        assert res == _restricted_span(lattice, 1, u)
        for j, (col, out) in enumerate(zip(lattice.cols, res.cols)):
            if pivot_only(col):
                assert res.entries[j] is lattice.entries[j]
                assert out == col and res.diag[j] == lattice.diag[j]


@pytest.mark.parametrize("field,u", [(QQ, QQ.of(2)), (QQ, QQ.of("2/3")), (GF101, 2)],
                         ids=["Q-2", "Q-2/3", "GF101-2"])
@pytest.mark.parametrize("e", [2, 3, 4])
def test_restrict_scalars_checks_the_component_kernel(field, u, e, monkeypatch):
    """The restriction checks decompose_component, which it shares with
    restrict_matrix and so with the residue push.  With the component
    kernel multiplying by u^q instead of u^{-q} (UNIT_FAULT):

    * the lattice spanned by (1, 0) and (t, t^4) canonicalizes to the
      diagonal one of 1 and t^4, so neither column has stored entries.  The
      component of t^rho * t^4 at its pivot row comes out as u^q * w^q,
      q = (4 + rho) // e >= 1, not u^{-q} * w^q, and the component check
      refuses it;
    * in the lattice spanned by (t^2, 0) and (t, t^4) the second column has
      an entry above its pivot.  With the fault planted in
      ``_restrict_columns`` alone (each component twisted by u twice, which
      takes u^{-q} to u^q), the restriction still comes out right:
      its seed for c_1 is the block-0 row of the restricted generator, the
      component of t, whose w-degree 0 the planted twist leaves alone, and
      the pivots are implied.  The generator c_1 keeps its block-0 entry,
      but its pivot comes out u^{2q} times too large, q = 4 // e >= 1.  It differs from u^{2q} times the true
      generator by (1 - u^{2q}) * t * e_0, which is not in L, so it is no
      member, and the member test refuses it.

    Canonicalizing the restricted generators instead would accept the
    planted components without complaint."""
    diagonal = lat([[(0, 1), 0], [(1, 1), (4, 1)]], field)
    mixed = lat([[(2, 1), 0], [(1, 1), (4, 1)]], field)
    assert all(pivot_only(c) for c in diagonal.cols) and not pivot_only(mixed.cols[1])
    for lattice in (diagonal, mixed):
        assert restrict_scalars(lattice, e, u) == _restricted_span(lattice, e, u)
    with monkeypatch.context() as m:
        m.setattr(LocalElement, "component", planted(LocalElement.component, UNIT_FAULT))
        with pytest.raises(AssertionError, match=r"internal: component \d+ of t\^\d+ is not"):
            restrict_scalars(diagonal, e, u)
    monkeypatch.setattr(functors, "_restrict_columns", planted(
        functors._restrict_columns,
        ("decompose_component(x, e, u, d)", "decompose_component(x, e, u, d).twist(u).twist(u)")))
    with pytest.raises(AssertionError, match="internal: restriction misses a generator"):
        restrict_scalars(mixed, e, u)


@pytest.mark.parametrize("field,u", [(QQ, QQ.of(2)), (QQ, QQ.of("-2/3")), (GF101, 2)],
                         ids=["Q-2", "Q-(-2/3)", "GF101-2"])
def test_a_unit_fault_on_a_diagonal_lattice_is_refused(field, u, monkeypatch):
    """A component kernel that multiplies by u^q instead of u^{-q} gives
    every pivot-only generator the right support and a wrong unit, so each
    is still a member of the right lattice.  When every q is 0 no seed
    pivot shows it either; the exact pivot check refuses it at the first
    pivot w^b with b >= 1, since u^2 != 1.  At b = 0 everywhere the planted
    kernel agrees with the true one and nothing is refused."""
    lattice = diagonal_lattice(field, [1, 0, 2])  # q = 0 at e = 3
    assert restrict_scalars(lattice, 3, u) == \
        diagonal_lattice(field, [1, 0, 0, 0, 0, 0, 1, 1, 0]) == _restricted_span(lattice, 3, u)
    monkeypatch.setattr(LocalElement, "component", planted(LocalElement.component, UNIT_FAULT))
    with pytest.raises(AssertionError, match=r"internal: component 0 of t\^3 is not u\^-1 \* w\^1"):
        restrict_scalars(lattice, 3, u)
    assert restrict_scalars(diagonal_lattice(field, [0, 0]), 3, u) == \
        diagonal_lattice(field, [0] * 6)


def _tensor_identity(rows, e):
    """rows (x) I_e: entry (i*e + rho, j*e + sigma) is rows[i][j] if rho == sigma."""
    return [[x if rho == sigma else LocalElement.zero() for x in row for sigma in range(e)]
            for row in rows for rho in range(e)]


@pytest.mark.parametrize("field,units", TWIST_GRID, ids=["Q", "GF101", "GF2", "GF3"])
def test_restriction_undoes_base_change(field, units, monkeypatch):
    """restrict_matrix(pullback_matrix(A)) = A (x) I_e: t^sigma * bc(a) for an
    entry a(w) of A has its only K_Y-component at rho = sigma, and that
    component is a(w) again.  Base change along w = t^e / u instead (the
    planted substitute_element below) gives a(w / u^2) there, which differs
    exactly when u^2 != 1 and a is not a constant."""
    rng = random.Random(151)
    cases = []
    for u in units:
        for e in (1, 2, 3, 4, 7):
            profile = make_profile(e, [("x", e, 1, u)])
            for shape in ((1, 1), (2, 3), (3, 2)):
                rows = [[random_element(rng, field) for _ in range(shape[1])]
                        for _ in range(shape[0])]
                cases.append((profile, rows, e, u))
                assert restrict_matrix(pullback_matrix(profile, rows, "x"), e, u) == \
                    _tensor_identity(rows, e)
    monkeypatch.setattr(functors, "substitute_element",
                        lambda x, e, u: x.twist(u, -1).spread(e))
    broken = 0
    for profile, rows, e, u in cases:
        held = restrict_matrix(pullback_matrix(profile, rows, "x"), e, u) == \
            _tensor_identity(rows, e)
        constant = all(x.is_zero() or (x.ord == 0 and len(x.coeffs) == 1)
                       for row in rows for x in row)
        assert held == (field.of(u * u) == field.one or constant)
        broken += not held
    assert broken or all(field.of(u * u) == field.one for u in units)


@pytest.mark.parametrize("field_name", ["rational", "prime:101"])
@pytest.mark.parametrize("fault", sorted(TWIST_FAULTS))
def test_direct_image_suite_catches_each_planted_twist_fault(fault, field_name, monkeypatch):
    edits, note = TWIST_FAULTS[fault]
    monkeypatch.setattr(functors, "twist_restricted",
                        planted(functors.twist_restricted, *edits))
    report = verify_direct_image(TrialConfig(seed=0, trials=100, field_name=field_name))
    failed = [n for _, ok, n in report.verdicts if not ok]
    assert failed
    if note is not None:
        assert set(failed) == {note}


# -- parabolic direct image -------------------------------------------------


def test_pushforward_identity_cover():
    profile = make_profile(3, [("x", 1, 3, QQ.one)])
    pt = gen_parabolic_point(random.Random(1), 2, 3)
    assert pushforward_parabolic(profile, [pt]) == pt
    mod = from_parabolic(pt)
    assert pushforward_graded(profile, [mod]) == mod


def test_pushforward_trivial_line_e2():
    profile = make_profile(2, [("x", 2, 1, QQ.one)])
    pushed = pushforward_parabolic(profile, [trivial_point(QQ, 1)])
    assert pushed.n == 2
    assert pushed.weights() == ((Fraction(0), 1), (Fraction(1, 2), 1))
    # graded route: both grades carry the branch piece; same parabolic shadow
    pushed_mod = pushforward_graded(profile, [trivial_module(QQ, 1)])
    assert to_parabolic(pushed_mod) == pushed


def test_pushforward_two_branch_weight_multiset():
    profile = make_profile(4, [("x0", 2, 2, QQ.one), ("x1", 4, 1, QQ.of(2))])
    branches = [ParabolicPoint.line(QQ, 2, 1), trivial_point(QQ, 1)]
    pushed = pushforward_parabolic(profile, branches)
    assert pushed.n == 6
    assert pushed.weights() == (
        (Fraction(0), 1), (Fraction(1, 4), 2), (Fraction(1, 2), 1),
        (Fraction(3, 4), 2))


def test_pushforward_input_checks():
    profile = make_profile(2, [("x", 2, 1, QQ.one)])
    with pytest.raises(ProfileMismatch):
        pushforward_parabolic(profile, [])
    with pytest.raises(ProfileMismatch):
        pushforward_parabolic(profile, [trivial_point(QQ, 1, order=2)])
    with pytest.raises(ProfileMismatch):
        pushforward_graded(profile, [trivial_module(QQ, 1, order=2)])


# -- pullback --------------------------------------------------------------


def test_pullback_line_formula():
    assert pullback_parabolic_line(0, 2, 3) == (0, Fraction(0))
    assert pullback_parabolic_line(Fraction(1, 3), 2, 3) == (0, Fraction(2, 3))
    assert pullback_parabolic_line(Fraction(2, 3), 2, 3) == (1, Fraction(1, 3))
    with pytest.raises(InadmissibleWeight):
        pullback_parabolic_line(Fraction(1, 5), 2, 3)
    with pytest.raises(InadmissibleWeight):
        pullback_parabolic_line(Fraction(3, 2), 2, 3)


def test_pullback_identity_cover_and_trivial():
    profile = make_profile(3, [("x", 1, 3, QQ.one)])
    pt = gen_parabolic_point(random.Random(5), 2, 3)
    assert pullback_parabolic(profile, pt, "x") == pt
    profile2 = make_profile(4, [("x", 2, 2, QQ.one)])
    triv = trivial_point(QQ, 3, order=4)
    assert pullback_parabolic(profile2, triv, "x") == \
        trivial_point(QQ, 3, order=2)


def test_pullback_rank2_example():
    # target weights {1/3, 2/3} on an s=6 chart, e=2, r=3
    profile = make_profile(6, [("x", 2, 3, QQ.one)])
    pt = diag_point(6, [2, 4])
    pulled = pullback_parabolic(profile, pt, "x")
    assert dict(pulled.weights()) == {Fraction(2, 3): 1, Fraction(1, 3): 1}
    # one line is twisted by t^{-1}
    assert pulled.chain[0].det_valuation() == -1


def test_pullback_graded_line_examples():
    profile = make_profile(6, [("x", 2, 3, QQ.one)])
    assert pullback_graded(profile, graded_line(QQ, 6, 2), "x") == \
        graded_line(QQ, 3, 2)
    assert pullback_graded(profile, graded_line(QQ, 6, 4), "x") == \
        graded_line(QQ, 3, 1, twist=-1)
    with pytest.raises(ProfileMismatch):
        pullback_graded(profile, graded_line(QQ, 3, 1), "x")
    with pytest.raises(ProfileMismatch, match="point order 3, profile s=6"):
        pullback_parabolic(profile, ParabolicPoint.line(QQ, 3, 1), "x")


def test_nontrivial_unit_enters_both_routes():
    profile = make_profile(4, [("x", 2, 2, QQ.of(3))])
    rng = random.Random(79)
    pt = gen_parabolic_point(rng, 2, 4)
    pulled = pullback_parabolic(profile, pt, "x")
    assert to_parabolic(pullback_graded(profile, from_parabolic(pt), "x")) == pulled


def test_unramified_pullback_runs_the_line_formula():
    """At e = 1 with a unit other than 1 the chain comes from the lines, so
    a splitting with the wrong jumps changes it."""
    profile = make_profile(3, [("x", 1, 3, QQ.of(2))])
    pt = gen_parabolic_point(random.Random(53), 1, 3)
    jumps, lifts = split_into_lines(pt)
    wrong = ([(c + 1) % 3 for c in jumps], lifts)
    assert pullback_parabolic(profile, pt, "x", lines=wrong) != \
        pullback_parabolic(profile, pt, "x")


# -- cross-route equalities and naturality ----------------------------------


@pytest.mark.parametrize("field", [QQ, GF101])
def test_direct_image_routes_agree(field):
    rng = random.Random(83)
    for _ in range(6):
        s = rng.randint(1, 8)
        profile, ranks = gen_profile(rng, s, 2, field, rank_bound=6, max_rank=2)
        mods = [gen_graded_module(rng, n, br.r, field)
                for br, n in zip(profile.branches, ranks)]
        assert to_parabolic(pushforward_graded(profile, mods)) == \
            pushforward_parabolic(profile, [to_parabolic(m) for m in mods])


def test_pushforward_matrix_naturality():
    rng = random.Random(89)
    profile = make_profile(4, [("x0", 2, 2, QQ.of(2)), ("x1", 4, 1, QQ.one)])
    srcs = [gen_parabolic_point(rng, 2, 2), gen_parabolic_point(rng, 1, 1)]
    dsts = [gen_parabolic_point(rng, 2, 2), gen_parabolic_point(rng, 1, 1)]
    from parstack.harness import gen_point_morphism
    mats = [gen_point_morphism(rng, s, d) for s, d in zip(srcs, dsts)]
    big = pushforward_matrix(profile, mats)
    assert is_point_morphism(big, pushforward_parabolic(profile, srcs),
                             pushforward_parabolic(profile, dsts))
    assert is_graded_morphism(big,
                              pushforward_graded(profile, [from_parabolic(p) for p in srcs]),
                              pushforward_graded(profile, [from_parabolic(p) for p in dsts]))


def test_pullback_matrix_naturality():
    rng = random.Random(97)
    profile = make_profile(6, [("x", 3, 2, QQ.of(-2))])
    src = gen_parabolic_point(rng, 2, 6)
    dst = gen_parabolic_point(rng, 2, 6)
    from parstack.harness import gen_point_morphism
    mat = gen_point_morphism(rng, src, dst)
    assert is_point_morphism(pullback_matrix(profile, mat, "x"),
                             pullback_parabolic(profile, src, "x"),
                             pullback_parabolic(profile, dst, "x"))


def test_degree_multiplicativity_single_scenario():
    # line of degree 1 with weight 1/2, deg f = 2, one branch with e = 2
    twist, frac = pullback_parabolic_line(Fraction(1, 2), 2, 1)
    pulled_degree = 2 * 1 + twist + frac
    assert pulled_degree == 3 == 2 * (1 + Fraction(1, 2))

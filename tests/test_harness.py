"""Instance generators, suite determinism, and mutation detection."""

import hashlib
import random
from fractions import Fraction

import pytest

from parstack import (ANTISYMMETRIC, QQ, SYMMETRIC,
                      ParabolicBundle, ParabolicPairing, ParabolicPoint,
                      PrimeField, TrialConfig, check_pairing, gen_parabolic_point)
from parstack import functors, pairing
from parstack import harness
from parstack.harness import (SUITES, _find_line_pair, _flip_symmetry, _line_pair,
                              _value_line_bundle, gen_point_morphism,
                              gen_profile, mix_lines, verify_corollaries,
                              verify_direct_image, verify_pullback)
from parstack.linalg import mat_mul, transpose
from parstack.localring import LocalElement
from parstack.parabolic import is_point_morphism, split_into_lines
from parstack.scenario import decode_element

from conftest import (FOUR_FIELDS, GF101, MUTATIONS, TWO_FIELDS, degree_scenario_trial,
                      diagonal_lattice, planted, run_mutation)
from jetspace import perfect


def test_trial_config_bounds():
    with pytest.raises(ValueError):
        TrialConfig(trials=0)
    with pytest.raises(ValueError):
        TrialConfig(max_rank=0)
    assert TrialConfig(field_name="prime:101").field == GF101


@pytest.mark.parametrize("field_name", ["rational", "prime:101"])
def test_trial_config_from_dict_inverts_to_dict(field_name):
    cfg = TrialConfig(seed=17, trials=9, max_rank=2, max_order=5, max_branches=4,
                      field_name=field_name)
    assert TrialConfig.from_dict(cfg.to_dict()) == cfg
    for bad in ({k: v for k, v in cfg.to_dict().items() if k != "seed"},
                dict(cfg.to_dict(), colour="blue"), dict(cfg.to_dict(), trials="9")):
        with pytest.raises(ValueError):
            TrialConfig.from_dict(bad)


def _capture_change_of_basis(monkeypatch):
    """The latest results of ``harness.gen_unimodular``, (lifts, ops), and
    ``harness.block_diag``, phi, under those names."""
    captured = {}
    for name in ("gen_unimodular", "block_diag"):
        def wrapped(*args, name=name, orig=getattr(harness, name)):
            captured[name] = orig(*args)
            return captured[name]
        monkeypatch.setattr(harness, name, wrapped)
    return captured


def _conjugation_failures(gen, captured, field):
    """(draws, failures): the pairing draws of ``gen`` in a basis of rank
    >= 2, and those whose form F breaks V^T * F * V = phi, with V the
    matrix whose columns are the drawn lifts."""
    rng = random.Random(33)
    draws = failures = 0
    for _ in range(60):
        r = rng.randint(1, 6)
        kind = SYMMETRIC if rng.random() < 0.5 else ANTISYMMETRIC
        made = gen(rng, field, r, rng.randint(0, r - 1), rng.randint(-1, 1), kind,
                   rng.randint(1, 2), "y")
        if made is None:
            continue
        (lifts, _), phi = captured["gen_unimodular"], captured["block_diag"]
        draws += len(lifts) > 1
        failures += mat_mul(lifts, mat_mul(made[1], transpose(lifts))) != phi
    return draws, failures


@FOUR_FIELDS
def test_pairing_form_is_phi_in_the_drawn_basis(field, monkeypatch):
    """gen_pairing_point's form F is phi moved to the basis V of the point,
    the drawn lifts: V^T * F * V = phi, with no inverse of V built."""
    captured = _capture_change_of_basis(monkeypatch)
    draws, failures = _conjugation_failures(harness.gen_pairing_point, captured, field)
    assert draws > 30 and failures == 0


@FOUR_FIELDS
def test_undoing_the_operations_first_to_last_is_caught(field, monkeypatch):
    captured = _capture_change_of_basis(monkeypatch)
    fault = planted(harness.gen_pairing_point, ("reversed(ops)", "ops"))
    assert _conjugation_failures(fault, captured, field)[1] > 0


def _entries(rows):
    return [[(x.ord, x.coeffs, x.den, x.p) for x in row] for row in rows]


def test_generator_draws_are_pinned():
    """Fixed gen_parabolic_point, mix_lines and gen_pairing_point draws on
    Q, GF(101), GF(2) and GF(3), and the rng state after them.  The verify
    digests cover Q and GF(101) only; a change to the draws moves this pin
    on purpose.  The mixed lifts are hashed in the row order of the matrix
    whose columns they are."""
    blob = hashlib.sha256()
    for field in (QQ, GF101, PrimeField(2), PrimeField(3)):
        rng = random.Random(33)
        for _ in range(40):
            n, r = rng.randint(1, 4), rng.randint(1, 6)
            pt = gen_parabolic_point(rng, n, r, field)
            mixed = mix_lines(pt, split_into_lines(pt), random.Random(rng.getrandbits(32)))
            kind = SYMMETRIC if rng.random() < 0.5 else ANTISYMMETRIC
            made = harness.gen_pairing_point(rng, field, r, rng.randint(0, r - 1),
                                             rng.randint(-1, 1), kind, rng.randint(1, 2), "y")
            drawn = [[_entries(lat.cols) for lat in pt.chain], _entries(transpose(mixed))]
            if made is not None:
                drawn += [[_entries(lat.cols) for lat in made[0].chain], _entries(made[1])]
            blob.update(repr(drawn).encode())
        blob.update(repr(rng.getstate()).encode())
    assert blob.hexdigest()[:16] == "0dcf8bbd1c6507e8"


def test_gen_parabolic_point_small_cases():
    assert gen_parabolic_point(random.Random(0), 1, 1).weights() == ((Fraction(0), 1),)
    seen = set()
    for seed in range(30):
        pt = gen_parabolic_point(random.Random(seed), 1, 2)
        seen.add(pt.weights())
    assert ((Fraction(0), 1),) in seen and ((Fraction(1, 2), 1),) in seen


def test_gen_parabolic_point_deterministic():
    a = gen_parabolic_point(random.Random(42), 2, 2)
    b = gen_parabolic_point(random.Random(42), 2, 2)
    assert a == b and a.chain == b.chain


def test_gen_profile_always_admissible():
    rng = random.Random(13)
    for _ in range(50):
        s = rng.randint(1, 12)
        profile, ranks = gen_profile(rng, s, 3, QQ, rank_bound=10)
        assert len(ranks) == len(profile.branches)
        for br in profile.branches:
            assert br.r * br.e == s and br.unit != 0


def test_gen_point_morphism_valid():
    rng = random.Random(17)
    for _ in range(8):
        r = rng.randint(1, 4)
        src = gen_parabolic_point(rng, rng.randint(1, 3), r)
        dst = gen_parabolic_point(rng, rng.randint(1, 3), r)
        assert is_point_morphism(gen_point_morphism(rng, src, dst), src, dst)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suites_pass_and_are_deterministic(suite):
    cfg = TrialConfig(seed=5, trials=12, max_order=8)
    a = SUITES[suite](cfg)
    b = SUITES[suite](cfg)
    assert a.passed and not a.failures
    assert a.to_dict(with_timing=False) == b.to_dict(with_timing=False)


def test_suites_pass_over_prime_field():
    cfg = TrialConfig(seed=6, trials=6, max_order=6, field_name="prime:101")
    for suite in SUITES.values():
        assert suite(cfg).passed


@pytest.mark.parametrize("field_name", ["prime:2", "prime:3", "prime:5"])
def test_suites_pass_over_small_prime_fields(field_name):
    """In characteristic 2 a symmetric hyperbolic form with a zero diagonal
    is alternating too, so the corollaries check tests the drawn kind on
    the transported form when the kind labels differ."""
    cfg = TrialConfig(seed=0, trials=8, field_name=field_name)
    for suite in SUITES.values():
        assert suite(cfg).passed, suite.name


@pytest.mark.parametrize("field_name", ["rational", "prime:101"])
def test_pull_suite_catches_base_change_along_the_inverse_unit(field_name, monkeypatch):
    """Base change along w = t^e / u (substitute_element twisting by 1/u) is
    a consistent pullback, so both routes and the laws agree on it; only
    restricting the pulled morphism back, which must give A (x) I_e, tells."""
    monkeypatch.setattr(functors, "substitute_element",
                        lambda x, e, u: x.twist(u, -1).spread(e))
    rep = verify_pullback(TrialConfig(seed=0, trials=20, field_name=field_name))
    assert not rep.passed
    assert {f["note"] for f in rep.failures} == {"restriction does not undo base change"}


def test_coverage_floor():
    rep = verify_direct_image(TrialConfig(seed=0, trials=60))
    for key in ("e>1", "r>1", "multi-branch", "unit!=1"):
        assert rep.coverage.get(key, 0) >= 1


def test_trivial_bounds_all_pass():
    cfg = TrialConfig(seed=1, trials=10, max_rank=1, max_order=1, max_branches=1)
    assert verify_direct_image(cfg).passed
    assert verify_pullback(cfg).passed
    assert verify_corollaries(cfg).passed


def test_mutations_are_detected_with_counterexamples():
    # spot-check one mutation per kind here; the full battery runs in the
    # acceptance suite
    seen = set()
    for suite, mutation, seed in MUTATIONS:
        if mutation in seen:
            continue
        seen.add(mutation)
        rep = run_mutation(suite, mutation, seed)
        assert not rep.passed
        failure = rep.failures[0]
        assert failure["suite"] == suite and failure["mutation"] == mutation
        assert failure["trial_index"] == 0 and failure["instance"]
    assert seen == {"broken-inclusion", "wrong-twist", "transposed-grading",
                    "flipped-symmetry"}


FLIPPED = [(suite, mutation, seed) for suite, mutation, seed in MUTATIONS
           if mutation == "flipped-symmetry"]


def test_flipped_symmetry_is_caught_by_the_symmetry_check(monkeypatch):
    """The mutation only corrupts the form, so with the symmetry test stubbed
    out some flipped forms must go through the suite unnoticed."""
    monkeypatch.setattr(pairing, "_symmetry_holds", lambda kind, form: True)
    assert any(run_mutation(*entry).passed for entry in FLIPPED)


def test_flipped_branch_form_is_recorded_when_the_trial_raises():
    rep = run_mutation("corollaries", "flipped-symmetry", 4001)
    failure = rep.failures[0]
    assert not rep.passed and failure["note"].startswith("raised NotAPairing")
    instance = failure["instance"]
    cols = instance["forms"][0]["columns"]
    form = [[decode_element(col[i], QQ) for col in cols] for i in range(len(cols))]
    # the recorded form is the corrupted one: flipping back restores its kind
    assert not pairing._symmetry_holds(SYMMETRIC, form)
    assert not pairing._symmetry_holds(ANTISYMMETRIC, form)
    assert pairing._symmetry_holds(instance["kind"],
                                   _flip_symmetry(form, instance["kind"], QQ)[0])


@pytest.mark.parametrize("kind", [SYMMETRIC, ANTISYMMETRIC])
def test_flip_negates_the_first_off_diagonal_entry_or_breaks_the_diagonal(kind):
    """Over Q the sign flip changes the form and keeps the kind.  Over GF(2)
    -x = x, and a form with no nonzero off-diagonal entry does not change
    either: then entry (0, 0) gets a t term, unless it has one, and the
    form is declared antisymmetric."""
    for field in (QQ, PrimeField(2)):
        one, zero = LocalElement.const(field, field.one), LocalElement.zero()
        t = LocalElement.t_power(field, 1)
        form = [[zero, zero, one], [zero, one, one], [one, one, zero]]
        copy = [row[:] for row in form]
        expected = ([[t, zero, one]] + form[1:], ANTISYMMETRIC) if field.p == 2 \
            else ([[zero, zero, -one]] + form[1:], kind)
        assert _flip_symmetry(form, kind, field) == expected
        assert form == copy  # the input is left alone
        for x, flipped in ((one, one + t), (one + t, one + t), (t, t)):
            assert _flip_symmetry([[x]], kind, field) == ([[flipped]], ANTISYMMETRIC)


@pytest.mark.parametrize("field_name", ["rational", "prime:101", "prime:2"])
def test_flipped_symmetry_fails_every_drawn_instance(field_name):
    """A form that the sign flip leaves unchanged, one with no nonzero
    off-diagonal entry or any form over GF(2), gets a t term on its
    diagonal and is declared antisymmetric, so no drawn instance is an
    equivalent mutant."""
    for seed in range(4000, 4200):
        rep = run_mutation("corollaries", "flipped-symmetry", seed, field_name)
        [(_, ok, note)] = rep.verdicts
        assert not ok or note.startswith("no "), (seed, note)


def test_degree_scenarios():
    rng = random.Random(23)
    for _ in range(25):
        pulled, oracle = degree_scenario_trial(rng)
        assert pulled == oracle


# -- closed-form line pairs --------------------------------------------------

_Z = LocalElement.zero()


def _search_exponent(field, r, c_l, g_l, kind, jumps, twists, check=check_pairing):
    """First h in -4..4 for which ``check`` accepts the line block."""
    pt = ParabolicPoint(r, [diagonal_lattice(
        field, [g + (1 if j > a else 0) for a, g in zip(jumps, twists)])
        for j in range(r + 1)])
    bundle = ParabolicBundle(len(jumps), 0, {"p": pt})
    value = _value_line_bundle(field, "p", r, c_l, g_l)
    for h in range(-4, 5):
        th = LocalElement.t_power(field, h)
        if len(jumps) == 1:
            form = [[th]]
        else:
            form = [[_Z, th], [-th if kind == ANTISYMMETRIC else th, _Z]]
        if check(ParabolicPairing(kind, form, value), bundle):
            return h
    return None


def _brute_force_line_pair(rng, field, r, c_l, g_l, kind, self_pair):
    """The search the closed form replaces: check_pairing for every h."""
    cands = list(range(r))
    rng.shuffle(cands)
    for a_v in cands:
        if self_pair:
            if kind == ANTISYMMETRIC:
                return None
            g_v = rng.randint(-1, 1)
            h = _search_exponent(field, r, c_l, g_l, SYMMETRIC, [a_v], [g_v])
            if h is not None:
                return [a_v], [g_v], h
        else:
            g_v, g_w = rng.randint(-1, 1), rng.randint(-1, 1)
            for a_w in range(r):
                h = _search_exponent(field, r, c_l, g_l, kind, [a_v, a_w], [g_v, g_w])
                if h is not None:
                    return [a_v, a_w], [g_v, g_w], h
    return None


def _closed_form_exponent(line_pair, r, c_l, g_l, jumps, twists):
    """The exponent ``line_pair`` gives for the block of these lines (one
    line: a self-pair), or None when the last jump is not its partner or
    the exponent lies outside -4..4."""
    partner, h = line_pair(r, c_l, g_l, jumps[0], twists[0], twists[-1])
    return h if partner == jumps[-1] and -4 <= h <= 4 else None


def _grid_cases():
    """(r, c_l, g_l, kind, jumps, twists) of every self-pair and pair of
    lines with r <= 3 and all exponents in {-1, 0, 1}."""
    for r in range(1, 4):
        for c_l in range(r):
            for g_l in (-1, 0, 1):
                for a_v in range(r):
                    for g_v in (-1, 0, 1):
                        yield r, c_l, g_l, SYMMETRIC, [a_v], [g_v]
                        for a_w in range(r):
                            for g_w in (-1, 0, 1):
                                for kind in (SYMMETRIC, ANTISYMMETRIC):
                                    yield r, c_l, g_l, kind, [a_v, a_w], [g_v, g_w]


@TWO_FIELDS
def test_line_pair_matches_search_on_grid(field):
    """The closed form against the first h that check_pairing accepts and,
    for the symmetric blocks, the first h that the definition accepts
    (``jetspace.perfect``: F^T * E^a against t^(1+g) * (E^b)^*)."""
    found = set()
    for r, c_l, g_l, kind, jumps, twists in _grid_cases():
        h = _closed_form_exponent(_line_pair, r, c_l, g_l, jumps, twists)
        assert h == _search_exponent(field, r, c_l, g_l, kind, jumps, twists)
        if kind == SYMMETRIC:
            assert h == _search_exponent(field, r, c_l, g_l, kind, jumps, twists,
                                         perfect)
        found.add((len(jumps), h is not None))
    assert found == {(1, True), (1, False), (2, True), (2, False)}


# planted off-by-one in a closed form -> (module, function name, source edit)
CLOSED_FORM_FAULTS = {
    "entry-bound": (pairing, "check_pairing", ("3 * r + c - 2", "3 * r + c - 1")),
    "entry-floor": (pairing, "check_pairing", ("(m < r - 1)", "(m < r - 2)")),
    "jump-symmetry": (pairing, "check_pairing", ("(c - 1 - j) % r", "(c - j) % r")),
    "top-exponent": (pairing, "check_pairing", ("(c > jumps[k])", "(c >= jumps[k])")),
    "partner-jump": (harness, "_line_pair", ("(c_l - 1 - a_v) % r", "(c_l - a_v) % r")),
    "pair-exponent": (harness, "_line_pair", ("(a_v + a_w < c_l)", "(a_v + a_w <= c_l)")),
}


@pytest.mark.parametrize("fault", sorted(CLOSED_FORM_FAULTS))
def test_each_closed_form_off_by_one_is_caught(fault):
    """Each off-by-one planted in the closed form of check_pairing or of
    _line_pair makes the two disagree on the grid of line blocks."""
    module, name, edit = CLOSED_FORM_FAULTS[fault]
    broken = planted(getattr(module, name), edit)
    line_pair = broken if name == "_line_pair" else _line_pair
    check = broken if name == "check_pairing" else check_pairing
    assert any(_closed_form_exponent(line_pair, r, c_l, g_l, jumps, twists)
               != _search_exponent(QQ, r, c_l, g_l, kind, jumps, twists, check)
               for r, c_l, g_l, kind, jumps, twists in _grid_cases())


@TWO_FIELDS
def test_find_line_pair_matches_brute_force_and_rng_stream(field):
    outcomes = set()
    for seed in range(40):
        for r in range(1, 5):
            for kind in (SYMMETRIC, ANTISYMMETRIC):
                for self_pair in (False, True):
                    args = (r, seed % r, seed % 3 - 1, kind, self_pair)
                    rng_a, rng_b = random.Random(seed), random.Random(seed)
                    got = _find_line_pair(rng_a, field, *args)
                    want = _brute_force_line_pair(rng_b, field, *args)
                    assert rng_a.getstate() == rng_b.getstate()
                    if want is None:
                        assert got is None
                    else:
                        jumps, twists, h = want
                        th = LocalElement.t_power(field, h)
                        assert got[:2] == (jumps, twists)
                        assert got[2][0][-1] == th
                    outcomes.add(want is None)
    assert outcomes == {True, False}

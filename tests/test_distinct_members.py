"""Each distinct chain member is built once: equality with the per-member
reference code and call counts.

A chain of order r has r+1 members but at most n+1 distinct ones.  The
direct image, the chain checks and scenario decoding compute each distinct
member once; the generators and the pullback build points with
``ParabolicPoint.from_lines``, which canonicalizes E^0 alone.  The
reference functions below, and ``conftest.ref_from_lines``, are the
per-member versions they replaced and must give the same results.
"""

import json
import random

import pytest

from parstack import (ANTISYMMETRIC, QQ, SYMMETRIC, GradedModule, InvalidChain,
                      InvalidGrading, Lattice, ParabolicPoint, ParseError, from_parabolic,
                      is_graded_morphism, is_point_morphism, pullback_graded,
                      pullback_parabolic, pushforward_graded,
                      pushforward_parabolic, to_parabolic)
from parstack import functors, lattice, parabolic
from parstack import scenario as sio
from parstack.functors import (direct_sum, make_profile, restrict_scalars,
                               substitute_element, substitute_matrix)
from parstack.linalg import mat_vec
from parstack.localring import LocalElement
from parstack.harness import (_find_line_pair, gen_pairing_point,
                              gen_parabolic_point, gen_point_morphism,
                              gen_profile, gen_unimodular, mix_lines)
from parstack.parabolic import split_into_lines

from conftest import (TWO_FIELDS, diagonal_lattice, graded_line, random_element, ref_from_lines,
                      trivial_module)


# -- per-member reference code ----------------------------------------------


def ref_gen_parabolic_point(rng, n, r, field):
    jumps = [rng.randint(0, r - 1) for _ in range(n)]
    exps = [rng.randint(-2, 2) for _ in range(n)]
    lifts, _ = gen_unimodular(rng, field, n)
    return ref_from_lines(field, r, lifts, exps, jumps)


def ref_gen_pairing_chain(rng, field, r, c_l, g_l, kind, blocks):
    jumps, exps = [], []
    for _ in range(blocks):
        self_pair = kind == SYMMETRIC and rng.random() < 0.3
        found = _find_line_pair(rng, field, r, c_l, g_l, kind, self_pair)
        if found is None:
            found = _find_line_pair(rng, field, r, c_l, g_l, kind, False)
        if found is None:
            return None
        jumps.extend(found[0])
        exps.extend(found[1])
    lifts, _ = gen_unimodular(rng, field, len(jumps))
    return ref_from_lines(field, r, lifts, exps, jumps)


def ref_pushforward_parabolic(profile, branches):
    s = profile.target_order
    chain = []
    for a in range(s):
        parts = []
        for br, pt in zip(profile.branches, branches):
            l, k = divmod(a, br.r)
            parts.append(restrict_scalars(pt.chain[k].scale(l), br.e, br.unit))
        chain.append(direct_sum(parts))
    chain.append(chain[0].scale(1))
    return tuple(chain)


def ref_pushforward_graded(profile, branches):
    pieces = []
    for m in range(profile.target_order):
        parts = []
        for br, mod in zip(profile.branches, branches):
            l, k = divmod(m, br.r)
            parts.append(restrict_scalars(mod.pieces[k].scale(-l), br.e, br.unit))
        pieces.append(direct_sum(parts))
    return tuple(pieces)


def _ref_substitute(lattices, u):
    return tuple(Lattice.from_columns(lat.field, lat.n,
                                      [[substitute_element(x, 1, u) for x in col]
                                       for col in lat.cols])
                 for lat in lattices)


def ref_pullback_parabolic(profile, point, label, rng=None):
    br = profile.branch(label)
    e, r = br.e, br.r
    if e == 1:
        return point.chain if br.unit == 1 else _ref_substitute(point.chain, br.unit)
    jumps, lifts = split_into_lines(point)
    if rng is not None:
        lifts = mix_lines(point, (jumps, lifts), rng)
    lifts_x = substitute_matrix(lifts, e, br.unit)
    chain = []
    for j in range(r):
        gens = []
        for b, c in enumerate(jumps):
            exp = -(c // r) + (1 if j > c % r else 0)
            gens.append([x.shift(exp) for x in lifts_x[b]])
        chain.append(Lattice.from_columns(point.field, point.n, gens))
    chain.append(chain[0].scale(1))
    return tuple(chain)


def ref_pullback_graded(profile, module, label, rng=None):
    """The graded pullback through the line splitting of to_parabolic(module),
    as it was computed before the base-change formula replaced it."""
    br = profile.branch(label)
    e, r = br.e, br.r
    if e == 1:
        return module.pieces if br.unit == 1 else _ref_substitute(module.pieces, br.unit)
    point = to_parabolic(module)
    jumps, lifts = split_into_lines(point)
    if rng is not None:
        lifts = mix_lines(point, (jumps, lifts), rng)
    lifts_x = substitute_matrix(lifts, e, br.unit)
    pieces = []
    for k in range(r):
        gens = []
        for b, c in enumerate(jumps):
            twist, jump = c // r, c % r
            exp = -twist - (1 if jump >= 1 and k >= r - jump else 0)
            gens.append([x.shift(exp) for x in lifts_x[b]])
        pieces.append(Lattice.from_columns(module.field, module.n, gens))
    return tuple(pieces)


def ref_is_morphism(rows, src_members, dst_members):
    return all(tgt.member(mat_vec(rows, col)) for lat, tgt in zip(src_members, dst_members)
               for col in lat.cols)


def ref_weights(point):
    out = []
    for a in range(point.order):
        big, small = point.chain[a], point.chain[a + 1]
        assert big.contains(small)
        mult = small.det_valuation() - big.det_valuation()
        if mult:
            out.append((a, mult))
    return out


# -- equality with the reference --------------------------------------------


@TWO_FIELDS
def test_generators_match_per_member_reference(field):
    rng = random.Random(101)
    for _ in range(20):
        n, r = rng.randint(1, 3), rng.randint(1, 12)
        seed = rng.getrandbits(32)
        a, b = random.Random(seed), random.Random(seed)
        assert gen_parabolic_point(a, n, r, field).chain == \
            ref_gen_parabolic_point(b, n, r, field)
        assert a.getstate() == b.getstate()
    for _ in range(20):
        r, kind = rng.randint(1, 6), rng.choice([SYMMETRIC, ANTISYMMETRIC])
        c_l, g_l, blocks = rng.randint(0, r - 1), rng.randint(-1, 1), rng.randint(1, 2)
        seed = rng.getrandbits(32)
        a, b = random.Random(seed), random.Random(seed)
        made = gen_pairing_point(a, field, r, c_l, g_l, kind, blocks, "y")
        ref = ref_gen_pairing_chain(b, field, r, c_l, g_l, kind, blocks)
        assert (made is None) == (ref is None)
        if made is not None:
            assert made[0].chain == ref
        assert a.getstate() == b.getstate()


@TWO_FIELDS
def test_direct_image_matches_per_member_reference(field):
    rng = random.Random(103)
    for _ in range(12):
        s = rng.randint(1, 8)
        profile, ranks = gen_profile(rng, s, 2, field, rank_bound=6, max_rank=3)
        pts = [gen_parabolic_point(rng, n, br.r, field)
               for br, n in zip(profile.branches, ranks)]
        mods = [from_parabolic(p) for p in pts]
        assert pushforward_parabolic(profile, pts).chain == \
            ref_pushforward_parabolic(profile, pts)
        assert pushforward_graded(profile, mods).pieces == \
            ref_pushforward_graded(profile, mods)


@TWO_FIELDS
def test_pullback_matches_per_member_reference(field):
    rng = random.Random(107)
    kinds = set()  # (unramified, unit 1) of each case
    for i in range(16):
        s = rng.randint(1, 8)
        e = rng.choice([d for d in range(1, s + 1) if s % d == 0])
        unit = field.one if i % 3 == 0 else field.random_nonzero(rng)
        kinds.add((e == 1, unit == field.one))
        profile = make_profile(s, [("x", e, s // e, unit)])
        pt = gen_parabolic_point(rng, rng.randint(1, 3), s, field)
        mod = from_parabolic(pt)
        seed = rng.getrandbits(32)
        assert pullback_parabolic(profile, pt, "x").chain == \
            ref_pullback_parabolic(profile, pt, "x")
        jumps, lifts = split_into_lines(pt)
        mixed = mix_lines(pt, (jumps, lifts), random.Random(seed))
        assert pullback_parabolic(profile, pt, "x", lines=(jumps, mixed)).chain == \
            ref_pullback_parabolic(profile, pt, "x", rng=random.Random(seed))
        assert pullback_graded(profile, mod, "x").pieces == \
            ref_pullback_graded(profile, mod, "x")
    assert len(kinds) == 4


@TWO_FIELDS
def test_chain_checks_match_per_member_reference(field):
    """Generated morphisms, their t^{-1} twists, and random matrices with
    their t and t^2 twists, between points of equal and of unequal rank."""
    rng = random.Random(109)
    verdicts = set()
    for k in range(24):
        n, r = rng.randint(1, 3), rng.randint(1, 8)
        n_dst = n if k % 2 else rng.choice([m for m in (1, 2, 3) if m != n])
        src = gen_parabolic_point(rng, n, r, field)
        dst = gen_parabolic_point(rng, n_dst, r, field)
        assert [(w.numerator * r // w.denominator, m) for w, m in src.weights()] == \
            ref_weights(src)
        good = gen_point_morphism(rng, src, dst)
        rand = [[random_element(rng, field) for _ in range(n)] for _ in range(n_dst)]
        # t^{-1} * good is a morphism only for some chains; the reference decides
        cases = [good, [[x.shift(-1) for x in row] for row in good]] + \
            [[[x.shift(d) for x in row] for row in rand] for d in (0, 1, 2)]
        gsrc, gdst = from_parabolic(src), from_parabolic(dst)
        for rows in cases:
            verdict = is_point_morphism(rows, src, dst)
            assert verdict == ref_is_morphism(rows, src.chain[:r], dst.chain[:r])
            assert is_graded_morphism(rows, gsrc, gdst) == \
                ref_is_morphism(rows, gsrc.pieces, gdst.pieces)
            verdicts.add((n == n_dst, verdict))
    assert len(verdicts) == 4


def test_unequal_neighbours_are_still_checked():
    top = diagonal_lattice(QQ, [0, 0])
    mid = diagonal_lattice(QQ, [1, 0])
    bad = diagonal_lattice(QQ, [0, 1]).scale(-1)  # not inside mid
    ParabolicPoint(4, [top, top, mid, mid, top.scale(1)])
    with pytest.raises(InvalidChain):
        ParabolicPoint(4, [top, top, mid, bad, top.scale(1)])
    GradedModule(4, [top, top, mid.scale(-1), mid.scale(-1)])
    with pytest.raises(InvalidGrading):
        GradedModule(4, [top, top, mid.scale(-1), top])
    # a stage repeating only one side of the previous pair is still tested
    one = [[LocalElement.const(QQ, QQ.one)]]
    assert not is_point_morphism(one, ParabolicPoint.line(QQ, 2, 1),
                                 ParabolicPoint.line(QQ, 2, 0))
    assert not is_graded_morphism(one, graded_line(QQ, 2, 1),
                                  trivial_module(QQ, 1, order=2))


# -- call counts ------------------------------------------------------------


def _count(monkeypatch, owner, name):
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@TWO_FIELDS
def test_generator_canonicalizes_once_per_point(field, monkeypatch):
    """from_lines canonicalizes E^0 only, and reads every other member off
    its fibre flag: one from_columns and one _canonicalize per point."""
    calls = _count(monkeypatch, Lattice, "from_columns")
    canon = _count(monkeypatch, lattice, "_canonicalize")
    rng = random.Random(113)
    flags = 0
    for n in (1, 2, 3):
        for _ in range(5):
            del calls[:], canon[:]
            pt = gen_parabolic_point(rng, n, 12, field)
            assert len(calls) == 1 and len(canon) <= 1  # E^0 may be canonical as drawn
            assert len(set(pt.chain)) <= n + 1
            flags += len(set(pt.chain)) > 2  # a member strictly between E^0 and t * E^0
    assert flags


@TWO_FIELDS
def test_point_morphism_test_back_substitutes_once_per_source_line(field, monkeypatch):
    """is_point_morphism solves against the target's lifts once per lift of
    the source, at every order; it runs no member test."""
    rng = random.Random(149)
    subs = _count(monkeypatch, parabolic, "back_substitute")
    solves = _count(monkeypatch, Lattice, "solve")
    for r in range(1, 13):
        src = gen_parabolic_point(rng, rng.randint(1, 3), r, field)
        dst = gen_parabolic_point(rng, rng.randint(1, 3), r, field)
        rows = gen_point_morphism(rng, src, dst)
        del subs[:], solves[:]
        assert is_point_morphism(rows, src, dst)
        assert len(subs) == src.n and not solves


@TWO_FIELDS
def test_index_maps_scale_once_per_run_of_equal_members(field, monkeypatch):
    rng = random.Random(139)
    cases = [gen_parabolic_point(rng, rng.randint(1, 3), rng.randint(1, 12), field)
             for _ in range(12)]
    calls = _count(monkeypatch, Lattice, "scale")
    repeated = 0
    for pt in cases:
        del calls[:]
        mod = from_parabolic(pt)
        # M_k = t^{-1} E^{r-k} for 0 < k < r; equal members are neighbours
        assert len(calls) == len(set(pt.chain[1:pt.order]))
        del calls[:]
        assert to_parabolic(mod) == pt
        # E^j = t * M_{s-j} for 0 < j <= s, with M_s = M_0
        assert len(calls) == len(set(mod.pieces))
        repeated += len(set(mod.pieces)) < mod.order
    assert repeated


def _one_restriction_per_distinct_member(calls, profile, members):
    """Exactly one restrict_scalars call per distinct branch member over
    each branch with (e, u) != (1, 1), at most one over the others."""
    def identity(e, u):
        return e == 1 and u == 1

    def distinct(moving):
        return sum(len(set(ms)) for br, ms in zip(profile.branches, members)
                   if identity(br.e, br.unit) != moving)

    moving = [args for args in calls if not identity(*args[1:])]
    assert len(moving) == distinct(True)
    assert len(calls) - len(moving) <= distinct(False)


@TWO_FIELDS
def test_direct_image_restricts_once_per_distinct_member(field, monkeypatch):
    calls = _count(monkeypatch, functors, "restrict_scalars")
    rng = random.Random(127)
    moved = 0
    for _ in range(12):
        s = rng.randint(2, 12)
        profile, ranks = gen_profile(rng, s, 2, field, rank_bound=8, max_rank=3)
        pts = [gen_parabolic_point(rng, n, br.r, field)
               for br, n in zip(profile.branches, ranks)]
        mods = [from_parabolic(p) for p in pts]
        del calls[:]
        pushforward_parabolic(profile, pts)
        _one_restriction_per_distinct_member(
            calls, profile, [pt.chain[:br.r] for br, pt in zip(profile.branches, pts)])
        del calls[:]
        pushforward_graded(profile, mods)
        _one_restriction_per_distinct_member(calls, profile, [mod.pieces for mod in mods])
        moved += sum(br.e != 1 or br.unit != 1 for br in profile.branches)
    assert moved


@TWO_FIELDS
def test_pullback_once_per_point_decoding_once_per_member(field, monkeypatch):
    rng = random.Random(131)
    cases = []
    for i in range(12):
        s = rng.randint(2, 12)
        e = rng.choice([d for d in range(1, s + 1) if s % d == 0])
        unit = field.one if i % 4 == 0 else field.random_nonzero(rng)
        cases.append((make_profile(s, [("x", e, s // e, unit)]),
                      gen_parabolic_point(rng, rng.randint(1, 3), s, field)))
    calls = _count(monkeypatch, Lattice, "from_columns")
    solves = _count(monkeypatch, Lattice, "solve")
    for profile, pt in cases:
        del calls[:], solves[:]
        lines = split_into_lines(pt)
        # the splitting reads the members' canonical forms
        assert len(calls) == 0 and len(solves) == 0
        del calls[:]
        pulled = pullback_parabolic(profile, pt, "x", lines=lines)
        # the identity chart returns the point itself and builds nothing;
        # any other chart canonicalizes the pulled E^0 only (from_lines)
        assert len(calls) == (0 if pulled is pt else 1)
        del calls[:]
        pullback_graded(profile, from_parabolic(pt), "x")
        assert len(calls) <= pt.n + 1
        del calls[:]
        assert sio.decode_point(sio.encode_point(pt, field), field, pt.n) == pt
        assert len(calls) == len(set(pt.chain))
        mod = from_parabolic(pt)
        del calls[:]
        assert sio.decode_module(sio.encode_module(mod, field), field, mod.n) == mod
        assert len(calls) == len(set(mod.pieces))


def _element_keys(members):
    return {(e["t_order"], *e["coeffs"]) for m in members for col in m["columns"]
            for e in col}


@TWO_FIELDS
def test_decoding_parses_each_distinct_element_once(field, monkeypatch):
    rng = random.Random(137)
    cases = [gen_parabolic_point(rng, rng.randint(1, 4), rng.randint(1, 10), field)
             for _ in range(10)]
    calls = _count(monkeypatch, sio, "decode_element")
    for pt in cases:
        mod = from_parabolic(pt)
        # through text, so that no two entries are one object
        point = json.loads(sio.dumps(sio.encode_point(pt, field)))
        module = json.loads(sio.dumps(sio.encode_module(mod, field)))
        del calls[:]
        assert sio.decode_point(point, field, pt.n) == pt
        assert len(calls) == len(_element_keys(point["chain"]))
        del calls[:]
        assert sio.decode_module(module, field, mod.n) == mod
        assert len(calls) == len(_element_keys(module["pieces"]))


def _module_doc(last):
    """A rank-2 module of order 1 whose one piece has the columns
    [1, t] and [1, last], the first 1 written as "1", the second as 1."""
    return {"order": 1, "pieces": [{"columns": [
        [{"t_order": 0, "coeffs": ["1"]}, {"t_order": 1, "coeffs": ["1"]}],
        [{"t_order": 0, "coeffs": [1]}, last]]}]}


@TWO_FIELDS
@pytest.mark.parametrize("last,message", [
    ({"t_order": True, "coeffs": ["1"]},
     "bad element {'t_order': True, 'coeffs': ['1']}: "
     "needs an integer t_order and a coeffs list"),
    ({"t_order": 0, "coeffs": [True]},
     "bad element {'t_order': 0, 'coeffs': [True]}: True is not an element of %s"),
], ids=["bool-t-order", "bool-coeff"])
def test_decoding_memo_never_equates_bools_with_ints(field, last, message):
    with pytest.raises(ParseError) as exc:
        sio.decode_module(_module_doc(last), field, 2)
    assert str(exc.value) == message.replace("%s", field.name)


@TWO_FIELDS
def test_int_and_text_coefficients_decode_alike(field):
    # [1, t] and [1, 1 - t] span R^2, however each 1 is written
    minus = {"t_order": 0, "coeffs": [1, -1]}
    assert sio.decode_module(_module_doc(minus), field, 2) \
        == sio.decode_module(_module_doc(dict(minus, coeffs=["1", "-1"])), field, 2) \
        == trivial_module(field, 2, order=1)

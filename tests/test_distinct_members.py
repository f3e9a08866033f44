"""Each distinct chain member is built once: call counts.

A chain of order r has r+1 members but at most n+1 distinct ones.  The
direct image, the chain checks and scenario decoding compute each distinct
member once; the generators and the pullback build points with
``ParabolicPoint.from_lines``, which canonicalizes E^0 alone.  These tests
pin that work, and that unequal neighbours are still checked, not
results: the results are checked against the jet-space
oracle in tests/test_jetspace.py, and the generators' draws are pinned by
tests/test_harness.py::test_generator_draws_are_pinned.
"""

import json
import random

import pytest

from parstack import (QQ, GradedModule, InvalidChain, InvalidGrading, Lattice, ParabolicPoint,
                      ParseError, from_parabolic, is_graded_morphism, is_point_morphism,
                      pullback_graded, pullback_parabolic, pushforward_graded,
                      pushforward_parabolic, to_parabolic)
from parstack import functors, lattice, parabolic
from parstack import scenario as sio
from parstack.functors import make_profile
from parstack.localring import LocalElement
from parstack.harness import gen_parabolic_point, gen_point_morphism, gen_profile
from parstack.parabolic import split_into_lines

from conftest import TWO_FIELDS, diagonal_lattice, graded_line, trivial_module


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

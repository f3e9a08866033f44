"""The graded route is computed without the line splitting.

The pull suite compares the parabolic pullback (adapted-basis line
splitting) with the graded pullback (base change of the root-stack
module).  That comparison can only catch a fault in the splitting if the
graded route does not run it; these tests pin that.  The splitting is
called only by the parabolic pullback, the two chain checks in line
coordinates and the harness, never by the root stack or the graded
functors.
"""

import random
import sys

import pytest

from parstack import (TrialConfig, from_parabolic, pullback_graded,
                      pullback_parabolic, to_parabolic, verify_pullback)
from parstack import parabolic
from parstack.functors import make_profile
from parstack.harness import gen_parabolic_point
from parstack.linalg import transpose

from conftest import TWO_FIELDS, callers_of

SPLITTING_CALLERS = {
    ("functors.py", "pullback_parabolic"), ("parabolic.py", "is_point_morphism"),
    ("pairing.py", "check_pairing"), ("harness.py", "gen_point_morphism"),
    ("harness.py", "_draw_pullback"), ("harness.py", "_check_pullback")}


def test_only_the_parabolic_side_calls_the_splitting():
    calls = {(m, fn) for m, fn, _ in callers_of("split_into_lines")}
    assert calls == SPLITTING_CALLERS


def _replace_everywhere(monkeypatch, original, replacement):
    """Rebind every parstack module global that names ``original``."""
    bound = 0
    for name, mod in list(sys.modules.items()):
        if name != "parstack" and not name.startswith("parstack."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, replacement)
                bound += 1
    assert bound


@TWO_FIELDS
def test_graded_pullback_runs_without_the_splitting(field, monkeypatch):
    rng = random.Random(137)
    cases = []
    for i in range(20):
        s = rng.randint(1, 12)
        e = rng.choice([d for d in range(1, s + 1) if s % d == 0])
        unit = field.one if i % 3 == 0 else field.random_nonzero(rng)
        profile = make_profile(s, [("x", e, s // e, unit)])
        pt = gen_parabolic_point(rng, rng.randint(1, 3), s, field)
        cases.append((profile, pt, pullback_parabolic(profile, pt, "x")))

    def refuse(*args, **kwargs):
        raise RuntimeError("split_into_lines called")

    _replace_everywhere(monkeypatch, parabolic.split_into_lines, refuse)
    for profile, pt, expected in cases:
        assert to_parabolic(pullback_graded(profile, from_parabolic(pt), "x")) == expected


def _transposed_lift():
    """split_into_lines with its change of basis transposed."""
    split = parabolic.split_into_lines

    def transposed(point):
        jumps, lifts = split(point)
        return jumps, transpose(lifts)
    return transposed


@TWO_FIELDS
def test_planted_splitting_fault_reaches_the_unramified_pullback(field, monkeypatch):
    """At e = 1 with a unit other than 1 the parabolic pullback splits too."""
    rng = random.Random(139)
    cases = []
    for _ in range(10):
        s = rng.randint(1, 8)
        profile = make_profile(s, [("x", 1, s, field.of(rng.choice([-1, 2, 3])))])
        pt = gen_parabolic_point(rng, rng.randint(2, 3), s, field)
        cases.append((profile, pt, pullback_parabolic(profile, pt, "x")))
    _replace_everywhere(monkeypatch, parabolic.split_into_lines, _transposed_lift())
    assert any(pullback_parabolic(profile, pt, "x") != expected
               for profile, pt, expected in cases)


@pytest.mark.parametrize("field_name", ["rational", "prime:101"])
def test_planted_splitting_fault_is_a_pipeline_mismatch(field_name, monkeypatch):
    _replace_everywhere(monkeypatch, parabolic.split_into_lines, _transposed_lift())
    report = verify_pullback(TrialConfig(seed=0, trials=60, field_name=field_name))
    assert any(note == "pipeline mismatch" for _, _, note in report.verdicts)

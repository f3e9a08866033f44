"""One component kernel, and the work of the restriction's component guard.

The e components of an element over a ramified branch are read by
``functors.decompose_component``, one call of ``LocalElement.component``
(a decimation and the twist by u^{-q} in one pass and one reduction).
``functors._restrict_columns`` calls it for restriction of scalars of
lattices and of maps, and for the residue push of pairings
(``restrict_matrix`` of the form): all of them go through that one
kernel.  The only other caller is ``functors.restrict_scalars``, whose
component guard reads the pivot component of each distinct pivot
exponent at each step, once, and compares it as it comes with the claimed
pivot u^{-q} * w^q, which is built without the kernel.
"""

import random
import sys
from collections import Counter

import pytest

from parstack import QQ, LocalElement, restrict_scalars
from parstack import functors
from parstack.lattice import direct_sum

from conftest import GF101, callers_of, diagonal_lattice, lat, random_columns

ALLOWED = {
    ("functors.py", "_restrict_columns"): "the kernel of every restriction",
    ("functors.py", "restrict_scalars"):
        "the component check reads the pivot component of each exponent",
}


def test_only_the_allowed_functions_call_the_component_kernel():
    calls = callers_of("decompose_component")
    stray = sorted("%s:%d in %s" % (m, line, fn) for m, fn, line in calls
                   if (m, fn) not in ALLOWED)
    assert not stray, "decompose_component called outside %s: %s" % (sorted(ALLOWED), stray)
    assert {(m, fn) for m, fn, _ in calls} == set(ALLOWED)


@pytest.mark.parametrize("field,units", [(QQ, [QQ.one, QQ.of(2), QQ.of("-2/3")]),
                                         (GF101, [1, 2, 100])], ids=["Q", "GF101"])
def test_the_component_guard_reads_each_pivot_component_once(field, units, monkeypatch):
    """For e from 1 to 4, the guard of restrict_scalars calls
    decompose_component exactly once per (distinct pivot exponent, step):
    e calls on t^a for each distinct exponent a, and none at e = 1 with
    u = 1, where the restriction is the identity.  No component it reads
    is twisted afterwards: the guard compares it with the claimed pivot,
    not its twist by u with t^q."""
    guard = []
    kernel = functors.decompose_component

    def counted(x, e, u, rho):
        out = kernel(x, e, u, rho)
        if sys._getframe(1).f_code.co_name == "restrict_scalars":
            guard.append((x.ord, out))
        return out

    twisted = []
    twist = LocalElement.twist
    monkeypatch.setattr(functors, "decompose_component", counted)
    monkeypatch.setattr(LocalElement, "twist",
                        lambda self, u, sign=1: twisted.append(self) or twist(self, u, sign))
    rng = random.Random(251)
    lattices = [diagonal_lattice(field, [0, 3, 3, -1, 0]), diagonal_lattice(field, [2])]
    for n in (1, 2, 3):
        mixed = lat(random_columns(rng, n, field), field)
        lattices += [mixed, direct_sum([diagonal_lattice(field, [1, 1]), mixed])]
    for e in range(1, 5):
        for u in units:
            for lattice in lattices:
                del guard[:], twisted[:]
                restrict_scalars(lattice, e, u)
                steps = 0 if e == 1 and u == 1 else e
                assert Counter(a for a, _ in guard) == {a: steps for a in lattice.diag if steps}
                assert not any(y is out for _, out in guard for y in twisted)

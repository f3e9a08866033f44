"""One component kernel.

The e components of an element over a ramified branch are read by
``functors.decompose_component``, and only ``functors._restrict_columns``
calls it: restriction of scalars of lattices and of maps, and the residue
push of pairings (``restrict_matrix`` of the form), all go through that one
kernel.
"""

from conftest import callers_of

ALLOWED = {("functors.py", "_restrict_columns")}


def test_only_restrict_columns_calls_the_component_kernel():
    calls = callers_of("decompose_component")
    stray = sorted("%s:%d in %s" % (m, line, fn) for m, fn, line in calls
                   if (m, fn) not in ALLOWED)
    assert not stray, "decompose_component called outside _restrict_columns: %s" % stray
    assert {(m, fn) for m, fn, _ in calls} == ALLOWED

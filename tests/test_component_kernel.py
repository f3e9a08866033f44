"""One component kernel.

The e components of an element over a ramified branch are read by
``functors.decompose_component``.  ``functors._restrict_columns`` calls it
for restriction of scalars of lattices and of maps, and for the residue
push of pairings (``restrict_matrix`` of the form): all of them go through
that one kernel.  The only other caller is ``functors.restrict_scalars``,
whose component check reads the pivot component of each distinct pivot
exponent.
"""

from conftest import callers_of

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

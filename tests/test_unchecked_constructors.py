"""Only the index maps skip validation.

``ParabolicPoint._unchecked`` and ``GradedModule._unchecked`` build an
object without its containment tests.  The index maps of rootstack may
use them, because they carry a valid object to a valid one (the proof is
in the rootstack docstring).  Every other construction in src/parstack
goes through the checked constructors.

The trusted ``Lattice(...)`` constructor wraps a stored form (pivot
exponents and the entries above the pivots) as canonical without a check.  Only lattice.py calls it, and there only on the
routes its module docstring lists (``from_columns``, ``from_canonical``,
``scale``, ``direct_sum``) and on the verified output of
``_canonicalize``.  ``Lattice`` has exactly two classmethod constructors,
``from_columns`` and ``from_canonical``.  The bases that
``lattice.back_substitute`` accepts need not be canonical, so they are
never wrapped as a Lattice.
"""

import ast

from conftest import package_trees

ALLOWED = {("rootstack.py", "to_parabolic"), ("rootstack.py", "from_parabolic")}
TRUSTED_ROUTES = {"from_columns", "from_canonical", "scale", "direct_sum", "_canonicalize"}


def _calls(tree, matches):
    """(enclosing function, line) of every call for which ``matches`` holds."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else fn
            if isinstance(child, ast.Call) and matches(child):
                found.append((fn, child.lineno))
            visit(child, inner)

    visit(tree, None)
    return found


def _is_unchecked(call):
    return isinstance(call.func, ast.Attribute) and call.func.attr == "_unchecked"


def _is_trusted_lattice(call):
    """A call of ``Lattice(...)`` or with a ``_trusted`` keyword."""
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    return name == "Lattice" or any(k.arg == "_trusted" for k in call.keywords)


def test_only_the_index_maps_build_unchecked_objects():
    calls = set()
    for module, tree in package_trees().items():
        calls.update((module, fn, line) for fn, line in _calls(tree, _is_unchecked))
    stray = sorted("%s:%d in %s" % (m, line, fn) for m, fn, line in calls
                   if (m, fn) not in ALLOWED)
    assert not stray, "unchecked constructions outside the index maps: %s" % stray
    assert {(m, fn) for m, fn, _ in calls} == ALLOWED


def test_only_lattice_calls_the_trusted_lattice_constructor():
    found = {module: _calls(tree, _is_trusted_lattice)
             for module, tree in package_trees().items()}
    assert found.pop("lattice.py")
    stray = sorted("%s:%d" % (m, line) for m, calls in found.items() for _, line in calls)
    assert not stray, "trusted Lattice constructions outside lattice.py: %s" % stray


def test_lattice_wraps_trusted_columns_only_on_the_listed_routes():
    tree = package_trees()["lattice.py"]
    calls = _calls(tree, _is_trusted_lattice)
    stray = sorted("line %d in %s" % (line, fn) for fn, line in calls
                   if fn not in TRUSTED_ROUTES)
    assert not stray, "trusted Lattice constructions off the listed routes: %s" % stray
    assert {fn for fn, _ in calls} == TRUSTED_ROUTES


def test_lattice_has_exactly_two_classmethod_constructors():
    tree = package_trees()["lattice.py"]
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Lattice")
    classmethods = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)
                    and any(getattr(d, "id", None) == "classmethod"
                            for d in node.decorator_list)}
    assert classmethods == {"from_columns", "from_canonical"}

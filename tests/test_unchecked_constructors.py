"""Only the index maps skip validation.

``ParabolicPoint._unchecked`` and ``GradedModule._unchecked`` build an
object without its containment tests.  The index maps of rootstack may
use them, because they carry a valid object to a valid one (the proof is
in the rootstack docstring).  Every other construction in src/parstack
goes through the checked constructors.

The trusted ``Lattice(...)`` constructor wraps columns as a canonical
form without a check, and only lattice.py calls it.  The bases that
``lattice.back_substitute`` accepts need not be canonical, so they are
never wrapped as a Lattice.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "parstack")
ALLOWED = {("rootstack.py", "to_parabolic"), ("rootstack.py", "from_parabolic")}


def _callers(tree):
    """(enclosing function, line) of every call of an ``_unchecked`` attribute."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else fn
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                    and child.func.attr == "_unchecked":
                found.append((fn, child.lineno))
            visit(child, inner)

    visit(tree, None)
    return found


def _modules():
    for module in sorted(os.listdir(PACKAGE)):
        if module.endswith(".py"):
            with open(os.path.join(PACKAGE, module)) as fh:
                yield module, ast.parse(fh.read(), module)


def test_only_the_index_maps_build_unchecked_objects():
    calls = set()
    for module, tree in _modules():
        calls.update((module, fn, line) for fn, line in _callers(tree))
    stray = sorted("%s:%d in %s" % (m, line, fn) for m, fn, line in calls
                   if (m, fn) not in ALLOWED)
    assert not stray, "unchecked constructions outside the index maps: %s" % stray
    assert {(m, fn) for m, fn, _ in calls} == ALLOWED


def _trusted_lattice_calls(tree):
    """Lines of the calls of ``Lattice(...)`` or with a ``_trusted`` keyword."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "Lattice" or any(k.arg == "_trusted" for k in node.keywords):
                lines.append(node.lineno)
    return lines


def test_only_lattice_calls_the_trusted_lattice_constructor():
    found = {module: _trusted_lattice_calls(tree) for module, tree in _modules()}
    assert found.pop("lattice.py")
    stray = sorted("%s:%d" % (m, line) for m, lines in found.items() for line in lines)
    assert not stray, "trusted Lattice constructions outside lattice.py: %s" % stray

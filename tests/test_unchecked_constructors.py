"""Only the index maps skip validation.

``ParabolicPoint._unchecked`` and ``GradedModule._unchecked`` build an
object without its containment tests.  The index maps of rootstack may
use them, because they carry a valid object to a valid one (the proof is
in the rootstack docstring).  Every other construction in src/parstack
goes through the checked constructors.
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


def test_only_the_index_maps_build_unchecked_objects():
    calls = set()
    for module in sorted(os.listdir(PACKAGE)):
        if not module.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, module)) as fh:
            tree = ast.parse(fh.read(), module)
        calls.update((module, fn, line) for fn, line in _callers(tree))
    stray = sorted("%s:%d in %s" % (m, line, fn) for m, fn, line in calls
                   if (m, fn) not in ALLOWED)
    assert not stray, "unchecked constructions outside the index maps: %s" % stray
    assert {(m, fn) for m, fn, _ in calls} == ALLOWED

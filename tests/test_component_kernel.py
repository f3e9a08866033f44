"""One component kernel.

The e components of an element over a ramified branch are read by
``functors.decompose_component``, and only ``functors._restrict_columns``
calls it: restriction of scalars of lattices and of maps, and the residue
push of pairings (``restrict_matrix`` of the form), all go through that one
kernel.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "parstack")
ALLOWED = {("functors.py", "_restrict_columns")}


def _callers(tree):
    """(enclosing function, line) of every call of ``decompose_component``."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else fn
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "decompose_component":
                    found.append((fn, child.lineno))
            visit(child, inner)

    visit(tree, None)
    return found


def test_only_restrict_columns_calls_the_component_kernel():
    calls = set()
    for module in sorted(os.listdir(PACKAGE)):
        if module.endswith(".py"):
            with open(os.path.join(PACKAGE, module)) as fh:
                tree = ast.parse(fh.read(), module)
            calls.update((module, fn, line) for fn, line in _callers(tree))
    stray = sorted("%s:%d in %s" % (m, line, fn) for m, fn, line in calls
                   if (m, fn) not in ALLOWED)
    assert not stray, "decompose_component called outside _restrict_columns: %s" % stray
    assert {(m, fn) for m, fn, _ in calls} == ALLOWED

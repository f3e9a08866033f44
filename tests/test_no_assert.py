"""Library guards survive ``python -O``: src/parstack has no assert statement.

``python -O`` strips assert statements, so a guard written as one stops
guarding there; the library raises its own errors instead.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "parstack")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


@pytest.mark.parametrize("module", MODULES)
def test_library_module_has_no_assert(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        tree = ast.parse(fh.read(), module)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, "%s has assert statements on lines %s" % (module, lines)

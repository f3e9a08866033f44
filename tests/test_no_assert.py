"""Library guards survive ``python -O``: src/parstack has no assert statement.

``python -O`` strips assert statements, so a guard written as one stops
guarding there; the library raises its own errors instead.  Imports sit
at module level too, so an import cycle shows when the package loads, not
at the first call of some function.
"""

import ast

import pytest

from conftest import package_trees

MODULES = list(package_trees())


@pytest.mark.parametrize("module", MODULES)
def test_library_module_has_no_assert(module):
    lines = [node.lineno for node in ast.walk(package_trees()[module])
             if isinstance(node, ast.Assert)]
    assert not lines, "%s has assert statements on lines %s" % (module, lines)


@pytest.mark.parametrize("module", MODULES)
def test_library_module_imports_at_module_level(module):
    lines = [node.lineno for fn in ast.walk(package_trees()[module])
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not lines, "%s imports inside a function on lines %s" % (module, lines)

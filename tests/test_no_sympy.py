"""No test module imports sympy.

The independent lattice oracle is the jet-space one of tests/jetspace.py,
which uses the standard library only, and the element arithmetic has its
reference in tests/test_localring.py.  So sympy is not a test dependency
(the ``test`` extra of pyproject.toml), and an import of it would fail on
an install without it and cost every Tier-1 run its import time.
"""

import ast
import os

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
MODULES = sorted(os.path.relpath(os.path.join(root, f), TESTS)
                 for root, _, files in os.walk(TESTS) for f in files if f.endswith(".py"))


def _is_sympy(name):
    return name == "sympy" or name.startswith("sympy.")


def _sympy_imports(tree):
    """The lines of ``import sympy...``, ``from sympy... import ...`` and of
    ``__import__`` or ``import_module`` called with a sympy module name."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found = any(_is_sympy(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found = _is_sympy(node.module or "")
        elif isinstance(node, ast.Call) and node.args:
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            arg = node.args[0]
            found = (name in ("__import__", "import_module") and isinstance(arg, ast.Constant)
                     and isinstance(arg.value, str) and _is_sympy(arg.value))
        else:
            continue
        if found:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", MODULES)
def test_test_module_imports_no_sympy(module):
    with open(os.path.join(TESTS, module)) as fh:
        lines = _sympy_imports(ast.parse(fh.read(), module))
    assert not lines, "%s imports sympy on lines %s" % (module, lines)


def test_the_import_is_recognised():
    tree = ast.parse("import sympy\nfrom sympy import Matrix\nimport os, sympy.abc as a\n"
                     "m = importlib.import_module('sympy')\nn = __import__('sympy.core')\n"
                     "import sympyx\nfrom os import sympy\nx = 'import sympy'\n")
    assert _sympy_imports(tree) == [1, 2, 3, 4, 5]

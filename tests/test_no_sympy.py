"""No test module imports sympy, and the oracle imports the standard
library only.

The independent lattice oracle is the jet-space one of tests/jetspace.py,
which uses the standard library only, and the element arithmetic has its
reference in tests/test_localring.py.  So sympy is not a test dependency
(the ``test`` extra of pyproject.toml), and an import of it would fail on
an install without it and cost every Tier-1 run its import time.  An
import of parstack or of conftest in the oracle would let it run the code
it judges.
"""

import ast
import os
import sys

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


def _foreign_imports(tree):
    """The lines of imports of modules outside the standard library,
    relative imports included."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["" if node.level else node.module]
        else:
            continue
        if any(name.partition(".")[0] not in sys.stdlib_module_names for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_oracle_imports_the_standard_library_only():
    with open(os.path.join(TESTS, "jetspace.py")) as fh:
        assert _foreign_imports(ast.parse(fh.read())) == []
    tree = ast.parse("from fractions import Fraction\nfrom parstack import Lattice\n"
                     "import os, conftest\nfrom . import jetspace\nimport itertools\n")
    assert _foreign_imports(tree) == [2, 3, 4]

"""No kernel in src/parstack finds pivot-only columns by counting zeros.

A lattice stores its pivot exponents and, per column, only the nonzero
entries above the pivot, so a pivot-only column is the empty tuple and no
kernel needs to scan a dense column or fibre vector with ``.count(_Z)``
(or ``.count(LocalElement.zero())``) to recognise one.  A scan like that
would mean a kernel went back to dense columns.
"""

import ast

import pytest

from conftest import package_trees

MODULES = list(package_trees())


def _is_zero(node):
    """The name ``_Z`` or a call ``....zero()``."""
    if isinstance(node, ast.Name):
        return node.id == "_Z"
    return (isinstance(node, ast.Call) and not node.args
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "zero")


def _zero_counts(tree):
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "count" and len(node.args) == 1
                  and _is_zero(node.args[0]))


@pytest.mark.parametrize("module", MODULES)
def test_library_module_counts_no_zeros(module):
    lines = _zero_counts(package_trees()[module])
    assert not lines, "%s scans for zeros with .count on lines %s" % (module, lines)


def test_the_scan_is_recognised():
    tree = ast.parse("a = col.count(_Z) == n - 1\nb = u.count(LocalElement.zero())\n"
                     "c = col.count(x)\nd = s.count('_Z')\n")
    assert _zero_counts(tree) == [1, 2]

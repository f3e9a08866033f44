"""Every module-level import is read: in tests/*.py and in src/parstack.

An imported name that no code reads is a dependency nobody uses; it
outlives the code that needed it and hides which module a test relies on.
``src/parstack/__init__.py`` re-exports the package's names, so it is not
checked.  ``from __future__`` imports are directives, not names.
"""

import ast
import os

import pytest

from conftest import package_trees

TESTS = os.path.dirname(os.path.abspath(__file__))


def _trees():
    """{label: syntax tree} of every test module and of every package
    module but ``__init__.py``."""
    trees = {"src/parstack/" + module: tree for module, tree in package_trees().items()
             if module != "__init__.py"}
    for module in os.listdir(TESTS):
        if module.endswith(".py"):
            with open(os.path.join(TESTS, module)) as fh:
                trees["tests/" + module] = ast.parse(fh.read(), module)
    return trees


TREES = _trees()


def _unread_imports(tree):
    """The names bound by the module-level imports of ``tree`` that no
    expression of the module reads."""
    bound = [alias.asname or alias.name.split(".")[0] for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in bound if name not in read)


@pytest.mark.parametrize("module", sorted(TREES))
def test_module_reads_every_name_it_imports(module):
    names = _unread_imports(TREES[module])
    assert not names, "%s imports %s and never reads it" % (module, ", ".join(names))


def test_an_unread_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport os, sys as system\n"
                     "from a import b, c as d\nimport e.f\nprint(os, d)\n"
                     "def g():\n    import h\n    return e\n")
    assert _unread_imports(tree) == ["b", "system"]

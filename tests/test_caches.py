"""Every cache in the package is a reviewed decision.

A ``functools.cache``, ``lru_cache`` or ``cached_property`` keeps results
alive and hands one object to every caller, and it can hide a fault
planted below it (``conftest.planted``).  Each one in src/parstack is
listed here with the reason it is safe; a new cache fails this test until
it is listed, and a listed one that is gone fails it too.
"""

import ast

from conftest import package_trees

CACHES = {"cache", "lru_cache", "cached_property"}
ALLOWED = {
    ("cli.py", "build_parser"):
        "the parser is the same for every call; main builds it once per process",
    ("harness.py", "TrialConfig.field"):
        "field_name is fixed for the life of a config, and fields are immutable",
    ("parabolic.py", "ParabolicPoint.line"):
        "points and lattices are immutable; bounded, keyed by (field, order, jump, twist)",
}


def _cache_name(node, imported):
    """The cache a decorator or reference names, or None: functools.X, or a
    bare X imported from functools; a call such as lru_cache(maxsize=...)
    names the cache it calls."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "functools" and node.attr in CACHES:
        return node.attr
    if isinstance(node, ast.Name) and node.id in imported:
        return node.id
    return None


def _caches(module, tree):
    """(decorated qualified names, number of references to a cache)."""
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for alias in node.names if alias.name in CACHES}
    refs = sum(isinstance(node, (ast.Attribute, ast.Name))
               and _cache_name(node, imported) is not None for node in ast.walk(tree))
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if any(_cache_name(d, imported) for d in child.decorator_list):
                    found.append((module, name))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found, refs


def test_every_cache_is_on_the_allow_list():
    found, undecorated = [], []
    for module, tree in package_trees().items():
        decorated, refs = _caches(module, tree)
        found += decorated
        if refs != len(decorated):
            undecorated.append(module)
    assert not undecorated, "caches made outside a decorator in %s" % undecorated
    assert sorted(found) == sorted(ALLOWED)

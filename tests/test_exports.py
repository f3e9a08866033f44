"""Library code has a user besides the tests.

Every name that parstack/__init__.py exports, every public module-level
function or value and every public method of a module-level class in
src/parstack must be mentioned somewhere else: by a module of src/parstack
outside the statement (or method) defining it, by the perfbench tracer
tables or workloads (parsed, never run), or be one of the gate entry
points listed below with the reason it stays.

A use is resolved to its owner where the code names it.  ``C.m``, with C
a class defined in src/parstack (bare, or as ``module.C``), is a use of
the method C.m only.  A name used bare, or as an attribute of anything
else (``self.m``, ``obj.m``, ``module.f``), counts for every definition
of that name.
"""

import ast
import os

import pytest

from conftest import package_trees

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE_ENTRY_POINTS = {}


def _parse(*parts):
    with open(os.path.join(ROOT, *parts)) as fh:
        return ast.parse(fh.read())


def _defines(node, name):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == name for t in node.targets)


EXPORTS = sorted(alias.asname or alias.name
                 for node in package_trees()["__init__.py"].body
                 if isinstance(node, ast.ImportFrom) for alias in node.names)
MODULES = [tree for f, tree in package_trees().items() if f != "__init__.py"]
CLASSES = {node.name for tree in MODULES for node in tree.body
           if isinstance(node, ast.ClassDef)}


def _owner(receiver):
    """The class that ``receiver`` names (``C`` or ``module.C``), else None."""
    if isinstance(receiver, ast.Name) and receiver.id in CLASSES:
        return receiver.id
    if isinstance(receiver, ast.Attribute) and receiver.attr in CLASSES:
        return receiver.attr
    return None


def _uses(tree):
    """(owner, name) of every name the tree mentions; owner is None unless
    the name is read off a class of src/parstack."""
    return {(None, n.id) if isinstance(n, ast.Name) else (_owner(n.value), n.attr)
            for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}


def _perfbench_uses():
    uses = _uses(_parse("perfbench", "workloads.py"))
    for node in _parse("perfbench", "tracer.py").body:
        if _defines(node, "FUNCTIONS"):
            uses.update((None, entry[2]) for entry in ast.literal_eval(node.value))
        if _defines(node, "METHODS"):
            uses.update((entry[2], entry[3]) for entry in ast.literal_eval(node.value))
    return uses


def _public(node):
    """The public name a module-level function or single-name assignment
    defines, or a method, else None."""
    if isinstance(node, ast.FunctionDef):
        name = node.name
    elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
            and isinstance(node.targets[0], ast.Name):
        name = node.targets[0].id
    else:
        return None
    return None if name.startswith("_") else name


OUTSIDE_USES = _perfbench_uses() | {(None, name) for name in GATE_ENTRY_POINTS}

# each top-level statement is a unit, except that a class is one unit per
# statement of its body, so a method's uses elsewhere in its class count
UNITS = [(unit, _uses(unit)) for tree in MODULES for node in tree.body
         for unit in (node.body if isinstance(node, ast.ClassDef) else [node])]
DEFINITIONS = sorted(
    [(None, _public(node), node) for tree in MODULES for node in tree.body
     if _public(node)]
    + [(node.name, item.name, item) for tree in MODULES
       for node in tree.body if isinstance(node, ast.ClassDef)
       for item in node.body if isinstance(item, ast.FunctionDef) and _public(item)],
    key=lambda d: ("%s.%s" % d[:2]) if d[0] else d[1])


def _counts_for(owner, name, uses):
    return (None, name) in uses or (owner is not None and (owner, name) in uses)


@pytest.mark.parametrize("name", EXPORTS)
def test_exported_name_has_a_user_outside_the_tests(name):
    assert _counts_for(None, name, OUTSIDE_USES) or any(
        (None, name) in uses for unit, uses in UNITS if not _defines(unit, name)), \
        "%s is exported but only tests use it" % name


@pytest.mark.parametrize("owner,name,node", DEFINITIONS,
                         ids=[("%s.%s" % (owner, name)) if owner else name
                              for owner, name, _ in DEFINITIONS])
def test_public_function_or_method_has_a_user_outside_the_tests(owner, name, node):
    assert _counts_for(owner, name, OUTSIDE_USES) or any(
        _counts_for(owner, name, uses) for unit, uses in UNITS if unit is not node), \
        "%s is defined in src/parstack but only tests use it" % \
        (("%s.%s" % (owner, name)) if owner else name)

"""Every name that parstack/__init__.py exports has a user besides the tests:
a module of src/parstack that mentions it outside the top-level statement
defining it, the perfbench tracer tables or workloads (parsed, never run),
or the named gate entry points."""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "parstack")
GATE_ENTRY_POINTS = {"run_mutation"}


def _parse(*parts):
    with open(os.path.join(ROOT, *parts)) as fh:
        return ast.parse(fh.read())


def _names(tree):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _defines(node, name):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == name for t in node.targets)


def _perfbench_names():
    names = _names(_parse("perfbench", "workloads.py"))
    for node in _parse("perfbench", "tracer.py").body:
        if _defines(node, "FUNCTIONS") or _defines(node, "METHODS"):
            names.update(x for entry in ast.literal_eval(node.value) for x in entry[2:])
    return names


EXPORTS = sorted(alias.asname or alias.name
                 for node in _parse("src", "parstack", "__init__.py").body
                 if isinstance(node, ast.ImportFrom) for alias in node.names)
MODULES = [_parse("src", "parstack", f) for f in sorted(os.listdir(PACKAGE))
           if f.endswith(".py") and f != "__init__.py"]
OUTSIDE_USERS = _perfbench_names() | GATE_ENTRY_POINTS


@pytest.mark.parametrize("name", EXPORTS)
def test_exported_name_has_a_user_outside_the_tests(name):
    assert name in OUTSIDE_USERS or any(
        name in _names(node) for tree in MODULES for node in tree.body
        if not _defines(node, name)), "%s is exported but only tests use it" % name

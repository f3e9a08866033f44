"""Library code has a user besides the tests.

Every name that parstack/__init__.py exports, every public module-level
function and every public method of a module-level class in src/parstack
must be mentioned somewhere else: by a module of src/parstack outside the
statement (or method) defining it, by the perfbench tracer tables or
workloads (parsed, never run), or be one of the gate entry points listed
below with the reason it stays.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "parstack")
GATE_ENTRY_POINTS = {
    "run_mutation": "runs the seeded corruption gate of the acceptance tests",
    "degree_scenario_trial": "oracle of acceptance criterion 6, degree multiplicativity",
}


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


def _public(node):
    return isinstance(node, ast.FunctionDef) and not node.name.startswith("_")


EXPORTS = sorted(alias.asname or alias.name
                 for node in _parse("src", "parstack", "__init__.py").body
                 if isinstance(node, ast.ImportFrom) for alias in node.names)
MODULES = [_parse("src", "parstack", f) for f in sorted(os.listdir(PACKAGE))
           if f.endswith(".py") and f != "__init__.py"]
OUTSIDE_USERS = _perfbench_names() | set(GATE_ENTRY_POINTS)

# each top-level statement is a unit, except that a class is one unit per
# statement of its body, so a method's uses elsewhere in its class count
UNITS = [(unit, _names(unit)) for tree in MODULES for node in tree.body
         for unit in (node.body if isinstance(node, ast.ClassDef) else [node])]
DEFINITIONS = sorted(
    [(node.name, node) for tree in MODULES for node in tree.body if _public(node)]
    + [("%s.%s" % (node.name, item.name), item) for tree in MODULES
       for node in tree.body if isinstance(node, ast.ClassDef)
       for item in node.body if _public(item)],
    key=lambda pair: pair[0])


@pytest.mark.parametrize("name", EXPORTS)
def test_exported_name_has_a_user_outside_the_tests(name):
    assert name in OUTSIDE_USERS or any(
        name in _names(node) for tree in MODULES for node in tree.body
        if not _defines(node, name)), "%s is exported but only tests use it" % name


@pytest.mark.parametrize("qualname,node", DEFINITIONS,
                         ids=[qualname for qualname, _ in DEFINITIONS])
def test_public_function_or_method_has_a_user_outside_the_tests(qualname, node):
    assert node.name in OUTSIDE_USERS or any(
        node.name in names for unit, names in UNITS if unit is not node), \
        "%s is defined in src/parstack but only tests use it" % qualname

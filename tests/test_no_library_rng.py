"""Randomness belongs to the harness: library functions take no ``rng``.

Outside harness.py no function of src/parstack takes a parameter named
``rng``, so a library result never depends on a random draw.  The one
exception is the field codec's ``random_nonzero``, which draws a field
value for the harness and the benchmark workloads.
"""

import ast

from conftest import package_trees

ALLOWED = {("fields.py", "random_nonzero")}


def _params(fn):
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return names + [a.arg for a in (args.vararg, args.kwarg) if a is not None]


def test_only_the_harness_takes_rng():
    found = []
    for module, tree in package_trees().items():
        if module == "harness.py":
            continue
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) \
                    and "rng" in _params(fn):
                name = getattr(fn, "name", "<lambda>")
                if (module, name) not in ALLOWED:
                    found.append("%s:%d %s" % (module, fn.lineno, name))
    assert not found, "library functions taking rng: %s" % found

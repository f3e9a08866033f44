"""Each file format has one owner, and cli.py is not it.

``scenario.py`` reads and writes scenarios (``loads``, ``encode_placed``)
and ``harness.py`` writes failure records and reads them back
(``replay``).  ``cli.py`` parses arguments, reads and writes files, calls
the functors and prints tables; it neither reads nor writes a scenario or
record key.  A subscript or ``.get`` with one of those keys as a string
literal in cli.py means a second module has started to read the format;
a keyword argument or a dict display with one, as in ``dict(raw,
objects=...)`` or ``{"objects": ...}``, means it has started to write it.
"""

import ast

from conftest import package_trees

FORMAT_KEYS = {"objects", "cover", "at", "underlying_degree", "suite", "trial_index",
               "trial_seed", "config", "instance", "mutation", "note"}


def format_key_uses(tree):
    """(line, key) of each ``x["key"]``, ``x.get("key", ...)``, keyword
    argument ``key=...`` and dict display ``{"key": ...}`` in the syntax
    tree ``tree`` whose key is in FORMAT_KEYS, in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            keys = [node.slice]
        elif isinstance(node, ast.Call):
            keys = [ast.Constant(k.arg) for k in node.keywords if k.arg]
            if isinstance(node.func, ast.Attribute) and node.func.attr == "get" and node.args:
                keys.append(node.args[0])
        elif isinstance(node, ast.Dict):
            keys = [k for k in node.keys if k is not None]
        else:
            continue
        found.extend((node.lineno, key.value) for key in keys
                     if isinstance(key, ast.Constant) and key.value in FORMAT_KEYS)
    return sorted(found)


def test_cli_indexes_no_scenario_or_record_key():
    found = format_key_uses(package_trees()["cli.py"])
    assert not found, "cli.py uses format keys: %s" % found


def test_the_guard_sees_subscripts_and_get():
    source = 'a = raw["objects"]\nb = record.get("trial_seed")\nc = obj.get("at", 0)\n' \
             'd = x["rank"]\ne = y.get(key)\n'
    assert format_key_uses(ast.parse(source)) == [(1, "objects"), (2, "trial_seed"), (3, "at")]


def test_the_guard_sees_keyword_arguments_and_dict_displays():
    source = 'a = dict(raw, objects=[])\nb = {"cover": c, "rank": 2}\n' \
             'c = f(at=x, rank=1)\nd = {**raw, "note": n}\ne = dict(raw, **extra)\n'
    assert format_key_uses(ast.parse(source)) == [(1, "objects"), (2, "cover"), (3, "at"),
                                                  (4, "note")]

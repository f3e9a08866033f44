"""Each file format has one owner, and cli.py is not it.

``scenario.py`` reads and writes scenarios (``loads``, ``encode_placed``)
and ``harness.py`` writes failure records and reads them back
(``replay``).  ``cli.py`` parses arguments, reads and writes files, calls
the functors and prints tables; it indexes no scenario or record key.  A
subscript or ``.get`` with one of those keys as a string literal in
cli.py means a second module has started to read the format.
"""

import ast
import os

CLI = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "parstack", "cli.py")
FORMAT_KEYS = {"objects", "cover", "at", "underlying_degree", "suite", "trial_index",
               "trial_seed", "config", "instance", "mutation", "note"}


def format_key_lookups(source):
    """(line, key) of each ``x["key"]`` or ``x.get("key", ...)`` in ``source``
    whose key is a string literal in FORMAT_KEYS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript):
            key = node.slice
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" and node.args:
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and key.value in FORMAT_KEYS:
            found.append((node.lineno, key.value))
    return found


def test_cli_indexes_no_scenario_or_record_key():
    with open(CLI) as fh:
        found = format_key_lookups(fh.read())
    assert not found, "cli.py reads format keys: %s" % found


def test_the_guard_sees_subscripts_and_get():
    source = 'a = raw["objects"]\nb = record.get("trial_seed")\nc = obj.get("at", 0)\n' \
             'd = x["rank"]\ne = y.get(key)\n'
    assert format_key_lookups(source) == [(1, "objects"), (2, "trial_seed"), (3, "at")]

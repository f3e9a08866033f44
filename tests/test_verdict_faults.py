"""Every verdict of a suite check has a fault or a test that produces it.

A ``return False, note`` branch of a ``_check_*`` function of the harness
that no test reaches is a check nobody has seen fire.  Each note that only
a planted fault produces has its plant in ``conftest.VERDICT_FAULTS``; each
other note names the test that produces it in ``conftest.NOTE_PRODUCERS``.
The guard reads harness.py and fails on a note with neither, and on an
entry that no note of the source matches.
"""

import ast
import os
import re

import pytest

from parstack import TrialConfig
from parstack.harness import SUITES

from conftest import NOTE_PRODUCERS, VERDICT_FAULTS, package_trees, planted

TESTS = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.parametrize("field_name", ["rational", "prime:101"])
@pytest.mark.parametrize("fault", sorted(VERDICT_FAULTS))
def test_each_planted_fault_produces_its_note(fault, field_name, monkeypatch):
    owner, name, edit, suite, note = VERDICT_FAULTS[fault]
    monkeypatch.setattr(owner, name, planted(getattr(owner, name), edit))
    report = SUITES[suite](TrialConfig(seed=0, trials=20, field_name=field_name))
    assert note in {n for _, ok, n in report.verdicts if not ok}


def _note_pattern(node):
    """The regular expression of a note: a literal matches itself, a
    ``%`` format of a literal any filling of its fields."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        node = node.left
    if not (isinstance(node, ast.Constant) and type(node.value) is str):
        raise AssertionError("line %d: a note must be a literal or a %% format of one"
                             % node.lineno)
    return "".join(".+" if re.fullmatch(r"%[sdr]", part) else re.escape(part)
                   for part in re.split(r"(%[sdr])", node.value))


def _check_notes():
    """(suite, note pattern, line) of every ``return False, note`` of a
    ``_check_*`` function in harness.py."""
    suites = {suite.check.__name__: name for name, suite in SUITES.items()}
    found = []
    for fn in ast.walk(package_trees()["harness.py"]):
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_check_")):
            continue
        assert fn.name in suites, "%s is the check of no suite" % fn.name
        for node in ast.walk(fn):
            value = node.value if isinstance(node, ast.Return) else None
            if isinstance(value, ast.Tuple) and len(value.elts) == 2 and \
                    isinstance(value.elts[0], ast.Constant) and value.elts[0].value is False:
                found.append((suites[fn.name], _note_pattern(value.elts[1]), node.lineno))
    return found


def _defined_tests(module):
    with open(os.path.join(TESTS, module)) as fh:
        return {node.name for node in ast.walk(ast.parse(fh.read(), module))
                if isinstance(node, ast.FunctionDef)}


def test_every_check_note_has_a_fault_or_a_test_that_produces_it():
    known = [(suite, note) for _, _, _, suite, note in VERDICT_FAULTS.values()]
    known += list(NOTE_PRODUCERS)
    notes = _check_notes()
    assert notes
    for suite, pattern, line in notes:
        assert any(s == suite and re.fullmatch(pattern, note) for s, note in known), \
            "harness.py line %d: no fault or test produces the %s note %r" % (line, suite, pattern)
    for suite, note in known:
        assert any(s == suite and re.fullmatch(pattern, note) for s, pattern, _ in notes), \
            "no %s check gives the note %r" % (suite, note)
    for test in NOTE_PRODUCERS.values():
        module, name = test.split("::")
        assert name in _defined_tests(module), test

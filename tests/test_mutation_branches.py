"""Mutations in the harness corrupt values; they never pass verdicts.

A mutant counts as killed only when a suite's own check rejects it.  A
branch on ``mutation`` that returns would judge the mutant itself, so the
gate would count it as detected whatever the checks do.
"""

import ast

from conftest import package_trees


def _reads_mutation(expr):
    return any(isinstance(node, ast.Name) and node.id == "mutation"
               for node in ast.walk(expr))


def test_mutation_branches_do_not_return():
    lines = [ret.lineno for node in ast.walk(package_trees()["harness.py"])
             if isinstance(node, ast.If) and _reads_mutation(node.test)
             for ret in ast.walk(node) if isinstance(ret, ast.Return)]
    assert not lines, "harness.py returns inside a mutation branch on lines %s" % lines

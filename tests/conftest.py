"""Shared builders, planted-fault tables, the field parametrizations and
the package reader of the source checks.

The one reference for lattice and point-level results is the jet-space
oracle of tests/jetspace.py: linear algebra over the residue field, with
no library kernel in it, and no import of this module or of the package.
The planted-fault tables live here, so that no test module imports
another.
"""

import ast
import functools
import inspect
import os
import random
import sys
import textwrap
from fractions import Fraction
from math import lcm

import pytest

from parstack import (QQ, GradedModule, InvalidGrading, Lattice, LocalElement,
                      ParabolicPoint, PrimeField, SingularBasis, TrialConfig,
                      from_parabolic, gen_parabolic_point, pullback_parabolic_line)
from parstack import functors, harness
from parstack.harness import SUITES

from jetspace import component, terms

GF101 = PrimeField(101)
TWO_FIELDS = pytest.mark.parametrize("field", [QQ, GF101], ids=["rational", "prime101"])
FOUR_FIELDS = pytest.mark.parametrize("field", [QQ, GF101, PrimeField(2), PrimeField(3)],
                                      ids=["rational", "prime101", "prime2", "prime3"])


def planted(fn, *edits):
    """The function or method ``fn`` with each (old, new) edit made once in
    its source, run in a copy of its module's namespace.  An ``old`` text
    that is missing or repeated raises LookupError, so a stale plant cannot
    pass as the fault it names.

    A cache hides a fault planted below it: ``ParabolicPoint.line`` returns
    the lines it built before the plant.  A plant under line construction
    (``ParabolicPoint.from_lines``, ``Lattice.from_columns``) must call
    ``ParabolicPoint.line.cache_clear()`` first (tests/test_caches.py lists
    every cache)."""
    source = textwrap.dedent(inspect.getsource(fn))
    for old, new in edits:
        found = source.count(old)
        if found != 1:
            raise LookupError("%r occurs %d times in %s" % (old, found, fn.__name__))
        source = source.replace(old, new)
    namespace = dict(vars(sys.modules[fn.__module__]))
    exec(source, namespace)
    return namespace[fn.__name__]


# planted fault of functors.restrict_scalars -> (source edit, lattice
# columns, e, u, the guard that must fire).  On the lattice spanned by
# (t^2, 0) and (1 + t, 1), row 0 holds the pivot w of block 0, and t times
# the seed of block 1 wraps the entry 1 into that row as w/u, so the
# reduction quotient there is 1/u.  In the lattice of (t, 0) and (1, t)
# the pivot of column 0 wraps at rho = 1: claimed as w^2 there, it is w,
# and the component check refuses it before the colength sum is taken.
# The lattice of t alone has no stored entries, so only the colength sees
# its raised pivots.
PLANTED_FAULTS = {
    "wrap-by-t^2e": (("LocalElement.t_power(field, 1).twist(u, -1)",
                      "LocalElement.t_power(field, 2).twist(u, -1)"),
                     [[(2, 1), 0], [(0, 1, 1), 1]], 2, 1, "reduction quotient"),
    "skipped-reduction": (("col[k] = col.get(k, _Z) - lam * y", "col[k] = col.get(k, _Z)"),
                          [[(2, 1), 0], [(0, 1, 1), 1]], 2, 2, "not in canonical form"),
    "wrong-colength": (("(q + 1, 0) if wraps", "(q + 2, 0) if wraps"),
                       [[(1, 1), 0], [1, (1, 1)]], 2, 1,
                       r"component 0 of t\^2 is not u\^-2 \* w\^2"),
    "wrong-colength-closed-form": (("diag[row] = q", "diag[row] = q + 1"),
                                   [[(1, 1)]], 2, 1, "restricted colength 3, expected 1"),
    "wrap-factor-u-for-1/u": (("t_power(field, 1).twist(u, -1)", "t_power(field, 1).twist(u)"),
                              [[(4, 1), 0], [(1, 1), 1]], 2, 2, "misses a generator"),
}


# planted fault -> source edits of twist_restricted, and the note every
# failing trial of the direct-image suite must carry (None: any failure).
# Pivots are implied by their exponents, so no fault can give a pivot the
# wrong unit: in a column whose pivot wraps, "wrapped-column-unscaled"
# leaves the wrapped entries unscaled by u, "pivot-only-rescaled" all its
# entries, which move as if the pivot did not wrap while the pivot itself
# moves right, and "wrapping-pivot-unshifted" gives a wrapping pivot-only
# column the exponent b + q instead of b + q + 1.
TWIST_FAULTS = {
    "wrap-factor-u-for-1/u": ([("t_power(field, 1).twist(u, -1)", "t_power(field, 1).twist(u)")],
                              None),
    "wrapped-column-unscaled": (
        [("x.shift(d) if wraps else x * wrap_factor", "x * wrap_factor")], None),
    "pivot-only-rescaled": (
        [("x.shift(d) if wraps else x * wrap_factor", "x * wrap_factor"),
         ("x * unit_factor if wraps else x.shift(q)", "x.shift(q)")], None),
    "wrapping-pivot-unshifted": ([("entries[row] = ent\n",
                                   "entries[row] = ent\n            diag[row] = b + q\n")], None),
}


# planted fault -> source edit of Lattice.contains
CONTAINS_FAULTS = {
    "no-exponent-test": ("if b < a:", "if False:"),
    "pivot-only-on-one-side": (" and not own", ""),
}


# planted fault -> (owner, name, source edit, suite, note): the edit made in
# function ``name`` where the harness reads it, on ``owner`` (a module or a
# class), and a note that the suite's checks give some trial then.  Each
# note is one no other Tier-1 test produces; harness imports
# is_graded_morphism, pullback_graded, pushforward_graded and
# pullback_pairing by name, so they are planted there.  Failing trials of
# 200 (seed 0, 100 on each of Q and GF(101)) with the note: 84, 81, 165, 66,
# 61, 42, 95 (47 and 48) and 94 (47 and 47).
VERDICT_FAULTS = {
    "mixing-against-the-jumps": (
        harness, "mix_lines", ("if jumps[k] < jumps[i]:", "if jumps[k] > jumps[i]:"),
        "pull", "splitting dependence"),
    "weight-multiplicity-raised": (
        ParabolicPoint, "weights", ("(Fraction(a, self.order), m)",
                                    "(Fraction(a, self.order), m + (a > 0))"),
        "pull", "weight law violated"),
    "substitution-shifted": (
        functors, "substitute_element", ("x.substitute(e, u)", "x.substitute(e, u).shift(1)"),
        "pull", "twist law violated"),
    "morphism-bound-dropped": (
        harness, "gen_point_morphism",
        ("vmin = 1 if src_jumps[bi] > dst_jumps[bo] else 0", "vmin = 0"),
        "direct", "generated morphism not graded"),
    "graded-morphism-against-piece-0": (
        harness, "is_graded_morphism",
        ("zip(src.pieces, dst.pieces)", "zip(src.pieces, dst.pieces[:1] * len(dst.pieces))"),
        "direct", "pushforward not natural (graded)"),
    "pullback-exponent-raised": (
        harness, "pullback_graded", ("-((k - m) // r)", "-((k - m) // r) + (m > k)"),
        "corollaries", "stack-side pullback disagrees"),
    "pushforward-twist-raised": (
        harness, "pushforward_graded", ("-p[1])", "1 - p[1])"),
        "corollaries", "stack-side pushforward disagrees"),
    "pulled-pairing-twist-raised": (
        harness, "pullback_pairing", ("br.e - 1, [br.unit]", "br.e, [br.unit]"),
        "corollaries", "pulled pairing imperfect"),
}


# (suite, note) -> the test ("module::function") that produces a note of
# the suite's checks without a planted fault of VERDICT_FAULTS
NOTE_PRODUCERS = {
    ("direct", "pipeline mismatch"): "test_acceptance.py::test_criterion_8_mutation_sensitivity",
    ("direct", "weight law violated"):
        "test_functors.py::test_direct_image_suite_catches_each_planted_twist_fault",
    ("direct", "pushforward not natural (parabolic)"):
        "test_functors.py::test_direct_image_suite_catches_each_planted_twist_fault",
    ("pull", "pipeline mismatch"):
        "test_route_independence.py::test_planted_splitting_fault_is_a_pipeline_mismatch",
    ("pull", "pullback not natural"):
        "test_route_independence.py::test_planted_splitting_fault_is_a_pipeline_mismatch",
    ("pull", "restriction does not undo base change"):
        "test_harness.py::test_pull_suite_catches_base_change_along_the_inverse_unit",
    ("corollaries", "kind not preserved"):
        "test_harness.py::test_flipped_symmetry_fails_every_drawn_instance",
    ("corollaries", "pushed pairing imperfect"):
        "test_harness.py::test_flipped_symmetry_is_caught_by_the_symmetry_check",
}


def el(t_order, *coeffs, field=QQ):
    """LocalElement t^t_order * (c0 + c1 t + ...) with exact coefficients."""
    return LocalElement.make(field, t_order, [field.of(c) for c in coeffs])


def lat(cols, field=QQ):
    """Lattice from integer-coefficient column shorthand.

    Each column is a list of entries; an entry is an int (constant), a
    string like "2/3", or a (t_order, coeffs...) tuple.
    """
    n = len(cols[0])
    out = []
    for col in cols:
        vec = []
        for x in col:
            if isinstance(x, LocalElement):
                vec.append(x)
            elif isinstance(x, tuple):
                vec.append(el(x[0], *x[1:], field=field))
            else:
                vec.append(el(0, x, field=field))
        out.append(vec)
    return Lattice.from_columns(field, n, out)


def diagonal_lattice(field, exps):
    """The lattice spanned by t^exps[j] * e_j, through ``lat``."""
    return lat([[(a, 1) if i == j else 0 for i in range(len(exps))]
                for j, a in enumerate(exps)], field)


def trivial_point(field, n, order=1):
    """The point with E^0 = R^n and every later member t * R^n (weight 0)."""
    top = diagonal_lattice(field, [0] * n)
    return ParabolicPoint(order, [top] + [top.scale(1)] * order)


def diag_point(order, jumps, twists=None):
    """The point over Q whose line b is t^twists[b] * e_b with jump jumps[b]."""
    tw = twists or [0] * len(jumps)
    return ParabolicPoint(order, [diagonal_lattice(QQ, [g + (j > jb) for g, jb in zip(tw, jumps)])
                                  for j in range(order + 1)])


def pivot_only(col):
    """True iff the column has exactly one nonzero entry."""
    return sum(1 for x in col if x.coeffs) == 1


def trivial_module(field, n, order=1):
    """The graded module with every piece R^n."""
    return GradedModule(order, [diagonal_lattice(field, [0] * n)] * order)


def graded_line(field, order, jump, twist=0):
    """Rank-1 module matching ParabolicPoint.line(order, jump, twist):
    pieces t^twist*R below grade order-jump, t^{twist-1}*R from it on.
    jump = 0 gives the constant chain (weight 0)."""
    if not 0 <= jump < order:
        raise InvalidGrading("jump %d outside [0, %d)" % (jump, order))
    top = diagonal_lattice(field, [twist])
    if jump == 0:
        return GradedModule(order, [top] * order)
    big = top.scale(-1)
    cut = order - jump
    return GradedModule(order, [top if k < cut else big for k in range(order)])


def gen_graded_module(rng, n, s, field=QQ):
    return from_parabolic(gen_parabolic_point(rng, n, s, field))


# every (suite, mutation, seed) the suites register, the first seed of each
# mutation first, so MUTATIONS[:4] holds one record per mutation
_REGISTERED = [(name, mutation, seeds) for name, suite in SUITES.items()
               for mutation, seeds in suite.mutations.items()]
MUTATIONS = [(name, mutation, seeds[0]) for name, mutation, seeds in _REGISTERED] + [
    (name, mutation, seed) for name, mutation, seeds in _REGISTERED for seed in seeds[1:]]


def run_mutation(suite, mutation, seed, field_name="rational"):
    """One corrupted trial; the verifier must flag it."""
    cfg = TrialConfig(seed=seed, trials=1, field_name=field_name, max_order=8)
    return SUITES[suite](cfg, mutation=mutation)


def degree_scenario_trial(rng):
    """One random global line scenario; returns (pulled degree, oracle):
    the degree of the pullback of a parabolic line, summed line by line
    with the pullback line formula, against deg f times its degree."""
    deg_f = rng.randint(1, 4)
    npts = rng.randint(1, 3)
    degree = rng.randint(-2, 2)
    pulled = Fraction(deg_f * degree)
    pardeg = Fraction(degree)
    for _ in range(npts):
        # branch ramification indices at this target point summing to deg f
        parts = []
        left = deg_f
        while left > 0:
            e = rng.randint(1, left)
            parts.append(e)
            left -= e
        s = lcm(*parts) * rng.randint(1, 3)
        c = rng.randint(0, s - 1)
        alpha = Fraction(c, s)
        pardeg += alpha
        for e in parts:
            twist, frac = pullback_parabolic_line(alpha, e, s // e)
            pulled += twist + frac
    return pulled, deg_f * pardeg


def rng_for(seed):
    return random.Random(seed)


def values(x):
    """The coefficients of x as field values, lowest exponent first:
    Fraction on Q, int residues on GF(p)."""
    if x.p:
        return list(x.coeffs)
    return [Fraction(c, x.den) for c in x.coeffs]


def random_element(rng, field=QQ, zero_chance=0.3):
    if rng.random() < zero_chance:
        return LocalElement.zero()
    ncoef = rng.randint(1, 3)
    coeffs = [field.of(rng.randint(-4, 4)) for _ in range(ncoef)]
    if all(c == field.zero for c in coeffs):
        coeffs[0] = field.one
    return LocalElement.make(field, rng.randint(-2, 2), coeffs)


def from_terms(field, ts):
    """The LocalElement of a term dict {exponent: field value}."""
    if not ts:
        return LocalElement.zero()
    lo, hi = min(ts), max(ts)
    return LocalElement.make(field, lo, [ts.get(d, field.zero) for d in range(lo, hi + 1)])


def decompose_element(x, e, u):
    """The e components of x over K_Y with w_y = u * t^e, rho = 0, ..., e-1,
    by the term-dict definition ``jetspace.component``: the reference that
    restriction of scalars reads 2e-1 offsets from."""
    p = x.p
    field = PrimeField(p) if p else QQ
    return [from_terms(field, component(p, terms(x, p), e, u, rho)) for rho in range(e)]


def random_columns(rng, n, field=QQ, extra=0):
    """n + extra random columns spanning a full lattice (retried on failure)."""
    while True:
        cols = [[random_element(rng, field) for _ in range(n)]
                for _ in range(n + extra)]
        try:
            Lattice.from_columns(field, n, cols)
        except SingularBasis:
            continue
        return cols


PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "parstack")


@functools.cache
def package_trees():
    """{file name: syntax tree} of every module of src/parstack, in name
    order: the one reader of the package for the source checks, which
    lists and parses it once per test session."""
    trees = {}
    for module in sorted(os.listdir(PACKAGE)):
        if module.endswith(".py"):
            with open(os.path.join(PACKAGE, module)) as fh:
                trees[module] = ast.parse(fh.read(), module)
    return trees


def callers_of(name):
    """(module file, enclosing function, line) of every call of ``name``,
    by bare name or attribute, in the package source."""
    found = set()

    def visit(module, node, fn):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else fn
            if isinstance(child, ast.Call):
                func = child.func
                if (getattr(func, "id", None) or getattr(func, "attr", None)) == name:
                    found.add((module, fn, child.lineno))
            visit(module, child, inner)

    for module, tree in package_trees().items():
        visit(module, tree, None)
    return found

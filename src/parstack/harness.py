"""Randomized differential verification of both functor pipelines.

A suite is a draw and a check behind one runner, ``Suite``.  The draw,
``draw(rng, cfg, mutation)``, takes all a trial needs from the trial's
seeded stream and returns the instance: a dict of domain objects (points,
modules, bundles, matrices, tuples of them) and strings, with the cover
profile under ``cover``.  The check, ``check(instance, mutation)``, runs
the parabolic and the graded pipeline on it, compares canonical forms
exactly and returns ``(ok, note)``.  It draws nothing, so a decoded
instance checks as the drawn one did.

Failures are data: a trial that raises fails with a note naming the
exception.  The report keeps every failing trial as a record with its
seed and instance, encoded only then; ``replay`` checks a record's
instance again, or draws the trial from its seed if the draw raised.  A
mutation only corrupts a value of its trial; the suite's checks must then
reject it.  Each suite registers its mutations, and a run refuses any other.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import time
from dataclasses import dataclass, field as dc_field

from . import __version__
from . import pairing as _pairing
from . import scenario as sio
from .fields import QQ, field_from_name
from .functors import (make_profile, pullback_graded, pullback_matrix,
                       pullback_parabolic, pullback_parabolic_line,
                       pushforward_graded, pushforward_matrix,
                       pushforward_parabolic, restrict_matrix)
from .linalg import block_diag, identity_matrix, mat_mul, transpose
from .localring import LocalElement
from .pairing import (ANTISYMMETRIC, SYMMETRIC, ParabolicPairing, check_pairing,
                      expected_branch_value_data, pullback_pairing,
                      pushforward_pairing)
from .lattice import entries_above, triangular_inverse
from .parabolic import (ParabolicBundle, ParabolicPoint, is_point_morphism,
                        split_into_lines)
from .rootstack import (GradedModule, from_parabolic, is_graded_morphism,
                        to_parabolic)

_Z = LocalElement.zero()


@dataclass(frozen=True)
class TrialConfig:
    seed: int = 0
    trials: int = 200
    max_rank: int = 3
    max_order: int = 12
    max_branches: int = 3
    field_name: str = "rational"

    def __post_init__(self):
        for name in ("seed", "trials", "max_rank", "max_order", "max_branches"):
            if type(getattr(self, name)) is not int:
                raise ValueError("%s must be an integer, not %r" % (name, getattr(self, name)))
        if self.trials < 1 or self.max_rank < 1 or self.max_order < 1 \
                or self.max_branches < 1:
            raise ValueError("all bounds must be >= 1")
        self.field

    @functools.cached_property
    def field(self):
        """The field of field_name, parsed once per config."""
        return field_from_name(self.field_name)

    def to_dict(self):
        return {"seed": self.seed, "trials": self.trials,
                "max_rank": self.max_rank, "max_order": self.max_order,
                "max_branches": self.max_branches, "field": self.field_name}

    @classmethod
    def from_dict(cls, d):
        """The config that ``to_dict`` wrote; ValueError for any other dict."""
        keys = sorted(cls().to_dict())
        if sorted(d) != keys:
            raise ValueError("config needs the keys %s, not %s" % (keys, sorted(d)))
        return cls(**{"field_name" if key == "field" else key: d[key] for key in keys})


@dataclass
class TrialReport:
    suite: str
    config: TrialConfig
    verdicts: list = dc_field(default_factory=list)   # (index, ok, note)
    failures: list = dc_field(default_factory=list)   # replayable dicts
    coverage: dict = dc_field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.verdicts)

    def to_dict(self, with_timing=True):
        out = {"suite": self.suite,
               "config": self.config.to_dict(),
               "trials": len(self.verdicts),
               "passed": self.passed,
               "verdicts": [[i, ok, note] for i, ok, note in self.verdicts],
               "failures": self.failures,
               "coverage": {k: self.coverage[k] for k in sorted(self.coverage)}}
        if with_timing:
            out["elapsed_seconds"] = self.elapsed
        return out


# -- generators ------------------------------------------------------------


def _add_columns(cols, ops):
    """A copy of the list of columns ``cols`` with f times column j added
    to column i for each operation (i, j, f) of ops in turn; zero products
    are skipped."""
    cols = list(cols)
    for i, j, f in ops:
        if f.coeffs:
            cols[i] = [x + f * y if y.coeffs else x for x, y in zip(cols[i], cols[j])]
    return cols


def gen_unimodular(rng, field, n):
    """(lifts, ops): the columns of a random unimodular-over-R matrix and
    the column operations (i, j, f) that build them from the identity
    (``_add_columns``)."""
    ops = []
    if n > 1:
        for _ in range(n + rng.randint(0, n)):
            i, j = rng.sample(range(n), 2)
            c = field.of(rng.choice([-2, -1, 1, 2]))
            ops.append((i, j, LocalElement.make(field, rng.randint(0, 2), [c])))
    return _add_columns(identity_matrix(field, n), ops), ops


def gen_parabolic_point(rng, n, r, field=QQ):
    """Random chain: random fiber flag in a random basis with bounded twists."""
    jumps = [rng.randint(0, r - 1) for _ in range(n)]
    exps = [rng.randint(-2, 2) for _ in range(n)]
    lifts, _ = gen_unimodular(rng, field, n)
    return ParabolicPoint.from_lines(field, r, lifts, exps, jumps)


def gen_profile(rng, s, max_branches, field=QQ, rank_bound=None, max_rank=3):
    """Admissible profile plus branch ranks, total restricted rank bounded."""
    divisors = [e for e in range(1, s + 1) if s % e == 0]
    for _ in range(200):
        nb = rng.randint(1, max_branches)
        specs = []
        ranks = []
        total = 0
        for i in range(nb):
            e = rng.choice(divisors)
            unit = field.one if rng.random() < 0.4 else field.random_nonzero(rng)
            n = rng.randint(1, max_rank)
            specs.append(("x%d" % i, e, s // e, unit))
            ranks.append(n)
            total += n * e
        if rank_bound is None or total <= rank_bound:
            return make_profile(s, specs), ranks
    specs = [("x0", 1, s, field.one)]
    return make_profile(s, specs), [1]


def gen_point_morphism(rng, src, dst):
    """Random filtration-preserving matrix dst.n x src.n, via line coordinates:
    W * M * V^{-1} for the lifts V of src and W of dst, with M drawn by the
    criterion of ``is_point_morphism``, val(M_ik) >= [js_k > jd_i].  The
    lifts of dst are transposed once, into the row-major matrix W."""
    src_jumps, src_lifts = split_into_lines(src)
    dst_jumps, dst_lifts = split_into_lines(dst)
    field = src.field
    f = [[_Z] * src.n for _ in range(dst.n)]
    for bo in range(dst.n):
        for bi in range(src.n):
            if rng.random() < 0.35:
                continue
            vmin = 1 if src_jumps[bi] > dst_jumps[bo] else 0
            c = field.of(rng.randint(-3, 3))
            if c == field.zero:
                continue
            f[bo][bi] = LocalElement.make(field, vmin + rng.randint(0, 1), [c])
    src_inv = triangular_inverse(field, entries_above(src_lifts), src.chain[0].diag)
    return mat_mul(transpose(dst_lifts), mat_mul(f, src_inv))


def mix_lines(point, lines, rng):
    """The lifts of another adapted splitting of point: the lifts of
    ``lines = (jumps, lifts)`` mixed by random column operations adding
    c * v_k to v_i when jump(k) >= jump(i), which keep them adapted (they
    compose on the right: (B0 * V) * E = B0 * (V * E))."""
    n, (jumps, lifts) = point.n, lines
    ops = []
    if n > 1:
        for _ in range(n + rng.randint(0, n)):
            i, k = rng.sample(range(n), 2)
            if jumps[k] < jumps[i]:
                i, k = k, i
            ops.append((i, k, LocalElement.const(point.field, rng.choice([-2, -1, 1, 2]))))
    return _add_columns(lifts, ops)


# -- the runner ------------------------------------------------------------


def _raised(exc):
    return False, "raised %s: %s" % (type(exc).__name__, exc)


class Suite:
    """A suite: its report name, its draw, its check (module docstring) and
    its mutations, each name mapped to the run seeds it is tested at.
    Calling it with a TrialConfig runs cfg.trials trials, the mutation on
    the first, and returns the TrialReport."""

    def __init__(self, name, draw, check, mutations):
        self.name, self.draw, self.check, self.mutations = name, draw, check, mutations

    def require(self, mutation):
        """Refuse a mutation this suite does not register: ValueError."""
        if mutation is not None and (type(mutation) is not str
                                     or mutation not in self.mutations):
            raise ValueError("unknown mutation %r for suite %r" % (mutation, self.name))

    def verdict(self, instance, mutation):
        """(ok, note) of the check; a library error inside it fails."""
        self.require(mutation)
        try:
            return self.check(instance, mutation)
        except Exception as exc:
            return _raised(exc)

    def trial(self, seed, cfg, mutation):
        """Draw the instance of trial seed ``seed`` and check it: (ok, note,
        instance), with instance None when the draw raised."""
        self.require(mutation)
        try:
            instance = self.draw(random.Random(seed), cfg, mutation)
        except Exception as exc:
            return (*_raised(exc), None)
        return (*self.verdict(instance, mutation), instance)

    def __call__(self, cfg, mutation=None):
        rng = random.Random(cfg.seed)
        report = TrialReport(self.name, cfg)
        t0 = time.monotonic()
        for i in range(cfg.trials):
            seed = rng.getrandbits(64)
            ok, note, instance = self.trial(seed, cfg, mutation if i == 0 else None)
            if instance is not None:
                _bump(report.coverage, instance["cover"])
            report.verdicts.append((i, ok, note))
            if not ok:
                report.failures.append({
                    "suite": self.name, "trial_index": i, "trial_seed": seed,
                    "mutation": mutation, "note": note, "config": cfg.to_dict(),
                    "instance": None if instance is None else sio.encode_instance(instance)})
        report.elapsed = time.monotonic() - t0
        return report


def _bump(coverage, profile):
    hits = [key for br in profile.branches for key, hit in
            (("e>1", br.e > 1), ("r>1", br.r > 1), ("unit!=1", br.unit != 1)) if hit]
    for key in hits + ["multi-branch"] * (len(profile.branches) > 1):
        coverage[key] = coverage.get(key, 0) + 1


def _weights_key(point):
    return tuple((str(w), m) for w, m in point.weights())


# -- direct image ----------------------------------------------------------


def _draw_direct(rng, cfg, mutation):
    """Source points over each branch, target points of the same ranks and
    a point morphism from each source to its target."""
    field = cfg.field
    s = rng.randint(2 if mutation else 1, cfg.max_order)
    profile, ranks = gen_profile(rng, s, cfg.max_branches, field,
                                 rank_bound=10, max_rank=cfg.max_rank)
    sources = tuple(gen_parabolic_point(rng, n, br.r, field)
                    for br, n in zip(profile.branches, ranks))
    targets = tuple(gen_parabolic_point(rng, n, br.r, field)
                    for br, n in zip(profile.branches, ranks))
    morphisms = tuple(gen_point_morphism(rng, p, q) for p, q in zip(sources, targets))
    return {"cover": profile, "sources": sources, "targets": targets,
            "morphisms": morphisms}


def _check_direct(instance, mutation):
    profile, pts = instance["cover"], instance["sources"]
    s = profile.target_order
    mods = [from_parabolic(pt) for pt in pts]
    pushed_graded = pushforward_graded(profile, mods)
    if mutation == "transposed-grading":
        # corrupt the index map of the correspondence: use grade j, not s-j
        chain_a = [pushed_graded.pieces[0]]
        chain_a += [pushed_graded.pieces[j].scale(1) for j in range(1, s)]
        chain_a.append(pushed_graded.pieces[0].scale(1))
    else:
        chain_a = list(to_parabolic(pushed_graded).chain)
    if mutation == "broken-inclusion":
        chain_a[1] = chain_a[1].scale(1)
    route_b = pushforward_parabolic(profile, pts)
    if tuple(chain_a) != route_b.chain:
        return False, "pipeline mismatch"

    # weight law: alpha -> (alpha + l)/e over each branch
    expected = {}
    for br, pt in zip(profile.branches, pts):
        for w, m in pt.weights():
            for l in range(br.e):
                key = (w + l) / br.e
                expected[key] = expected.get(key, 0) + m
    got = dict(route_b.weights())
    if expected != got:
        return False, "weight law violated"

    # naturality of the drawn morphisms
    dst_pts, mats = instance["targets"], instance["morphisms"]
    dst_mods = [from_parabolic(pt) for pt in dst_pts]
    for mat, msrc, mdst in zip(mats, mods, dst_mods):
        if not is_graded_morphism(mat, msrc, mdst):
            return False, "generated morphism not graded"
    pushed_mat = pushforward_matrix(profile, mats)
    if not is_point_morphism(pushed_mat, route_b,
                             pushforward_parabolic(profile, dst_pts)):
        return False, "pushforward not natural (parabolic)"
    if not is_graded_morphism(pushed_mat, pushed_graded,
                              pushforward_graded(profile, dst_mods)):
        return False, "pushforward not natural (graded)"
    return True, "weights=%r" % (_weights_key(route_b),)


# -- pullback --------------------------------------------------------------


def _draw_pullback(rng, cfg, mutation):
    """A point on a one-branch cover, two other adapted splittings mixed
    from its own, each kept as the row-major matrix whose columns are its
    lifts, a target point and a morphism to it."""
    field = cfg.field
    s = rng.randint(1, cfg.max_order)
    profile, _ = gen_profile(rng, s, 1, field, max_rank=1)
    n = rng.randint(1, cfg.max_rank)
    point = gen_parabolic_point(rng, n, s, field)
    lines = split_into_lines(point)
    splittings = tuple(transpose(mix_lines(point, lines, random.Random(rng.getrandbits(32))))
                       for _ in range(2))
    target = gen_parabolic_point(rng, n, s, field)
    return {"cover": profile, "point": point, "splittings": splittings,
            "target": target, "morphism": gen_point_morphism(rng, point, target)}


def _check_pullback(instance, mutation):
    profile, point = instance["cover"], instance["point"]
    br = profile.branches[0]
    jumps, lifts = split_into_lines(point)
    pulled = pullback_parabolic(profile, point, br.label, lines=(jumps, lifts))
    pulled_graded = pullback_graded(profile, from_parabolic(point), br.label)
    if mutation == "wrong-twist":
        pulled_graded = GradedModule(
            br.r, [p.scale(1) for p in pulled_graded.pieces])
    if to_parabolic(pulled_graded) != pulled:
        return False, "pipeline mismatch"

    # splitting independence: mixing keeps the jumps
    for mixed in map(transpose, instance["splittings"]):
        if pullback_parabolic(profile, point, br.label, lines=(jumps, mixed)) != pulled:
            return False, "splitting dependence"

    # weight and twist law
    expected = {}
    twist_total = 0
    for w, m in point.weights():
        twist, frac = pullback_parabolic_line(w, br.e, br.r)
        expected[frac] = expected.get(frac, 0) + m
        twist_total += twist * m
    if expected != dict(pulled.weights()):
        return False, "weight law violated"
    if pulled.chain[0].det_valuation() != \
            br.e * point.chain[0].det_valuation() - twist_total:
        return False, "twist law violated"

    # naturality: substituted morphisms stay morphisms
    dst, rows = instance["target"], instance["morphism"]
    pulled_rows = pullback_matrix(profile, rows, br.label)
    if not is_point_morphism(pulled_rows, pulled, pullback_parabolic(profile, dst, br.label)):
        return False, "pullback not natural"
    # restriction undoes base change: res(bc(A)) = A (x) I_e
    if restrict_matrix(pulled_rows, br.e, br.unit) != [
            [x if rho == sigma else _Z for x in row for sigma in range(br.e)]
            for row in rows for rho in range(br.e)]:
        return False, "restriction does not undo base change"
    return True, "weights=%r" % (_weights_key(pulled),)


# -- pairings --------------------------------------------------------------


def _value_line_bundle(field, label, order, jump, g):
    """Rank-1 bundle of parabolic degree 0: local datum (g, jump) at label,
    balanced by an auxiliary unmarked-side weight."""
    pts = {label: ParabolicPoint.line(field, order, jump, g)}
    if jump == 0:
        return ParabolicBundle(1, 0, pts)
    pts["aux"] = ParabolicPoint.line(field, order, order - jump, 0)
    return ParabolicBundle(1, -1, pts)


def _line_pair(r, c_l, g_l, a_v, g_v, g_w):
    """(a_w, h): the one partner jump and exponent that make the block of
    lines v, w (twists g_v, g_w) perfect for value datum (g_l, c_l); a
    self-pair is the case a_w = a_v, g_w = g_v.

    With nu_x(q*r + k) = q + g_x + [k > a_x], the form t^h swapping the
    lines (up to sign) satisfies level a, b = r + c_l - a, iff
    h = 1 + g_l - nu_v(a) - nu_w(b) = 1 + g_l - nu_w(a) - nu_v(b).  From a
    to a + 1 < r the first value moves by [a = (c_l-1-a_w) mod r] - [a = a_v],
    so it is constant iff a_w = (c_l - 1 - a_v) mod r, and so is the second.
    At a = 0 both read g_l - g_v - g_w - [a_v + a_w < c_l], since a_v + a_w
    is c_l - 1 if a_v < c_l and r + c_l - 1 otherwise.  For g_l, g_v, g_w
    in {-1, 0, 1}, h lies in [-4, 3].
    """
    a_w = (c_l - 1 - a_v) % r
    return a_w, g_l - g_v - g_w - (a_v + a_w < c_l)


def _find_line_pair(rng, field, r, c_l, g_l, kind, self_pair):
    """A perfect line block for value datum (g_l, c_l), or None.

    The jumps a_v are tried in shuffled order, drawing g_v (and g_w, unless
    self_pair) for each; the partner and exponent come from `_line_pair`.
    The first candidate with h in -4..4, and for a self-pair a_w = a_v,
    wins: the block a `check_pairing` search over a_w ascending and
    h = -4..4 would find, with the same draws from rng.
    """
    cands = list(range(r))
    rng.shuffle(cands)
    if self_pair and kind == ANTISYMMETRIC:  # no alternating 1x1 form; the shuffle is drawn
        return None
    for a_v in cands:
        g_v = rng.randint(-1, 1)
        g_w = g_v if self_pair else rng.randint(-1, 1)
        a_w, h = _line_pair(r, c_l, g_l, a_v, g_v, g_w)
        if -4 <= h <= 4 and (a_w == a_v or not self_pair):
            th = LocalElement.t_power(field, h)
            if self_pair:
                return ([a_v], [g_v], [[th]])
            form = [[_Z, th], [-th if kind == ANTISYMMETRIC else th, _Z]]
            return ([a_v, a_w], [g_v, g_w], form)
    return None


def gen_pairing_point(rng, field, r, c_l, g_l, kind, blocks, label):
    """Random perfect pairing at one point: block-diagonal line pairs
    conjugated by a random unimodular change of basis."""
    jumps, exps, form_blocks = [], [], []
    for _ in range(blocks):
        self_pair = kind == SYMMETRIC and rng.random() < 0.3
        found = _find_line_pair(rng, field, r, c_l, g_l, kind, self_pair)
        if found is None:
            found = _find_line_pair(rng, field, r, c_l, g_l, kind, False)
        if found is None:
            return None
        js, gs, fb = found
        jumps.extend(js)
        exps.extend(gs)
        form_blocks.append(fb)
    n = len(jumps)
    phi = block_diag(form_blocks)
    lifts, ops = gen_unimodular(rng, field, n)
    pt = ParabolicPoint.from_lines(field, r, lifts, exps, jumps)
    # V^{-1} undoes ops last first.  Undone on the columns of phi they give
    # those of phi * V^{-1}; undone on its rows, read as columns, they give
    # the columns of V^{-T} * phi^T * V^{-1}: the rows of F = V^{-T} * phi * V^{-1}
    undo = [(i, j, -f) for i, j, f in reversed(ops)]
    form = _add_columns(transpose(_add_columns(transpose(phi), undo)), undo)
    value = _value_line_bundle(field, label, r, c_l, g_l)
    return pt, form, value


def _flip_symmetry(form, kind, field):
    """The (form, kind) of the flipped-symmetry mutation: the form with its
    first nonzero off-diagonal entry negated.  Outside characteristic 2,
    -x != x exactly when x != 0, and in it never, so the first entry with
    -x != x is the one.  When negating changes nothing (no such entry, or
    characteristic 2), entry (0, 0) gets a nonzero coefficient at t, t
    added unless that cancels a t term it has, and the form is declared
    antisymmetric, which a nonzero diagonal entry breaks.  Declaring the
    other kind alone is often right over GF(2), where an alternating form
    is symmetric.  The term is t, not a constant: the residue push along an
    even e erases a constant diagonal entry but keeps a t term."""
    bad = [r[:] for r in form]
    for i, row in enumerate(form):
        for j, x in enumerate(row):
            if i != j and -x != x:
                bad[i][j] = -x
                return bad, kind
    if not form[0][0].high_div(1).truncate(1).coeffs:
        bad[0][0] = form[0][0] + LocalElement.t_power(field, 1)
    return bad, ANTISYMMETRIC


def _draw_corollaries(rng, cfg, mutation):
    """A perfect pairing to pull back along a one-branch cover, or one per
    branch to push forward, valued in a drawn value line.  A pull draw
    always finds its pairing: its value datum has g_l in {-1, 0, 1}, so
    every line pair has h in [-4, 3] (``_line_pair``).  A branch datum
    g_x = e * g_l - c_l // r can lie further out; when a branch finds no
    pair in -4..4 the instance is vacuous: its cover, kind and direction,
    and the note under ``vacuous``."""
    field = cfg.field
    kind = SYMMETRIC if rng.random() < 0.5 else ANTISYMMETRIC
    s = rng.choice([m for m in range(1, min(cfg.max_order, 8) + 1)])
    direction = rng.choice(["push", "pull"])
    instance = {"kind": kind, "direction": direction}

    if direction == "pull":
        divisors = [e for e in range(1, s + 1) if s % e == 0]
        e = rng.choice(divisors)
        unit = field.one if rng.random() < 0.3 else field.random_nonzero(rng)
        instance["cover"] = make_profile(s, [("x0", e, s // e, unit)])
        c_l, g_l = rng.randint(0, s - 1), rng.randint(-1, 1)
        pt, form, value = gen_pairing_point(rng, field, s, c_l, g_l, kind,
                                            rng.randint(1, 2), "y")
        if mutation == "flipped-symmetry":
            form, instance["kind"] = _flip_symmetry(form, kind, field)
        return dict(instance, bundle=ParabolicBundle(pt.n, 0, {"y": pt}),
                    form=form, value_line=value)

    # pushforward direction
    profile, _ = gen_profile(rng, s, cfg.max_branches, field,
                             rank_bound=8, max_rank=1)
    instance["cover"] = profile
    c_l, g_l = rng.randint(0, s - 1), rng.randint(-1, 1)
    value = _value_line_bundle(field, "y", s, c_l, g_l)
    points, forms = [], []
    for br in profile.branches:
        g_x, c_x = expected_branch_value_data(profile, br, value, "y")
        made = gen_pairing_point(rng, field, br.r, c_x, g_x, kind, 1, br.label)
        if made is None:
            return dict(instance, vacuous="no branch instance at this size")
        pt, form, _ = made
        if mutation == "flipped-symmetry" and not forms:
            form, instance["kind"] = _flip_symmetry(form, kind, field)
        points.append(pt)
        forms.append(form)
    return dict(instance, value_line=value, points=tuple(points), forms=tuple(forms))


def _check_corollaries(instance, mutation):
    if "vacuous" in instance:
        return True, instance["vacuous"]
    profile, kind, value = instance["cover"], instance["kind"], instance["value_line"]
    if instance["direction"] == "pull":
        done, functor, label = "pulled", "pullback", profile.branches[0].label
        bundle = instance["bundle"]
        # pullback_pairing checks its input
        pairing, transported = pullback_pairing(
            profile, ParabolicPairing(kind, instance["form"], value), bundle, "y")
        stack = pullback_graded(profile, from_parabolic(bundle.points["y"]), label)
    else:
        done, functor, label = "pushed", "pushforward", "y"
        points = instance["points"]
        pairing, transported = pushforward_pairing(profile, value, "y", [
            (pt, form, expected_branch_value_data(profile, br, value, "y"))
            for br, pt, form in zip(profile.branches, points, instance["forms"])])
        stack = pushforward_graded(profile, [from_parabolic(pt) for pt in points])
    # the drawn kind must hold on the transported form; check_pairing tests
    # an agreeing label.  Over GF(2) an alternating form is symmetric too, so
    # a label that differs may still be right
    if pairing.kind != kind and not _pairing._symmetry_holds(kind, pairing.form):
        return False, "kind not preserved"
    if not check_pairing(pairing, transported):
        return False, "%s pairing imperfect" % done
    # stack-side transport of the underlying chain
    if to_parabolic(stack) != transported.points[label]:
        return False, "stack-side %s disagrees" % functor
    return True, "%s ok" % instance["direction"]


# -- suite dispatch --------------------------------------------------------


# seeds chosen so every corruption actually perturbs its instance
verify_direct_image = Suite("direct", _draw_direct, _check_direct, {
    "broken-inclusion": range(1000, 1005),
    "transposed-grading": (3000, 3001, 3004, 3005, 3006)})
verify_pullback = Suite("pull", _draw_pullback, _check_pullback,
                        {"wrong-twist": range(2000, 2005)})
verify_corollaries = Suite("corollaries", _draw_corollaries, _check_corollaries,
                           {"flipped-symmetry": range(4000, 4005)})
SUITES = {suite.name: suite
          for suite in (verify_direct_image, verify_pullback, verify_corollaries)}


def verify_document(cfg, reports):
    """The document of a verify run over the suites' ``reports``: the tool
    version, the config and its hash, whether every suite passed, each
    suite's report and, apart from them, their timing."""
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    return {"tool_version": __version__,
            "seed": cfg.seed,
            "config": cfg.to_dict(),
            "config_hash": hashlib.sha256(blob).hexdigest()[:16],
            "passed": all(rep.passed for rep in reports),
            "reports": [rep.to_dict(with_timing=False) for rep in reports],
            "timing": {rep.suite: rep.elapsed for rep in reports}}


def replay(record):
    """(suite, index, ok, note, reproduced) of a failure record of a run,
    reproduced if it fails with the recorded note.  A malformed record
    raises ValueError, an undecodable instance the decoder's input error."""
    if type(record) is not dict or type(record.get("config")) is not dict:
        raise ValueError("the record and its config must be JSON objects")
    name, index = record.get("suite"), record.get("trial_index")
    if type(name) is not str or name not in SUITES:
        raise ValueError("unknown suite %r" % (name,))
    if type(index) is not int or index < 0:
        raise ValueError("trial_index must be an integer >= 0, not %r" % (index,))
    cfg, suite = TrialConfig.from_dict(record["config"]), SUITES[name]
    mutation = record.get("mutation")
    if record.get("instance") is not None:
        ok, note = suite.verdict(sio.decode_instance(record["instance"], cfg.field), mutation)
    elif type(record.get("trial_seed")) is int:  # the draw raised: draw it again
        ok, note, _ = suite.trial(record["trial_seed"], cfg, mutation)
    else:
        raise ValueError("no instance and no integer trial_seed")
    return name, index, ok, note, not ok and note == record.get("note")

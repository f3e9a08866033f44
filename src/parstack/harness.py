"""Randomized differential verification of both functor pipelines.

Every suite draws reproducible instances from a seeded stream, runs the
parabolic and the graded pipeline, and compares canonical forms exactly.
Failures are data, not exceptions: the report records the first failing
trial with its serialized instance, and a trial that raises is recorded as
a failure named after the exception, keeping whatever instance it had
filled in before it raised.  A mutation only corrupts a value of its
trial; the suite's ordinary checks must then reject it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import lcm

from . import scenario as sio
from .fields import QQ, field_from_name
from .functors import (make_profile, pullback_graded, pullback_matrix,
                       pullback_parabolic, pullback_parabolic_line,
                       pushforward_graded, pushforward_matrix,
                       pushforward_parabolic)
from .linalg import add_column_multiple, block_diag, identity_matrix, mat_mul, transpose
from .localring import LocalElement
from .pairing import (ANTISYMMETRIC, SYMMETRIC, ParabolicPairing, check_pairing,
                      expected_branch_value_data, pullback_pairing,
                      pushforward_pairing)
from .parabolic import (ParabolicBundle, ParabolicPoint, SplitLines,
                        is_point_morphism, split_into_lines)
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
        field_from_name(self.field_name)

    @property
    def field(self):
        return field_from_name(self.field_name)

    def to_dict(self):
        return {"seed": self.seed, "trials": self.trials,
                "max_rank": self.max_rank, "max_order": self.max_order,
                "max_branches": self.max_branches, "field": self.field_name}


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


def gen_unimodular(rng, field, n):
    """Random unimodular-over-R matrix with its exact inverse (row-major)."""
    m = identity_matrix(field, n)
    minv = identity_matrix(field, n)
    if n < 2:
        return m, minv
    for _ in range(n + rng.randint(0, n)):
        i, j = rng.sample(range(n), 2)
        c = field.of(rng.choice([-2, -1, 1, 2]))
        d = rng.randint(0, 2)
        add_column_multiple(m, minv, i, j, LocalElement.make(field, d, [c]))
    return m, minv


def gen_parabolic_point(rng, n, r, field=QQ):
    """Random chain: random fiber flag in a random basis with bounded twists."""
    jumps = [rng.randint(0, r - 1) for _ in range(n)]
    exps = [rng.randint(-2, 2) for _ in range(n)]
    m, _ = gen_unimodular(rng, field, n)
    return ParabolicPoint.from_lines(field, r, m, exps, jumps)


def gen_graded_module(rng, n, s, field=QQ):
    return from_parabolic(gen_parabolic_point(rng, n, s, field))


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
    """Random filtration-preserving matrix dst.n x src.n, via line coordinates."""
    sps, spd = split_into_lines(src), split_into_lines(dst)
    field = src.field
    f = [[_Z] * src.n for _ in range(dst.n)]
    for bo in range(dst.n):
        for bi in range(src.n):
            if rng.random() < 0.35:
                continue
            vmin = 1 if sps.jumps[bi] > spd.jumps[bo] else 0
            c = field.of(rng.randint(-3, 3))
            if c == field.zero:
                continue
            f[bo][bi] = LocalElement.make(field, vmin + rng.randint(0, 1), [c])
    return mat_mul(spd.matrix, mat_mul(f, sps.inverse))


def mix_lines(point, lines, rng):
    """Another adapted splitting of point: ``lines`` mixed by random column
    operations adding c * v_k to v_i when jump(k) >= jump(i), which keep it
    adapted (they compose on the right: (B0 * V) * E = B0 * (V * E))."""
    n, jumps = point.n, lines.jumps
    mat = [row[:] for row in lines.matrix]
    inv = [row[:] for row in lines.inverse]
    if n > 1:
        for _ in range(n + rng.randint(0, n)):
            i, k = rng.sample(range(n), 2)
            if jumps[k] < jumps[i]:
                i, k = k, i
            c = LocalElement.const(point.field, rng.choice([-2, -1, 1, 2]))
            add_column_multiple(mat, inv, i, k, c)
    return SplitLines(jumps, mat, inv)


# -- suite plumbing --------------------------------------------------------


def _run_suite(name, cfg, trial_fn, mutation=None):
    """Run cfg.trials trials; each fills its instance dict before any check
    and returns (ok, note)."""
    rng = random.Random(cfg.seed)
    report = TrialReport(name, cfg)
    t0 = time.monotonic()
    for i in range(cfg.trials):
        trial_rng = random.Random(rng.getrandbits(64))
        instance = {}
        try:
            ok, note = trial_fn(trial_rng, cfg, report.coverage,
                                mutation if i == 0 else None, instance)
        except Exception as exc:
            # a library error inside a trial is a verification failure
            ok, note = False, "raised %s: %s" % (type(exc).__name__, exc)
        report.verdicts.append((i, ok, note))
        if not ok and not report.failures:
            report.failures.append({
                "suite": name,
                "trial_index": i,
                "mutation": mutation,
                "note": note,
                "config": cfg.to_dict(),
                "instance": instance or None,
            })
    report.elapsed = time.monotonic() - t0
    return report


def _bump(coverage, profile):
    for br in profile.branches:
        if br.e > 1:
            coverage["e>1"] = coverage.get("e>1", 0) + 1
        if br.r > 1:
            coverage["r>1"] = coverage.get("r>1", 0) + 1
        if br.unit != 1:
            coverage["unit!=1"] = coverage.get("unit!=1", 0) + 1
    if len(profile.branches) > 1:
        coverage["multi-branch"] = coverage.get("multi-branch", 0) + 1


def _weights_key(point):
    return tuple((str(w), m) for w, m in point.weights())


# -- direct image ----------------------------------------------------------


def _direct_image_trial(rng, cfg, coverage, mutation, instance):
    field = cfg.field
    s = rng.randint(2 if mutation else 1, cfg.max_order)
    profile, ranks = gen_profile(rng, s, cfg.max_branches, field,
                                 rank_bound=10, max_rank=cfg.max_rank)
    _bump(coverage, profile)
    mods = [gen_graded_module(rng, n, br.r, field)
            for br, n in zip(profile.branches, ranks)]
    pts = [to_parabolic(m) for m in mods]
    instance.update(field=field.name, cover=sio.encode_cover(profile, field),
                    objects=[dict(sio.encode_module(m, field), at=br.label)
                             for br, m in zip(profile.branches, mods)])

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
    if {k: v for k, v in expected.items() if v} != got:
        return False, "weight law violated"

    # naturality on a random morphism per trial
    dst_mods = [gen_graded_module(rng, n, br.r, field)
                for br, n in zip(profile.branches, ranks)]
    dst_pts = [to_parabolic(m) for m in dst_mods]
    mats = [gen_point_morphism(rng, p, q) for p, q in zip(pts, dst_pts)]
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


def verify_direct_image(cfg, mutation=None):
    return _run_suite("direct", cfg, _direct_image_trial, mutation)


# -- pullback --------------------------------------------------------------


def _pullback_trial(rng, cfg, coverage, mutation, instance):
    field = cfg.field
    s = rng.randint(1, cfg.max_order)
    profile, _ = gen_profile(rng, s, 1, field, max_rank=1)
    br = profile.branches[0]
    _bump(coverage, profile)
    n = rng.randint(1, cfg.max_rank)
    point = gen_parabolic_point(rng, n, s, field)
    instance.update(field=field.name, cover=sio.encode_cover(profile, field),
                    objects=[dict(sio.encode_point(point, field), at="y",
                                  kind="parabolic_point")])

    # the splitting is shared by the pullback and its mixed alternatives
    lines = split_into_lines(point)
    pulled = pullback_parabolic(profile, point, br.label, lines=lines)
    module = from_parabolic(point)
    pulled_graded = pullback_graded(profile, module, br.label)
    if mutation == "wrong-twist":
        pulled_graded = GradedModule(
            br.r, [p.scale(1) for p in pulled_graded.pieces])
    if to_parabolic(pulled_graded) != pulled:
        return False, "pipeline mismatch"

    # splitting independence: two random adapted bases, identical result
    for _ in range(2):
        alt = pullback_parabolic(profile, point, br.label, lines=mix_lines(
            point, lines, random.Random(rng.getrandbits(32))))
        if alt != pulled:
            return False, "splitting dependence"

    # weight and twist law
    expected = {}
    twist_total = 0
    for w, m in point.weights():
        twist, frac = pullback_parabolic_line(w, br.e, br.r)
        expected[frac] = expected.get(frac, 0) + m
        twist_total += twist * m
    if {k: v for k, v in expected.items() if v} != dict(pulled.weights()):
        return False, "weight law violated"
    if pulled.chain[0].det_valuation() != \
            br.e * point.chain[0].det_valuation() - twist_total:
        return False, "twist law violated"

    # naturality: substituted morphisms stay morphisms
    dst = gen_parabolic_point(rng, n, s, field)
    mat = gen_point_morphism(rng, point, dst)
    if not is_point_morphism(pullback_matrix(profile, mat, br.label), pulled,
                             pullback_parabolic(profile, dst, br.label)):
        return False, "pullback not natural"
    return True, "weights=%r" % (_weights_key(pulled),)


def verify_pullback(cfg, mutation=None):
    return _run_suite("pull", cfg, _pullback_trial, mutation)


# -- pairings --------------------------------------------------------------


def _value_line_bundle(field, label, order, jump, g):
    """Rank-1 bundle of parabolic degree 0: local datum (g, jump) at label,
    balanced by an auxiliary unmarked-side weight."""
    pts = {label: ParabolicPoint.line(field, order, jump, g)}
    if jump == 0:
        return ParabolicBundle(1, 0, pts)
    pts["aux"] = ParabolicPoint.line(field, order, order - jump)
    return ParabolicBundle(1, -1, pts)


def _line_pair_exponent(r, c_l, g_l, a_v, g_v, a_w, g_w):
    """The exponent h that makes the diagonal block perfect, or None.

    The block lives on E^m = diag(t^{nu_v(m)}, t^{nu_w(m)}) with
    nu_x(m) = g_x + [m > a_x] for m <= r and nu_x(m) = 1 + nu_x(m - r)
    beyond the chain; a self-pair is the case w = v (rank 1, form t^h).
    The form swaps the two lines (up to sign), so F^T * E^a is
    diag(t^{h + nu_w(a)}, t^{h + nu_v(a)}), while the target
    t^{1+g_l} * (E^b)^*, b = r + c_l - a, is
    diag(t^{1 + g_l - nu_v(b)}, t^{1 + g_l - nu_w(b)}).  Level a therefore
    holds iff

        h = 1 + g_l - nu_v(a) - nu_w(b) = 1 + g_l - nu_w(a) - nu_v(b),

    and the block is perfect iff these values agree over all a < r.
    """
    def nu(m, a_x, g_x):
        return g_x + (m > a_x) if m <= r else 1 + g_x + (m - r > a_x)

    hs = set()
    for a in range(r):
        b = r + c_l - a
        hs.add(1 + g_l - nu(a, a_v, g_v) - nu(b, a_w, g_w))
        hs.add(1 + g_l - nu(a, a_w, g_w) - nu(b, a_v, g_v))
    return hs.pop() if len(hs) == 1 else None


def _find_line_pair(rng, field, r, c_l, g_l, kind, self_pair):
    """A perfect line block for value datum (g_l, c_l), or None.

    Candidates come in the order of a search over jumps a_v (shuffled),
    a_w (ascending) and exponents h = -4..4: the first candidate whose
    closed-form exponent (`_line_pair_exponent`) lies in that range wins.
    Each jump pair admits at most one h, so this is the block a full
    `check_pairing` search would find, with the same draws from rng.
    """
    cands = list(range(r))
    rng.shuffle(cands)
    for a_v in cands:
        if self_pair:
            if kind == ANTISYMMETRIC:
                return None
            g_v = rng.randint(-1, 1)
            h = _line_pair_exponent(r, c_l, g_l, a_v, g_v, a_v, g_v)
            if h is not None and -4 <= h <= 4:
                return ([a_v], [g_v], [[LocalElement.t_power(field, h)]])
        else:
            g_v, g_w = rng.randint(-1, 1), rng.randint(-1, 1)
            for a_w in range(r):
                h = _line_pair_exponent(r, c_l, g_l, a_v, g_v, a_w, g_w)
                if h is not None and -4 <= h <= 4:
                    th = LocalElement.t_power(field, h)
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
    m, minv = gen_unimodular(rng, field, n)
    pt = ParabolicPoint.from_lines(field, r, m, exps, jumps)
    form = mat_mul(transpose(minv), mat_mul(phi, minv))
    value = _value_line_bundle(field, label, r, c_l, g_l)
    return pt, form, value


def _flip_off_diagonal(form):
    """A copy of the form with its first nonzero off-diagonal entry negated."""
    bad = [row[:] for row in form]
    for i, row in enumerate(bad):
        for j, x in enumerate(row):
            if i != j and not x.is_zero():
                row[j] = -x
                return bad
    return bad


def _flip_symmetry(form, kind):
    """The (form, kind) of the flipped-symmetry mutation: the form with an
    off-diagonal sign flipped, or, when that leaves it unchanged (no nonzero
    off-diagonal entry), the form with the other kind declared."""
    bad = _flip_off_diagonal(form)
    if bad != form:
        return bad, kind
    return form, ANTISYMMETRIC if kind == SYMMETRIC else SYMMETRIC


def _corollary_trial(rng, cfg, coverage, mutation, instance):
    field = cfg.field
    kind = SYMMETRIC if rng.random() < 0.5 else ANTISYMMETRIC
    s = rng.choice([m for m in range(1, min(cfg.max_order, 8) + 1)])
    direction = rng.choice(["push", "pull"])
    instance.update(field=field.name, kind=kind, direction=direction)

    if direction == "pull":
        divisors = [e for e in range(1, s + 1) if s % e == 0]
        e = rng.choice(divisors)
        unit = field.one if rng.random() < 0.3 else field.random_nonzero(rng)
        profile = make_profile(s, [("x0", e, s // e, unit)])
        _bump(coverage, profile)
        c_l, g_l = rng.randint(0, s - 1), rng.randint(-1, 1)
        made = gen_pairing_point(rng, field, s, c_l, g_l, kind, rng.randint(1, 2), "y")
        if made is None:
            return True, "no instance at this size"
        pt, form, value = made
        if mutation == "flipped-symmetry":
            form, kind = _flip_symmetry(form, kind)
            instance["kind"] = kind
        bundle = ParabolicBundle(pt.n, 0, {"y": pt})
        instance["cover"] = sio.encode_cover(profile, field)
        instance["objects"] = [sio.encode_bundle(bundle, field)]
        instance["pairing"] = {"kind": kind,
                               "form": sio.encode_matrix_cols(form, field),
                               "value_line": sio.encode_bundle(value, field)}
        pairing = ParabolicPairing(kind, form, value)
        # pullback_pairing checks its input
        pulled_pairing, pulled_bundle = pullback_pairing(profile, pairing, bundle, "y")
        if pulled_pairing.kind != kind:
            return False, "kind not preserved"
        if not check_pairing(pulled_pairing, pulled_bundle):
            return False, "pulled pairing imperfect"
        # stack-side transport of the underlying chain
        stack = to_parabolic(pullback_graded(profile, from_parabolic(pt), "x0"))
        if stack != pulled_bundle.points["x0"]:
            return False, "stack-side pullback disagrees"
        return True, "pull ok"

    # pushforward direction
    profile, ranks = gen_profile(rng, s, cfg.max_branches, field,
                                 rank_bound=8, max_rank=1)
    _bump(coverage, profile)
    c_l, g_l = rng.randint(0, s - 1), rng.randint(-1, 1)
    value = _value_line_bundle(field, "y", s, c_l, g_l)
    branch_pairs = []
    branch_encoded = []
    expected = kind
    for br in profile.branches:
        g_x, c_x = expected_branch_value_data(profile, br, value, "y")
        made = gen_pairing_point(rng, field, br.r, c_x, g_x, kind, 1, br.label)
        if made is None:
            return True, "no branch instance at this size"
        pt, form, _ = made
        if mutation == "flipped-symmetry" and not branch_pairs:
            form, expected = _flip_symmetry(form, kind)
            instance["kind"] = expected
        branch_pairs.append((pt, form, (g_x, c_x)))
        branch_encoded.append({"at": br.label,
                               "point": sio.encode_point(pt, field),
                               "form": sio.encode_matrix_cols(form, field)})
    instance["cover"] = sio.encode_cover(profile, field)
    instance["branch_pairs"] = branch_encoded
    instance["value_line"] = sio.encode_bundle(value, field)
    pushed_pairing, pushed_bundle = pushforward_pairing(profile, value, "y",
                                                        branch_pairs)
    if pushed_pairing.kind != expected:
        return False, "kind not preserved"
    if not check_pairing(pushed_pairing, pushed_bundle):
        return False, "pushed pairing imperfect"
    stack = to_parabolic(pushforward_graded(
        profile, [from_parabolic(pt) for pt, _, _ in branch_pairs]))
    if stack != pushed_bundle.points["y"]:
        return False, "stack-side pushforward disagrees"
    return True, "push ok"


def verify_corollaries(cfg, mutation=None):
    return _run_suite("corollaries", cfg, _corollary_trial, mutation)


# -- degree law ------------------------------------------------------------


def degree_scenario_trial(rng):
    """One random global line scenario; returns (pulled degree, oracle)."""
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


# -- suite dispatch --------------------------------------------------------


SUITES = {
    "direct": verify_direct_image,
    "pull": verify_pullback,
    "corollaries": verify_corollaries,
}

# seeds chosen so every corruption actually perturbs its instance
MUTATIONS = []
for _i, _tg in zip(range(5), (3000, 3001, 3004, 3005, 3006)):
    MUTATIONS.append(("direct", "broken-inclusion", 1000 + _i))
    MUTATIONS.append(("pull", "wrong-twist", 2000 + _i))
    MUTATIONS.append(("direct", "transposed-grading", _tg))
    MUTATIONS.append(("corollaries", "flipped-symmetry", 4000 + _i))


def run_mutation(suite, mutation, seed, field_name="rational"):
    """One corrupted trial; the verifier must flag it."""
    cfg = TrialConfig(seed=seed, trials=1, field_name=field_name,
                      max_order=8)
    return SUITES[suite](cfg, mutation=mutation)

"""The four benchmark workloads.

Each workload turns the run seed into its inputs, runs one op at a time
and checks the op's output outside the timed call.  Op k of a run with
seed S uses the inputs of the contiguous range that starts at
S * SEED_STRIDE, so no op repeats an input within a run.

Protocol of a workload object:

* ``rounds`` -- how many input rounds set-up builds; ``build_round(r)``
  builds one, and every round has the same composition of input shapes
  (a run of a fixed op count builds rounds until it has enough ops);
* ``size()`` -- ops available after set-up (None: unbounded);
* ``run_op(k)`` -- the timed call into the program; returns its raw output;
* ``check(k, out)`` -- ``(ok, digest)`` for that output;
* ``info()`` -- labels describing the inputs actually used.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil

from parstack import cli, fields, functors, harness, pairing, parabolic
from parstack import rootstack
from parstack import scenario as sio

SEED_STRIDE = 1_000_000
GF101 = "prime:101"

# verify-pairing-gf101 caps the corollaries suite at target order 4 and one
# branch, so a pushed pairing has rank at most 8.  With the defaults (order
# 8, three branches) the rank-2 hyperbolic blocks reach pushed rank 16, and
# single trials with long form entries ran for more than 60 s;
# pairing-longform carries that long-entry mechanism at a bounded size.
COROLLARY_MAX_ORDER = 4
COROLLARY_MAX_BRANCHES = 1

# pairing-longform rounds: per field, one short form (t-span < LONG_SPAN,
# reach <= SHORT_REACH) of branch order 1 in even rounds and 2 in odd ones,
# pushed along SHORT_ES, and one long form (t-span >= LONG_SPAN, reach <=
# LONG_REACH) of branch order 1, pushed along LONG_ES, so the rounds have the
# same shapes.  Past these bounds single ops took 1-42 s on the reference
# machine (reach 3 at e=7: 2.7 s; reach 6 at e=4: 2.4 s; reach 7 at e=7: 42 s
# over Q), too few ops for a run.
LONG_SPAN = 7
SHORT_REACH = 2
SHORT_ES = (1, 2, 3, 4, 5, 6, 7)
LONG_REACH = 10
LONG_ES = (1, 2, 3)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def form_span(form):
    """Largest t-span (degree minus order) over the entries of a form."""
    return max((x.degree - x.ord for row in form for x in row if not x.is_zero()),
               default=0)


def form_reach(form):
    """The larger of the form's largest |t-exponent| and its exponent range."""
    entries = [x for row in form for x in row if not x.is_zero()]
    if not entries:
        return 0
    lo = min(x.ord for x in entries)
    hi = max(x.degree for x in entries)
    return max(-lo, hi, hi - lo)


# -- verify workloads -------------------------------------------------------


class _VerifyWorkload:
    """One op is one suite call with trials=1 on trial seed base + k."""

    rounds = 0
    field_name = "rational"
    max_order = 12
    max_branches = 3

    def __init__(self, seed, workdir=None):
        self.base = seed * SEED_STRIDE

    def size(self):
        return None

    def config(self, k):
        return harness.TrialConfig(seed=self.base + k, trials=1,
                                   field_name=self.field_name,
                                   max_order=self.max_order,
                                   max_branches=self.max_branches)

    def check(self, k, report):
        text = json.dumps(report.to_dict(with_timing=False), sort_keys=True)
        return report.passed, digest(text)

    def info(self):
        return {"trial_seed_base": self.base, "field": self.field_name,
                "max_order": self.max_order, "max_branches": self.max_branches}


class VerifyFunctorsQQ(_VerifyWorkload):
    name = "verify-functors-qq"
    why = ("direct image and pullback suites over Q: canonical forms, "
           "restrict_scalars and line splitting at small ranks; no pairings")
    tail_pct = 95
    trace_ops = 400
    gate_ops = 24

    def run_op(self, k):
        suite = harness.verify_direct_image if k % 2 == 0 else harness.verify_pullback
        return suite(self.config(k))


class VerifyPairingGF101(_VerifyWorkload):
    name = "verify-pairing-gf101"
    why = ("corollaries suite over GF(101): many small check_pairing, dual and "
           "hom_chain calls and the brute-force line-pair search")
    field_name = GF101
    max_order = COROLLARY_MAX_ORDER
    max_branches = COROLLARY_MAX_BRANCHES
    tail_pct = 95
    trace_ops = 400
    gate_ops = 24

    def run_op(self, k):
        return harness.verify_corollaries(self.config(k))


# -- CLI scenarios ------------------------------------------------------------


CLI_COMMANDS = ("push-parabolic", "push-graded", "pull-parabolic", "pull-graded",
                "convert-to-graded", "convert-to-parabolic", "degree")
CLI_RANKS = (1, 2, 3, 4, 5)
MAX_ORDER = 12
MAX_PUSH_RANK = 12


def _divisors(s):
    return [e for e in range(1, s + 1) if s % e == 0]


def _unit(rng, field):
    return field.one if rng.random() < 0.5 else field.random_nonzero(rng)


def _encoded_point(rng, n, order, field, graded):
    pt = harness.gen_parabolic_point(rng, n, order, field)
    if graded:
        enc = sio.encode_module(rootstack.from_parabolic(pt), field)
        return dict(enc, kind="graded_module", rank=n)
    return dict(sio.encode_point(pt, field), kind="parabolic_point", rank=n)


def cli_scenario(rng, command, n):
    """A scenario dict for one CLI op at rank level n, and its expectation."""
    field = fields.QQ
    graded = command in ("push-graded", "pull-graded", "convert-to-parabolic")
    doc = {"version": sio.FORMAT_VERSION, "field": field.name}
    if command.startswith("push"):
        e = rng.randint(1, MAX_PUSH_RANK // n)
        s = e * rng.randint(1, MAX_ORDER // e)
        specs = [("x0", e, s // e, _unit(rng, field))]
        room = MAX_PUSH_RANK - n * e
        extra = [d for d in _divisors(s) if n * d <= room]
        if extra and rng.random() < 0.5:
            e2 = rng.choice(extra)
            specs.append(("x1", e2, s // e2, _unit(rng, field)))
        profile = functors.make_profile(s, specs)
        doc["cover"] = sio.encode_cover(profile, field)
        doc["objects"] = [dict(_encoded_point(rng, n, br.r, field, graded), at=br.label)
                          for br in profile.branches]
        return doc, {"rank": n * sum(br.e for br in profile.branches)}
    s = rng.randint(1, MAX_ORDER)
    if command.startswith("pull"):
        divs = _divisors(s)
        es = [rng.choice(divs) for _ in range(rng.randint(1, 2))]
        profile = functors.make_profile(
            s, [("x%d" % i, e, s // e, _unit(rng, field)) for i, e in enumerate(es)])
        doc["cover"] = sio.encode_cover(profile, field)
        doc["objects"] = [dict(_encoded_point(rng, n, s, field, graded), at="y")]
        return doc, {"objects": len(es), "rank": n}
    if command.startswith("convert"):
        doc["objects"] = [dict(_encoded_point(rng, n, s, field, graded), at="y",
                               underlying_degree=rng.randint(-2, 2))]
        return doc, {"objects": 1, "rank": n}
    points = {"p%d" % i: harness.gen_parabolic_point(rng, n, rng.randint(1, MAX_ORDER),
                                                     field)
              for i in range(rng.randint(1, 2))}
    bundle = parabolic.ParabolicBundle(n, rng.randint(-3, 3), points)
    doc["objects"] = [sio.encode_bundle(bundle, field)]
    return doc, {"rows": 1}


def cli_argv(command, path):
    if command.startswith("convert"):
        return ["convert", path, "--direction", command[len("convert-"):]]
    return [command.split("-")[0], path]


class CliScenariosQQ:
    """One op is one in-process ``parstack.cli.main`` call on its own file.

    A round holds every command at every rank level; set-up writes
    ``rounds`` rounds of scenario files into a work directory.
    """

    name = "cli-scenarios-qq"
    why = ("push, pull, convert and degree on scenario files over Q: the only "
           "workload that reads scenarios and dumps command output")
    tail_pct = 95
    trace_ops = 350
    gate_ops = len(CLI_COMMANDS) * len(CLI_RANKS)
    rounds = 42

    def __init__(self, seed, workdir=None):
        self.base = seed * SEED_STRIDE
        self.workdir = workdir
        self.ops = []      # (command, path, expectation)

    def build_round(self, r):
        for n in CLI_RANKS:
            for command in CLI_COMMANDS:
                k = len(self.ops)
                doc, expect = cli_scenario(random.Random(self.base + k), command, n)
                path = os.path.join(self.workdir, "s%05d.json" % k)
                with open(path, "w") as fh:
                    fh.write(sio.dumps(doc))
                self.ops.append((command, path, expect))

    def size(self):
        return len(self.ops)

    def run_op(self, k):
        command, path, _ = self.ops[k]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(cli_argv(command, path))
        return code, out.getvalue(), err.getvalue()

    def check(self, k, result):
        command, _, expect = self.ops[k]
        code, out, err = result
        ok = code == 0
        if ok and command == "degree":
            ok = len(out.splitlines()) == 1 + expect["rows"]
        elif ok:
            objects = json.loads(out)["objects"]
            if command.startswith("push"):
                ok = len(objects) == 1 and objects[0]["rank"] == expect["rank"]
            else:
                want = "parabolic_point" if command in (
                    "convert-to-parabolic", "pull-parabolic") else "graded_module"
                ok = (len(objects) == expect["objects"]
                      and all(o["kind"] == want and o["rank"] == expect["rank"]
                              for o in objects))
        return ok, digest("%d\n%s\0%s" % (code, out, err))

    def info(self):
        return {"seed_base": self.base, "files": len(self.ops),
                "commands": list(CLI_COMMANDS), "ranks": list(CLI_RANKS)}


# -- long-entry pairings ------------------------------------------------------


class PairingLongform:
    """One op is pushforward_pairing then check_pairing of one branch pairing.

    Branch pairings are rank-2 hyperbolic pairings from the public
    ``harness.gen_pairing_point`` with a trivial value line, drawn from a
    contiguous seed range.  A round takes the next seed giving a short form
    and the next giving a long form, builds each on Q and on GF(101), and
    pushes the short one along SHORT_ES and the long one along LONG_ES
    (ambient rank 2e).
    """

    name = "pairing-longform"
    why = ("pushforward and check of single-branch pairings on Q and GF(101) "
           "with long form entries: the kernel's degree-growth regime")
    tail_pct = 95
    trace_ops = 100
    gate_ops = 2 * (len(SHORT_ES) + len(LONG_ES))
    rounds = 40

    def __init__(self, seed, workdir=None):
        self.base = seed * SEED_STRIDE
        self.next_seed = self.base
        self.ops = []      # (field name, span, e, profile, value, branch pair)
        self.scanned = 0

    def _draw(self, field, seed, order):
        rng = random.Random(seed)
        kind = pairing.SYMMETRIC if rng.random() < 0.5 else pairing.ANTISYMMETRIC
        made = harness.gen_pairing_point(rng, field, order, 0, 0, kind, 1, "x0")
        if made is None:
            return None
        pt, form, _ = made
        return pt, form, _unit(rng, field)

    def _next_seed(self, order, long):
        """The next seed of the stream whose form at this order is long/short."""
        gf = fields.field_from_name(GF101)
        while True:
            seed = self.next_seed
            self.next_seed += 1
            self.scanned += 1
            made = self._draw(gf, seed, order)
            if made is None:
                continue
            span, reach = form_span(made[1]), form_reach(made[1])
            if long and span >= LONG_SPAN and reach <= LONG_REACH:
                return seed
            if not long and span < LONG_SPAN and reach <= SHORT_REACH:
                return seed

    def build_round(self, r):
        order = 1 + r % 2
        slots = [(self._next_seed(order, False), SHORT_ES),
                 (self._next_seed(order, True), LONG_ES)]
        for field_name in ("rational", GF101):
            field = fields.field_from_name(field_name)
            for seed, es in slots:
                pt, form, unit = self._draw(field, seed, order)
                for e in es:
                    s = pt.order * e
                    profile = functors.make_profile(s, [("x0", e, pt.order, unit)])
                    value = parabolic.ParabolicBundle(
                        1, 0, {"y": parabolic.ParabolicPoint.line(field, s, 0)})
                    self.ops.append((field_name, form_span(form), e, profile, value,
                                     (pt, form, (0, 0))))

    def size(self):
        return len(self.ops)

    def run_op(self, k):
        _, _, _, profile, value, branch = self.ops[k]
        pushed, bundle = pairing.pushforward_pairing(profile, value, "y", [branch])
        return pushed, bundle, pairing.check_pairing(pushed, bundle)

    def check(self, k, result):
        field_name, _, e, _, _, (pt, _, _) = self.ops[k]
        pushed, bundle, verdict = result
        field = fields.field_from_name(field_name)
        text = sio.dumps({"bundle": sio.encode_bundle(bundle, field),
                          "form": sio.encode_matrix_cols(pushed.form, field),
                          "verdict": verdict})
        return verdict is True and bundle.rank == pt.n * e, digest(text)

    def span_of(self, k):
        return self.ops[k][0], self.ops[k][1]

    def info(self):
        return {"seed_base": self.base, "seeds_scanned": self.scanned,
                "ops_built": len(self.ops), "long_span": LONG_SPAN,
                "short_reach": SHORT_REACH, "short_es": list(SHORT_ES),
                "long_reach": LONG_REACH, "long_es": list(LONG_ES)}


WORKLOADS = {w.name: w for w in (VerifyFunctorsQQ, VerifyPairingGF101,
                                 CliScenariosQQ, PairingLongform)}


@contextlib.contextmanager
def workdir(root):
    """A private scratch directory for scenario files, removed afterwards."""
    path = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(path))

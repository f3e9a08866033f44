"""Command-line interface: scenario commands and the verification entry point.

Subcommands: convert, push, pull, degree, verify, replay.
Exit codes: 0 success, 1 verification failure, 2 input error, 3 internal
error (a library guard fired).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from . import scenario as sio
from .errors import ParstackError, ParseError, ValidationError
from .fields import QQ
from .functors import (pullback_parabolic, pullback_graded,
                       pushforward_graded, pushforward_parabolic)
from .harness import SUITES, TrialConfig, replay, verify_document
from .parabolic import ParabolicBundle, parabolic_degree
from .rootstack import GradedModule, from_parabolic, to_parabolic

PASS, FAIL, USAGE, INTERNAL = 0, 1, 2, 3


def _read_scenario(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    return sio.loads(text)


def _write_out(obj, out_path):
    text = sio.dumps(obj)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _weight_table(point, heading):
    lines = ["%s  (rank %d, order %d)" % (heading, point.n, point.order),
             "  weight      multiplicity"]
    for w, m in point.weights():
        lines.append("  %-10s  %d" % (w, m))
    return "\n".join(lines)


# -- convert ---------------------------------------------------------------


def cmd_convert(args):
    scenario = _read_scenario(args.scenario)
    to_graded = args.direction == "to-graded"
    converted = []
    touched = 0
    for at, obj, deg in scenario.objects:
        if isinstance(obj, ParabolicBundle):
            if not to_graded:
                converted.append(sio.encode_object(obj))
                continue
            # the bundle's degree goes on its first point, so the rows sum to it
            items = [(label, obj.points[label], 0 if k else obj.underlying_degree)
                     for k, label in enumerate(obj.labels())]
        else:
            items = [(at, obj, deg or 0)]
        for label, item, degree in items:
            if to_graded != isinstance(item, GradedModule):  # on the source side
                item = from_parabolic(item) if to_graded else to_parabolic(item)
                touched += 1
            converted.append(sio.encode_placed(item, label, degree))
    if not touched:
        raise ValidationError("no objects in the source representation "
                              "for direction %r" % args.direction)
    _write_out(sio.echo(scenario, converted), args.out)
    return PASS


# -- push / pull -----------------------------------------------------------


def _read_covered(path):
    """The scenario of a file, its cover's target and profile."""
    scenario = _read_scenario(path)
    if scenario.cover is None:
        raise ParseError("scenario needs a 'cover' block")
    return (scenario, *scenario.cover)


def cmd_push(args):
    scenario, target, profile = _read_covered(args.scenario)
    per_branch = []
    for br in profile.branches:
        found = [obj for at, obj, _ in scenario.objects if at == br.label]
        if len(found) != 1:
            raise ValidationError("%s object at branch %r"
                                  % ("no" if not found else "more than one", br.label))
        per_branch.append(found[0])
    if len({type(obj) for obj in per_branch}) != 1:
        raise ValidationError("all branch objects must be on the same side")
    if isinstance(per_branch[0], GradedModule):
        result = pushforward_graded(profile, per_branch)
        pushed = to_parabolic(result)
    else:
        result = pushed = pushforward_parabolic(profile, per_branch)
    _write_out(sio.echo(scenario, [sio.encode_placed(result, target, None)]), args.out)
    print(_weight_table(pushed, "direct image at %r" % target), file=sys.stderr)
    return PASS


def cmd_pull(args):
    scenario, target, profile = _read_covered(args.scenario)
    sources = [(at, obj, deg) for at, obj, deg in scenario.objects
               if at == target or isinstance(obj, ParabolicBundle)]
    if len(sources) != 1:
        raise ValidationError("pull needs exactly one object at the target")
    source = sources[0][1]
    if isinstance(source, ParabolicBundle):
        if target not in source.points:
            raise ValidationError("bundle is not marked at target %r" % target)
        source = source.points[target]
    graded = isinstance(source, GradedModule)
    pullback = pullback_graded if graded else pullback_parabolic
    results, tables = [], []
    for br in profile.branches:
        result = pullback(profile, source, br.label)
        pulled = to_parabolic(result) if graded else result
        results.append(sio.encode_placed(result, br.label, None))
        tables.append(_weight_table(pulled, "pullback at %r" % br.label))
    _write_out(sio.echo(scenario, results), args.out)
    for tbl in tables:
        print(tbl, file=sys.stderr)
    if any(deg is not None for _, _, deg in scenario.objects):
        deg_f = sum(br.e for br in profile.branches)
        print("pulled parabolic degree: %s  (= deg f %s x source degree data)"
              % (deg_f * parabolic_degree(_as_bundle(*sources[0])[1]), deg_f),
              file=sys.stderr)
    return PASS


# -- degree ----------------------------------------------------------------


def _as_bundle(at, obj, deg):
    """(row name, bundle) of a decoded object: a bundle as it is, a point or
    module as the bundle marked only at its label, of its underlying degree."""
    if isinstance(obj, ParabolicBundle):
        return "bundle", obj
    graded = isinstance(obj, GradedModule)
    label = at or "y"
    return ("%s %r" % ("module" if graded else "point", label),
            ParabolicBundle(obj.n, deg or 0, {label: to_parabolic(obj) if graded else obj}))


def cmd_degree(args):
    rows = [_as_bundle(*item) for item in _read_scenario(args.scenario).objects]
    print("object        rank  parabolic degree")
    for name, bundle in rows:
        print("%-12s  %-4d  %s" % (name, bundle.rank, parabolic_degree(bundle)))
    return PASS


# -- verify / replay -------------------------------------------------------


def cmd_verify(args):
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    try:
        cfg = TrialConfig(seed=args.seed, trials=args.trials,
                          field_name=args.field)
    except ValueError as exc:
        raise ParseError(str(exc))
    reports = [SUITES[name](cfg) for name in suites]
    _write_out(verify_document(cfg, reports), args.out)
    for rep in reports:
        print("suite %-12s %s (%d trials)" %
              (rep.suite, "pass" if rep.passed else "FAIL", len(rep.verdicts)),
              file=sys.stderr)
    return PASS if all(rep.passed for rep in reports) else FAIL


def cmd_replay(args):
    try:
        with open(args.counterexample) as fh:
            record = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError("cannot read counterexample: %s" % exc)
    try:
        name, index, ok, note, reproduced = replay(record)
    except ValueError as exc:
        raise ParseError("malformed counterexample: %s" % exc)
    print("replay %s trial %d: %s (%r)" %
          (name, index, "fail" if not ok else "pass", note), file=sys.stderr)
    print("verdict %s" % ("reproduced" if reproduced else "NOT reproduced"), file=sys.stderr)
    return PASS if reproduced else FAIL


# -- entry point -----------------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built on the first call and reused after it."""
    p = argparse.ArgumentParser(prog="parstack",
                                description=__doc__.splitlines()[0])
    backend = type(QQ.one)
    p.add_argument("--version", action="version",
                   version="%s (coefficients: %s.%s)"
                   % (__version__, backend.__module__, backend.__qualname__))
    sub = p.add_subparsers(dest="command", required=True)

    for name, fn, text in (("convert", cmd_convert, "convert between the two representations"),
                           ("push", cmd_push, "direct image over the cover"),
                           ("pull", cmd_pull, "pullback along each branch"),
                           ("degree", cmd_degree, "parabolic degree table")):
        c = sub.add_parser(name, help=text)
        c.add_argument("scenario")
        if fn is cmd_convert:
            c.add_argument("--direction", choices=["to-graded", "to-parabolic"], required=True)
        if fn is not cmd_degree:
            c.add_argument("--out")
        c.set_defaults(fn=fn)

    c = sub.add_parser("verify", help="run the randomized differential checks")
    c.add_argument("--suite", choices=list(SUITES) + ["all"], default="all")
    c.add_argument("--trials", type=int, default=200)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--field", default="rational")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_verify)

    c = sub.add_parser("replay", help="replay a captured counterexample")
    c.add_argument("counterexample")
    c.set_defaults(fn=cmd_replay)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValidationError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return USAGE
    except ParstackError as exc:
        print("input error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return USAGE
    except AssertionError as exc:
        where = " ".join(filter(None, [args.command, getattr(args, "scenario", None)]))
        print("internal error: %s: %s" % (where, exc), file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())

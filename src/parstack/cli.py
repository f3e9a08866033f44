"""Command-line interface: scenario commands and the verification entry point.

Subcommands: convert, push, pull, degree, verify, replay.
Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

from . import __version__
from . import scenario as sio
from .errors import ParstackError, ParseError, ValidationError
from .fields import QQ
from .functors import (pullback_parabolic, pullback_graded,
                       pushforward_graded, pushforward_parabolic)
from .harness import SUITES, TrialConfig
from .parabolic import ParabolicBundle, parabolic_degree
from .rootstack import GradedModule, from_parabolic, to_parabolic

PASS, FAIL, USAGE = 0, 1, 2


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


def _decode_objects(field, raw):
    """The scenario's objects as (at-label, object, underlying_degree); each
    object is a ParabolicBundle (at None), a ParabolicPoint or a
    GradedModule."""
    objects = raw.get("objects", [])
    if not isinstance(objects, list):
        raise ParseError("'objects' must be a list")
    out = []
    for idx, obj in enumerate(objects):
        where = " (object %d)" % idx
        decoded = sio.decode_object(obj, field, where, sio.SCENARIO_KINDS)
        at = obj.get("at")
        if at is not None and type(at) is not str:
            raise ParseError("object%s: 'at' must be a string, not %r" % (where, at))
        if isinstance(decoded, ParabolicBundle):
            out.append((None, decoded, decoded.underlying_degree))
        else:
            # decoding checked the degree
            out.append((at, decoded, obj.get("underlying_degree", 0)))
    return out


def _weight_table(point, heading):
    lines = ["%s  (rank %d, order %d)" % (heading, point.n, point.order),
             "  weight      multiplicity"]
    for w, m in point.weights():
        lines.append("  %-10s  %d" % (w, m))
    return "\n".join(lines)


# -- convert ---------------------------------------------------------------


def cmd_convert(args):
    field, raw = _read_scenario(args.scenario)
    to_graded = args.direction == "to-graded"
    converted = []
    touched = 0
    for at, obj, deg in _decode_objects(field, raw):
        if isinstance(obj, ParabolicBundle):
            if not to_graded:
                converted.append(sio.encode_object(obj))
                continue
            items = [(label, obj.points[label]) for label in obj.labels()]
        else:
            items = [(at, obj)]
        for label, item in items:
            if to_graded != isinstance(item, GradedModule):  # on the source side
                item = from_parabolic(item) if to_graded else to_parabolic(item)
                touched += 1
            converted.append(dict(sio.encode_object(item), at=label, underlying_degree=deg))
    if not touched:
        raise ValidationError("no objects in the source representation "
                              "for direction %r" % args.direction)
    _write_out(dict(raw, objects=converted), args.out)
    return PASS


# -- push / pull -----------------------------------------------------------


def _cover_of(field, raw):
    cover = raw.get("cover")
    if cover is None:
        raise ParseError("scenario needs a 'cover' block")
    return sio.decode_cover(cover, field)


def cmd_push(args):
    field, raw = _read_scenario(args.scenario)
    target, profile = _cover_of(field, raw)
    objects = _decode_objects(field, raw)
    per_branch = []
    for br in profile.branches:
        found = [obj for at, obj, _ in objects if at == br.label]
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
    _write_out(dict(raw, objects=[dict(sio.encode_object(result), at=target)]), args.out)
    print(_weight_table(pushed, "direct image at %r" % target), file=sys.stderr)
    return PASS


def cmd_pull(args):
    field, raw = _read_scenario(args.scenario)
    target, profile = _cover_of(field, raw)
    sources = [(at, obj, deg) for at, obj, deg in _decode_objects(field, raw)
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
        results.append(dict(sio.encode_object(result), at=br.label))
        tables.append(_weight_table(pulled, "pullback at %r" % br.label))
    _write_out(dict(raw, objects=results), args.out)
    for tbl in tables:
        print(tbl, file=sys.stderr)
    if any("underlying_degree" in o for o in raw.get("objects", [])):
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
            ParabolicBundle(obj.n, deg, {label: to_parabolic(obj) if graded else obj}))


def cmd_degree(args):
    field, raw = _read_scenario(args.scenario)
    rows = [_as_bundle(*item) for item in _decode_objects(field, raw)]
    print("object        rank  parabolic degree")
    for name, bundle in rows:
        print("%-12s  %-4d  %s" % (name, bundle.rank, parabolic_degree(bundle)))
    return PASS


# -- verify / replay -------------------------------------------------------


def _config_hash(cfg):
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def cmd_verify(args):
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    try:
        cfg = TrialConfig(seed=args.seed, trials=args.trials,
                          field_name=args.field)
    except ValueError as exc:
        raise ParseError(str(exc))
    reports = [SUITES[name](cfg) for name in suites]
    all_pass = all(rep.passed for rep in reports)
    doc = {
        "tool_version": __version__,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "config_hash": _config_hash(cfg),
        "passed": all_pass,
        "reports": [rep.to_dict(with_timing=False) for rep in reports],
        "timing": {rep.suite: rep.elapsed for rep in reports},
    }
    _write_out(doc, args.out)
    for rep in reports:
        print("suite %-12s %s (%d trials)" %
              (rep.suite, "pass" if rep.passed else "FAIL", len(rep.verdicts)),
              file=sys.stderr)
    return PASS if all_pass else FAIL


def cmd_replay(args):
    try:
        with open(args.counterexample) as fh:
            record = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError("cannot read counterexample: %s" % exc)
    try:
        name = record["suite"]
        index = record["trial_index"]
        if type(index) is not int or index < 0:
            raise ValueError("trial_index must be an integer >= 0, not %r" % (index,))
        config = record["config"]
        cfg = TrialConfig(seed=config["seed"], trials=config["trials"],
                          max_rank=config["max_rank"], max_order=config["max_order"],
                          max_branches=config["max_branches"], field_name=config["field"])
    except (KeyError, TypeError) as exc:
        raise ParseError("malformed counterexample: missing %s" % exc)
    except ValueError as exc:
        raise ParseError("malformed counterexample: %s" % exc)
    if type(name) is not str or name not in SUITES:
        raise ParseError("unknown suite %r" % (name,))
    suite = SUITES[name]
    mutation = record.get("mutation")
    try:
        suite.require(mutation)
    except ValueError as exc:
        raise ParseError(str(exc))
    if record.get("instance") is not None:
        ok, note = suite.verdict(sio.decode_instance(record["instance"], cfg.field), mutation)
    else:
        # the draw raised: draw this one trial again
        seed = record.get("trial_seed")
        if type(seed) is not int:
            raise ParseError("malformed counterexample: no instance and no integer trial_seed")
        ok, note, _ = suite.trial(seed, cfg, mutation)
    reproduced = (not ok) and note == record.get("note")
    print("replay %s trial %d: %s (%r)" %
          (name, index, "fail" if not ok else "pass", note), file=sys.stderr)
    print("verdict %s" % ("reproduced" if reproduced else "NOT reproduced"),
          file=sys.stderr)
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

    c = sub.add_parser("convert", help="convert between the two representations")
    c.add_argument("scenario")
    c.add_argument("--direction", choices=["to-graded", "to-parabolic"],
                   required=True)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_convert)

    c = sub.add_parser("push", help="direct image over the cover")
    c.add_argument("scenario")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_push)

    c = sub.add_parser("pull", help="pullback along each branch")
    c.add_argument("scenario")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_pull)

    c = sub.add_parser("degree", help="parabolic degree table")
    c.add_argument("scenario")
    c.set_defaults(fn=cmd_degree)

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


if __name__ == "__main__":
    sys.exit(main())

"""CLI commands: conversion round trips, functor tables, verify/replay."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import parstack
from parstack import harness
from parstack.cli import main
from parstack.errors import SingularBasis

from conftest import run_mutation


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc, indent=2) + "\n")
    return str(p)


def child_env():
    """The environment for running parstack.cli in a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(parstack.__file__)), env.get("PYTHONPATH")]))
    return env


def line_scenario(weight="1/2", order=2, at="y", degree=None, cover=None):
    obj = {"kind": "parabolic_point", "at": at, "rank": 1, "order": order,
           "weights": [[weight, 1]]}
    if degree is not None:
        obj["underlying_degree"] = degree
    doc = {"version": 1, "field": "rational", "objects": [obj]}
    if cover is not None:
        doc["cover"] = cover
    return doc


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_version_names_the_coefficient_backend(capsys):
    with pytest.raises(SystemExit):
        main(["--version"])
    backend = type(parstack.QQ.one)
    assert capsys.readouterr().out.strip() == "%s (coefficients: %s.%s)" % (
        parstack.__version__, backend.__module__, backend.__qualname__)


def test_python_m_parstack_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "parstack", "--version"],
                          env=child_env(), capture_output=True, text=True, timeout=30)
    backend = type(parstack.QQ.one)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "%s (coefficients: %s.%s)\n" % (
        parstack.__version__, backend.__module__, backend.__qualname__)


def test_convert_weight_half_round_trip(tmp_path, capsys):
    src = write(tmp_path, "line.json", line_scenario())
    g1 = str(tmp_path / "graded.json")
    assert main(["convert", src, "--direction", "to-graded", "--out", g1]) == 0
    doc = json.loads(open(g1).read())
    mod = doc["objects"][0]
    assert mod["kind"] == "graded_module" and mod["at"] == "y"
    # weight 1/2 line: M_1 = t^{-1} M_0
    assert mod["pieces"][0]["columns"][0][0]["t_order"] == 0
    assert mod["pieces"][1]["columns"][0][0]["t_order"] == -1
    back = str(tmp_path / "back.json")
    assert main(["convert", g1, "--direction", "to-parabolic", "--out", back]) == 0
    g2 = str(tmp_path / "graded2.json")
    assert main(["convert", back, "--direction", "to-graded", "--out", g2]) == 0
    assert open(g1).read() == open(g2).read()


def test_convert_rejects_empty_source_side(tmp_path, capsys):
    src = write(tmp_path, "line.json", line_scenario())
    assert main(["convert", src, "--direction", "to-parabolic"]) == 2
    assert "no objects" in capsys.readouterr().err


def test_malformed_chain_names_the_point(tmp_path, capsys):
    doc = {"version": 1, "field": "rational", "objects": [{
        "kind": "parabolic_point", "at": "y", "rank": 1, "order": 1,
        "chain": [{"columns": [[{"t_order": 0, "coeffs": ["1"]}]]},
                  {"columns": [[{"t_order": 2, "coeffs": ["1"]}]]}]}]}
    src = write(tmp_path, "bad.json", doc)
    assert main(["convert", src, "--direction", "to-graded"]) == 2
    err = capsys.readouterr().err
    assert "point" in err and "object 0" in err


def test_parse_errors_exit_2(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{ not json")
    assert main(["degree", str(p)]) == 2
    src = write(tmp_path, "v9.json", {"version": 9, "objects": []})
    assert main(["degree", src]) == 2
    src = write(tmp_path, "f.json", {"version": 1, "field": "octonions"})
    assert main(["degree", src]) == 2
    assert main(["degree", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("field", [
    123,
    "prime:" + "9" * 400,
    "prime:1000000000000000000000000000057",
], ids=["not-a-string", "prime-400-digits", "prime-above-2-31"])
def test_bad_field_name_exits_2(tmp_path, field):
    """Run in a child process: at most a bounded wait on a huge prime."""
    src = write(tmp_path, "field.json", {"version": 1, "field": field, "objects": []})
    proc = subprocess.run([sys.executable, "-m", "parstack.cli", "degree", src],
                          env=child_env(), capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["verify", "--field", "bogus", "--trials", "2"],
    ["verify", "--trials", "0"],
], ids=["verify-field", "verify-trials-0"])
def test_bad_verify_options_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")
    assert not out.exists()


def test_replay_with_bad_config_exits_2(tmp_path, capsys):
    record = run_mutation("pull", "wrong-twist", 2000).failures[0]
    bad = dict(record, config=dict(record["config"], field="bogus"))
    assert main(["replay", write(tmp_path, "cex.json", bad)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


_ONE = {"t_order": 0, "coeffs": ["1"]}


@pytest.mark.parametrize("change", [
    {"trial_index": 1.5},
    {"trial_index": True},
    {"trial_index": -1},
    {"config": {"max_rank": 2.5}},
    {"config": {"seed": "1000"}},
    {"mutation": "nonsense"},
    {"mutation": "wrong-twist"},
    {"suite": []},
    {"instance": lambda inst: [inst]},
    {"instance": lambda inst: dict(inst, cover=dict(inst["cover"], kind="profile"))},
    {"instance": lambda inst: dict(inst, sources=[dict(inst["sources"][0], rank=0)])},
    {"instance": lambda inst: dict(inst, morphisms=[
        {"kind": "matrix", "columns": [[_ONE, _ONE], [_ONE]]}])},
    {"mutation": ["broken-inclusion"]},
    {"config": {"extra": 1}},
], ids=["index-float", "index-bool", "index-negative", "max-rank-float", "seed-str",
        "unknown-mutation", "mutation-of-another-suite", "suite-list", "instance-list",
        "instance-unknown-kind", "instance-rank-0", "instance-ragged-matrix",
        "mutation-list", "config-key"])
def test_replay_of_a_malformed_counterexample_exits_2(tmp_path, capsys, change):
    """A change is a value for a key of the record, or a function of the
    record's value there."""
    record = run_mutation("direct", "broken-inclusion", 1000).failures[0]
    bad = dict(record, **{key: value(record[key]) if callable(value) else value
                          for key, value in change.items()})
    if "config" in change:
        bad["config"] = dict(record["config"], **change["config"])
    assert main(["replay", write(tmp_path, "cex.json", bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "reproduced" not in err


_NOT_OBJECTS = "malformed counterexample: the record and its config must be JSON objects"


@pytest.mark.parametrize("record,message", [
    (lambda record: [record], _NOT_OBJECTS),
    (lambda record: dict(record, config=[record["config"]]), _NOT_OBJECTS),
    (lambda record: dict(record, config={"seed": 0}),
     "malformed counterexample: config needs the keys ['field', 'max_branches', "
     "'max_order', 'max_rank', 'seed', 'trials'], not ['seed']"),
    (lambda record: dict(record, instance=dict(record["instance"], cover=dict(
        record["instance"]["cover"], tagret="y"))),
     "cover object (instance 'cover') has unknown key 'tagret'"),
    (lambda record: dict(record, instance=dict(record["instance"], cover=dict(
        record["instance"]["cover"], branches=[{"label": "x0", "e": 1, "r": 1, "unit": "1",
                                                "colour": "blue"}]))),
     "cover branch 0 has unknown key 'colour'"),
], ids=["record-list", "config-list", "config-keys", "instance-cover-key",
        "instance-branch-key"])
def test_replay_names_what_is_wrong_with_a_record(tmp_path, capsys, record, message):
    """A malformed record's error says what is wrong with it, not which
    lookup failed; an instance's cover and branches refuse unknown keys as
    a scenario's do."""
    bad = record(run_mutation("direct", "broken-inclusion", 1000).failures[0])
    assert main(["replay", write(tmp_path, "cex.json", bad)]) == 2
    assert capsys.readouterr().err == "input error: %s\n" % message


@pytest.mark.parametrize("text", [None, "{ not json"], ids=["missing", "not-json"])
def test_unreadable_counterexample_exits_2(tmp_path, capsys, text):
    path = tmp_path / "cex.json"
    if text is not None:
        path.write_text(text)
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: cannot read counterexample: ")


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_scenario_version_must_be_the_integer_1(tmp_path, capsys, version):
    src = write(tmp_path, "v.json", {"version": version, "objects": []})
    assert main(["degree", src]) == 2
    assert capsys.readouterr().err == \
        "input error: unsupported scenario version %r\n" % (version,)


@pytest.mark.parametrize("command", ["push", "pull"])
def test_cover_without_branches_is_inadmissible(tmp_path, capsys, command):
    doc = line_scenario(cover={"target": "y", "s": 2, "branches": []})
    assert main([command, write(tmp_path, "nobranch.json", doc)]) == 2
    err = capsys.readouterr().err
    assert "InadmissibleProfile" in err and "at least one branch" in err


def test_inadmissible_cover_cites_the_relation(tmp_path, capsys):
    cover = {"target": "y", "s": 4,
             "branches": [{"label": "x", "e": 2, "r": 3, "unit": "1"}]}
    doc = line_scenario(weight="0", order=4, at="x", cover=cover)
    src = write(tmp_path, "bad_cover.json", doc)
    assert main(["push", src]) == 2
    assert "s != r*e" in capsys.readouterr().err


def test_push_trivial_line_e2(tmp_path, capsys):
    cover = {"target": "y", "s": 2,
             "branches": [{"label": "x", "e": 2, "r": 1, "unit": "1"}]}
    doc = line_scenario(weight="0", order=1, at="x", cover=cover)
    src = write(tmp_path, "push.json", doc)
    out = str(tmp_path / "pushed.json")
    assert main(["push", src, "--out", out]) == 0
    err = capsys.readouterr().err
    assert "1/2" in err and "rank 2" in err
    pushed = json.loads(open(out).read())["objects"][0]
    assert pushed["rank"] == 2 and pushed["at"] == "y"


def test_push_requires_branch_objects(tmp_path, capsys):
    cover = {"target": "y", "s": 2,
             "branches": [{"label": "x", "e": 2, "r": 1, "unit": "1"}]}
    doc = {"version": 1, "field": "rational", "cover": cover, "objects": []}
    src = write(tmp_path, "empty.json", doc)
    assert main(["push", src]) == 2
    assert "no object at branch" in capsys.readouterr().err


def test_push_refuses_two_objects_at_one_branch(tmp_path, capsys):
    cover = {"target": "y", "s": 2,
             "branches": [{"label": "x", "e": 2, "r": 1, "unit": "1"}]}
    doc = line_scenario(weight="0", order=1, at="x", cover=cover)
    doc["objects"].append({"kind": "parabolic_point", "at": "x", "rank": 2,
                           "order": 1, "weights": [["0", 2]]})
    out = tmp_path / "pushed.json"
    assert main(["push", write(tmp_path, "two.json", doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "input error: more than one object at branch 'x'\n"
    assert not out.exists()


def test_pull_bundle_not_marked_at_the_target_exits_2(tmp_path, capsys):
    doc = _data_doc("pull-bundle")
    doc["cover"]["target"] = "elsewhere"
    assert main(["pull", write(tmp_path, "unmarked.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert "bundle is not marked at target 'elsewhere'" in err


@pytest.mark.parametrize("command,at", [("push", "x"), ("pull", "y")])
def test_list_form_cover_exits_2(tmp_path, capsys, command, at):
    """The cover block is one JSON object; a list of covers is not read."""
    doc = line_scenario(weight="0", order=1, at=at)
    doc["cover"] = [{"target": "y", "s": 2,
                     "branches": [{"label": "x", "e": 2, "r": 1, "unit": "1"}]}]
    assert main([command, write(tmp_path, "listcover.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "cover" in err


@pytest.mark.parametrize("command,options", [("convert", ["--direction", "to-graded"]),
                                             ("degree", [])], ids=["convert", "degree"])
def test_every_command_decodes_the_cover(tmp_path, capsys, command, options):
    """convert echoes the cover and degree does not use it, but both decode
    it, so a malformed cover is an input error for every command."""
    good = line_scenario(cover=COVER_E2)
    assert main([command, write(tmp_path, "good.json", good)] + options) == 0
    capsys.readouterr()
    for cover, message in [(_cover_e2_with(s="2"),
                            "cover needs an integer 's' and a 'branches' list"),
                           (_cover_e2_with(colour="blue"), "cover has unknown key 'colour'")]:
        bad = line_scenario(cover=cover)
        assert main([command, write(tmp_path, "bad.json", bad)] + options) == 2
        captured = capsys.readouterr()
        assert captured.err == "input error: %s\n" % message
        assert captured.out == ""


def test_pull_weight_table(tmp_path, capsys):
    cover = {"target": "y", "s": 6,
             "branches": [{"label": "x", "e": 2, "r": 3, "unit": "1"}]}
    doc = {"version": 1, "field": "rational", "cover": cover, "objects": [{
        "kind": "parabolic_point", "at": "y", "rank": 2, "order": 6,
        "weights": [["1/3", 1], ["2/3", 1]]}]}
    src = write(tmp_path, "pull.json", doc)
    out = str(tmp_path / "pulled.json")
    assert main(["pull", src, "--out", out]) == 0
    err = capsys.readouterr().err
    assert "2/3" in err and "1/3" in err
    pulled = json.loads(open(out).read())["objects"]
    assert len(pulled) == 1 and pulled[0]["at"] == "x" and pulled[0]["order"] == 3


def test_pull_degree_line(tmp_path, capsys):
    """deg f is the sum of the branches' e, read off the cover."""
    cover = {"target": "y", "s": 2,
             "branches": [{"label": "x", "e": 2, "r": 1, "unit": "1"}]}
    doc = line_scenario(weight="1/2", order=2, at="y", degree=1, cover=cover)
    src = write(tmp_path, "deg.json", doc)
    assert main(["pull", src, "--out", str(tmp_path / "o.json")]) == 0
    err = capsys.readouterr().err
    assert "pulled parabolic degree: 3" in err


def test_pull_degree_line_needs_the_key(tmp_path, capsys):
    cover = {"target": "y", "s": 2,
             "branches": [{"label": "x", "e": 2, "r": 1, "unit": "1"}]}
    doc = line_scenario(weight="1/2", order=2, at="y", cover=cover)
    note = dict(line_scenario(weight="0", order=2)["objects"][0],
                at="underlying_degree_note")
    doc["objects"].append(note)
    src = write(tmp_path, "nodeg.json", doc)
    assert main(["pull", src, "--out", str(tmp_path / "o.json")]) == 0
    assert "pulled parabolic degree" not in capsys.readouterr().err


def test_pull_degree_line_is_deg_f_times_the_degree_row(tmp_path, capsys):
    """The pulled degree is deg f = 3 + 2 times the ``degree`` row of the same
    source: the point and the module of ``degree-mixed`` (order 6, each with
    an underlying degree) placed at the target of ``pull-bundle``, and that
    file's bundle, which is also marked away from the target."""
    bundle_doc = _data_doc("pull-bundle")
    docs = [bundle_doc] + [dict(bundle_doc, objects=[dict(obj, at="p0")])
                           for obj in _data_doc("degree-mixed")["objects"][:2]]
    for doc in docs:
        src = write(tmp_path, "one.json", doc)
        assert main(["degree", src]) == 0
        row = Fraction(capsys.readouterr().out.splitlines()[1].split()[-1])
        assert main(["pull", src, "--out", str(tmp_path / "o.json")]) == 0
        line = capsys.readouterr().err.splitlines()[-1]
        assert line == "pulled parabolic degree: %s  (= deg f 5 x source degree data)" % (5 * row)


def test_non_object_entry_is_a_parse_error(tmp_path, capsys):
    for objects in ([1], ["y"], 7):
        src = write(tmp_path, "bad.json",
                    {"version": 1, "field": "rational", "objects": objects})
        assert main(["degree", src]) == 2
        assert "input error" in capsys.readouterr().err


def test_degree_table(tmp_path, capsys):
    src = write(tmp_path, "line.json", line_scenario(degree=1))
    assert main(["degree", src]) == 0
    out = capsys.readouterr().out
    assert "3/2" in out


def _degree_rows(capsys, path):
    """The (object, parabolic degree) rows that ``degree`` prints for ``path``."""
    assert main(["degree", path]) == 0
    return [(" ".join(row.split()[:-2]), row.split()[-1])
            for row in capsys.readouterr().out.splitlines()[1:]]


def test_convert_carries_a_bundle_degree_once(tmp_path, capsys):
    """A bundle of degree 3 marked at p (weight 1/2) and q (weight 1/3) has
    parabolic degree 23/6; converted, its degree goes on the module at p
    only, so the rows still sum to 23/6, there and back."""
    points = {"p": {"order": 2, "weights": [["1/2", 1]]},
              "q": {"order": 3, "weights": [["1/3", 1]]}}
    src = write(tmp_path, "bundle.json", {"version": 1, "field": "rational", "objects": [
        {"kind": "parabolic_bundle", "rank": 1, "underlying_degree": 3, "points": points}]})
    graded, back = str(tmp_path / "graded.json"), str(tmp_path / "back.json")
    assert _degree_rows(capsys, src) == [("bundle", "23/6")]
    assert main(["convert", src, "--direction", "to-graded", "--out", graded]) == 0
    assert _degree_rows(capsys, graded) == [("module 'p'", "7/2"), ("module 'q'", "1/3")]
    assert main(["convert", graded, "--direction", "to-parabolic", "--out", back]) == 0
    assert _degree_rows(capsys, back) == [("point 'p'", "7/2"), ("point 'q'", "1/3")]


def test_verify_deterministic_reports(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["verify", "--suite", "pull", "--trials", "5", "--seed", "3",
                 "--out", a]) == 0
    assert main(["verify", "--suite", "pull", "--trials", "5", "--seed", "3",
                 "--out", b]) == 0
    capsys.readouterr()
    da, db = json.loads(open(a).read()), json.loads(open(b).read())
    da.pop("timing"), db.pop("timing")
    assert da == db
    assert da["passed"] and da["config_hash"] and da["tool_version"]


def test_verify_all_suites_smoke(tmp_path, capsys):
    assert main(["verify", "--trials", "2", "--seed", "0",
                 "--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()


def test_verify_reports_survive_optimize_flag(tmp_path, capsys):
    """Internal guards are explicit raises, so `python -O` changes nothing."""
    args = ["verify", "--suite", "all", "--trials", "5", "--seed", "0",
            "--field", "prime:101"]
    plain, optimized = str(tmp_path / "plain.json"), str(tmp_path / "opt.json")
    assert main(args + ["--out", plain]) == 0
    capsys.readouterr()
    proc = subprocess.run([sys.executable, "-O", "-m", "parstack.cli"] + args
                          + ["--out", optimized], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

    def reports(path):
        return json.dumps(json.loads(open(path).read())["reports"],
                          indent=2, sort_keys=True)

    assert reports(optimized) == reports(plain)


def test_verify_report_digest_is_pinned(tmp_path, capsys):
    """Reports of a fixed run stay byte-identical across optimizations."""
    out = str(tmp_path / "r.json")
    assert main(["verify", "--suite", "all", "--trials", "30", "--seed", "0",
                 "--field", "prime:101", "--out", out]) == 0
    capsys.readouterr()
    blob = json.dumps(json.loads(open(out).read())["reports"], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == "238c2cd1310b7ddd"


@pytest.mark.parametrize("suite,digest", [("direct", "97638613c08c6fc5"),
                                          ("pull", "5622197f9826652b")])
def test_rational_report_digests_are_pinned(tmp_path, capsys, suite, digest):
    """The functor suites over Q, pinned like the GF(101) run above."""
    out = str(tmp_path / "r.json")
    assert main(["verify", "--suite", suite, "--trials", "30", "--seed", "0",
                 "--field", "rational", "--out", out]) == 0
    capsys.readouterr()
    blob = json.dumps(json.loads(open(out).read())["reports"], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("field,digest", [("rational", "0155037bf2fe4f94"),
                                          ("prime:101", "f93e9ad7eef6fc31")])
def test_verify_200_trial_report_digests_are_pinned(tmp_path, capsys, field, digest):
    """The whole default run, 200 trials of every suite at seed 0: the digest
    of the report without its timing block, the byte-identity rule that
    optimizations and refactors are held to."""
    out = str(tmp_path / "r.json")
    assert main(["verify", "--suite", "all", "--seed", "0", "--field", field,
                 "--out", out]) == 0
    capsys.readouterr()
    doc = json.loads(open(out).read())
    del doc["timing"]
    blob = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest


def test_corollaries_report_is_the_same_with_a_cold_and_a_warm_line_cache(tmp_path, capsys):
    """ParabolicPoint.line shares its value lines across trials and runs:
    a run after cache_clear() and a second run in the same process write
    the same report."""
    line = parstack.ParabolicPoint.line
    docs, infos = [], []
    line.cache_clear()
    for run in ("cold", "warm"):
        out = str(tmp_path / (run + ".json"))
        assert main(["verify", "--suite", "corollaries", "--trials", "200", "--seed", "0",
                     "--field", "prime:101", "--out", out]) == 0
        doc = json.loads(open(out).read())
        del doc["timing"]
        docs.append(json.dumps(doc, sort_keys=True))
        infos.append(line.cache_info())
    capsys.readouterr()
    assert docs[0] == docs[1]
    # the warm run built no line and read every one from the cache
    assert infos[1].misses == infos[0].misses and infos[1].hits > infos[0].hits


@pytest.mark.parametrize("field,digest", [("rational", "cffed3abd9fabc9f"),
                                          ("prime:101", "923a9b9e439d68e4")])
def test_the_line_cache_builds_each_requested_line_once(tmp_path, capsys, monkeypatch,
                                                         field, digest):
    """The line cache keys the arguments as given, so a line asked for with
    and without its twist 0 would be built twice.  After cache_clear() the
    misses of a corollaries run equal the distinct (field, order, jump,
    twist) lines it asks for, and the report, without its timing block,
    keeps its digest."""
    line = parstack.ParabolicPoint.line
    keys = set()

    def recording(cls, *args):
        keys.add(args + (0,) * (4 - len(args)))  # (field, order, jump, twist)
        return line(*args)  # as given, so the cache keys what the caller passed

    monkeypatch.setattr(parstack.ParabolicPoint, "line", classmethod(recording))
    line.cache_clear()
    out = str(tmp_path / "r.json")
    assert main(["verify", "--suite", "corollaries", "--trials", "200", "--seed", "0",
                 "--field", field, "--out", out]) == 0
    capsys.readouterr()
    assert line.cache_info().misses == len(keys) <= 168
    doc = json.loads(open(out).read())
    del doc["timing"]
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16] == digest


def test_library_error_in_a_trial_fails_verify(tmp_path, capsys, monkeypatch):
    # the draw raises, so no instance is kept
    def raising_draw(rng, cfg, mutation):
        raise SingularBasis("planted")

    monkeypatch.setattr(harness.SUITES["pull"], "draw", raising_draw)
    out = str(tmp_path / "r.json")
    assert main(["verify", "--suite", "pull", "--trials", "2", "--out", out]) == 1
    assert "input error" not in capsys.readouterr().err
    rep = json.loads(open(out).read())["reports"][0]
    assert rep["verdicts"] == [[0, False, "raised SingularBasis: planted"],
                               [1, False, "raised SingularBasis: planted"]]
    assert [(f["trial_index"], f["instance"]) for f in rep["failures"]] == \
        [(0, None), (1, None)]


def test_replay_reproduces_counterexample(tmp_path, capsys):
    rep = run_mutation("direct", "broken-inclusion", 1000)
    record = rep.failures[0]
    path = write(tmp_path, "cex.json", record)
    assert main(["replay", path]) == 0
    assert "reproduced" in capsys.readouterr().err
    doctored = dict(record, note="some other note")
    path2 = write(tmp_path, "cex2.json", doctored)
    assert main(["replay", path2]) == 1
    assert "NOT reproduced" in capsys.readouterr().err
    path3 = write(tmp_path, "cex3.json", {"suite": "direct"})
    assert main(["replay", path3]) == 2
    capsys.readouterr()


DATA = os.path.join(os.path.dirname(__file__), "data", "cli")


def data_file(name):
    return os.path.join(DATA, name + ".json")


NO_ERR = "e3b0c44298fc1c14"  # sha256 of empty output


@pytest.mark.parametrize("argv,digest,err_digest", [
    (["push", data_file("push-parabolic")], "fbc1bc56c459806e", "659194d2dee9fe4b"),
    (["push", data_file("push-graded")], "4cc950e2d140bd01", "659194d2dee9fe4b"),
    (["pull", data_file("pull-parabolic")], "71d59ab14f9f71d3", "4b16fa6b6cb81230"),
    (["pull", data_file("pull-graded")], "7356f3096d062943", "4b16fa6b6cb81230"),
    (["convert", data_file("convert-to-graded"), "--direction", "to-graded"],
     "77c11a8c1ca44eb4", NO_ERR),
    (["convert", data_file("convert-to-parabolic"), "--direction", "to-parabolic"],
     "548433599e432055", NO_ERR),
    (["convert", data_file("degree"), "--direction", "to-graded"], "d99e291f22f3b797",
     NO_ERR),
    (["degree", data_file("degree")], "b5f1c8e4728548a0", NO_ERR),
    (["push", data_file("push-parabolic-gf101")], "864f86fec7ccb49d",
     "8ca60794448da2a1"),
    (["pull", data_file("pull-parabolic-gf101")], "ab4e7b7924743966",
     "7a49a8895eede767"),
    (["degree", data_file("degree-mixed")], "0753eacae8bbc35c", NO_ERR),
    (["convert", data_file("degree-mixed"), "--direction", "to-graded"],
     "32ac7950ea78f65f", NO_ERR),
    (["convert", data_file("degree-mixed"), "--direction", "to-parabolic"],
     "408aa8479b48d988", NO_ERR),
    (["pull", data_file("pull-bundle")], "53e1fbff9ef55870", "1b72a8f8d6227be2"),
], ids=["push-parabolic", "push-graded", "pull-parabolic", "pull-graded",
        "convert-to-graded", "convert-to-parabolic", "convert-bundle", "degree",
        "push-parabolic-gf101", "pull-parabolic-gf101", "degree-mixed",
        "convert-mixed-to-graded", "convert-mixed-to-parabolic", "pull-bundle"])
def test_command_stdout_bytes_are_pinned(capsys, argv, digest, err_digest):
    """Stdout and stderr bytes of the scenario commands on fixed scenario
    files over Q and GF(101); the GF(101) covers have e > 1 and branch
    units "1/2" and "-3", and their coefficients mix residues, negatives and
    "a/b" text.  Stderr carries the weight tables and the pulled degree
    line.  ``degree-mixed`` holds a point, a module and a bundle, each with
    an underlying degree; ``pull-bundle`` pulls a bundle marked at the
    target, on a cover of degree 3 + 2."""
    assert main(argv) == 0
    cap = capsys.readouterr()
    assert hashlib.sha256(cap.out.encode()).hexdigest()[:16] == digest
    assert hashlib.sha256(cap.err.encode()).hexdigest()[:16] == err_digest


def _gf101_push_scenario():
    return json.loads(open(data_file("push-parabolic-gf101")).read())


def test_gf101_values_divisible_by_p_are_parse_errors(tmp_path, capsys):
    doc = _gf101_push_scenario()
    doc["cover"]["branches"][0]["unit"] = "1/101"
    assert main(["push", write(tmp_path, "unit.json", doc)]) == 2
    err = capsys.readouterr().err
    assert "unit of branch 'x0'" in err and "is not an element of prime:101" in err

    doc = _gf101_push_scenario()
    doc["objects"][0]["chain"][0]["columns"][0][0]["coeffs"][0] = "1/101"
    assert main(["push", write(tmp_path, "coeff.json", doc)]) == 2
    err = capsys.readouterr().err
    assert "bad element" in err and "is not an element of prime:101" in err


def test_gf101_unit_divisible_by_p_is_inadmissible(tmp_path, capsys):
    doc = _gf101_push_scenario()
    doc["cover"]["branches"][1]["unit"] = "101"
    assert main(["push", write(tmp_path, "unit.json", doc)]) == 2
    err = capsys.readouterr().err
    assert "InadmissibleProfile" in err and "zero unit" in err


def test_verify_out_file_is_canonical_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "pull", "--trials", "3", "--seed", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def _with_degree(doc, degree):
    doc = json.loads(json.dumps(doc))
    doc["objects"][0]["underlying_degree"] = degree
    return doc


def _data_doc(name):
    with open(data_file(name)) as fh:
        return json.load(fh)


COVER_E2 = {"target": "y", "s": 2,
              "branches": [{"label": "x", "e": 2, "r": 1, "unit": "1"}]}


@pytest.mark.parametrize("command,doc,named", [
    ("degree", _with_degree(line_scenario(), "abc"), "point (object 0)"),
    ("degree", _with_degree(line_scenario(), "3"), "point (object 0)"),
    ("degree", _with_degree(line_scenario(), True), "point (object 0)"),
    ("pull", _with_degree(line_scenario(cover=COVER_E2), [1]), "point (object 0)"),
    ("degree", _with_degree(_data_doc("convert-to-parabolic"), "abc"),
     "module (object 0)"),
    ("pull", _with_degree(_data_doc("pull-graded"), 1.5), "module (object 0)"),
    ("degree", _with_degree(_data_doc("degree"), [1]), "bundle (object 0)"),
], ids=["point-str", "point-digit-str", "point-bool", "point-list-pull",
        "module-str", "module-float-pull", "bundle-list"])
def test_bad_degree_input_exits_2(tmp_path, capsys, command, doc, named):
    src = write(tmp_path, "bad_degree.json", doc)
    assert main([command, src]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and named in err
    assert "Traceback" not in err


def _cover_e2_with(**fields):
    return dict(COVER_E2, **fields)


def _point_object(**fields):
    return dict({"kind": "parabolic_point", "at": "y", "rank": 1, "order": 1}, **fields)


def _objects(*objects):
    return {"version": 1, "field": "rational", "objects": list(objects)}


_R = {"columns": [[_ONE]]}
_TR = {"columns": [[{"t_order": 1, "coeffs": ["1"]}]]}
_TWO_BRANCHES = {"target": "y", "s": 1, "branches": [
    {"label": "x0", "e": 1, "r": 1, "unit": "1"}, {"label": "x1", "e": 1, "r": 1, "unit": "2"}]}


@pytest.mark.parametrize("command,doc,named", [
    ("degree", line_scenario(order="2"), "point (object 0)"),
    ("degree", line_scenario(weight="x"), "point (object 0)"),
    ("degree", dict(line_scenario(), objects=[dict(
        line_scenario()["objects"][0], weights=[["1/2", "1"]])]), "point (object 0)"),
    ("degree", {"version": 1, "field": "rational", "objects": [{
        "kind": "parabolic_point", "at": "y", "rank": 1, "order": 1, "chain": 5}]},
     "point (object 0)"),
    ("degree", {"version": 1, "field": "rational", "objects": [{
        "kind": "parabolic_bundle", "rank": 1, "points": []}]}, "bundle (object 0)"),
    ("degree", {"version": 1, "field": "rational", "objects": [{
        "kind": "parabolic_bundle", "rank": True, "points": {}}]}, "bundle"),
    ("degree", dict(line_scenario(), objects=[dict(
        line_scenario()["objects"][0], rank=True)]), "object 0"),
    ("pull", line_scenario(cover=_cover_e2_with(s="2")), "cover"),
    ("pull", line_scenario(cover=_cover_e2_with(branches=[
        dict(COVER_E2["branches"][0], e="2")])), "cover branch"),
    ("push", line_scenario(weight="0", order=1, at=["x"], cover=COVER_E2), "object 0"),
    ("pull", {"version": 1, "field": "rational", "cover": _cover_e2_with(target=["y"]),
              "objects": [{"kind": "parabolic_bundle", "rank": 1, "points": {
                  "y": {"order": 2, "weights": [["1/2", 1]]}}}]}, "cover"),
    ("pull", dict(_data_doc("pull-bundle"), deg_f=5), "unknown scenario key 'deg_f'"),
    ("pull", dict(_data_doc("pull-bundle"), objets=[]), "unknown scenario key 'objets'"),
    ("degree", [1], "scenario must be an object"),
    ("push", line_scenario(weight="0", order=1, at="x"), "scenario needs a 'cover' block"),
    ("push", dict(_objects(_point_object(at="x0", weights=[["0", 1]]),
                           {"kind": "graded_module", "at": "x1", "rank": 1, "order": 1,
                            "pieces": [_R]}), cover=_TWO_BRANCHES),
     "all branch objects must be on the same side"),
    ("pull", line_scenario(at="x", cover=COVER_E2), "pull needs exactly one object at the target"),
    ("pull", dict(line_scenario(cover=COVER_E2), objects=line_scenario()["objects"] * 2),
     "pull needs exactly one object at the target"),
    ("degree", _objects(_point_object(chain=[{}, _TR])), "point (object 0): chain member needs"),
    ("degree", _objects(_point_object(chain=[{"columns": [[_ONE], [_ONE]]}, _TR])),
     "columns must form an 1x1 matrix"),
    ("degree", _objects(_point_object(weights="1/2")), "weights must be a list"),
    ("degree", _objects(_point_object(order=2, weights=[["1", 1]])), "weight 1 outside [0,1)"),
    ("degree", _objects(_point_object(order=2, weights=[["1/3", 1]])),
     "weight 1/3 incompatible with order 2"),
    ("degree", _objects(_point_object(rank=2, weights=[["0", 1]])),
     "weight multiplicities sum to 1, expected 2"),
    ("degree", _objects(_point_object(chain=[_R])), "chain has 1 members, expected 2"),
    ("degree", _objects({"kind": "graded_module", "at": "y", "rank": 1, "order": 2,
                         "pieces": [_R, _TR]}), "piece 0 does not include into piece 1"),
], ids=["order-str", "weight-str", "multiplicity-str", "chain-not-list",
        "points-list", "bundle-rank-bool", "point-rank-bool", "cover-s-str",
        "branch-e-str", "at-list", "target-list", "stale-deg_f", "misspelt-objets",
        "scenario-list", "no-cover", "mixed-sides", "pull-no-source", "pull-two-sources",
        "member-without-columns", "member-not-nxn", "weights-not-list", "weight-outside",
        "weight-order", "multiplicities-short", "chain-length", "pieces-not-including"])
def test_mistyped_scenario_fields_exit_2(tmp_path, capsys, command, doc, named):
    """Each input error exits 2 and names its object or its rule.  A
    scenario has only version, field, cover and objects: push, pull and
    convert would echo a stale key such as deg_f unread, and a misspelt one
    would drop what it names."""
    src = write(tmp_path, "mistyped.json", doc)
    assert main([command, src]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and named in err
    assert "Traceback" not in err


_LINE_BUNDLE = {"kind": "parabolic_bundle", "rank": 1, "underlying_degree": 0,
                "points": {"y": {"order": 2, "weights": [["1/2", 1]]}}}


def _renamed(doc, path, old, new):
    """A copy of ``doc`` whose object at ``path`` has key ``old`` renamed ``new``."""
    doc = json.loads(json.dumps(doc))
    obj = doc
    for key in path:
        obj = obj[key]
    obj[new] = obj.pop(old)
    return doc


_PULL_COVER_BRANCH = _data_doc("pull-parabolic")
_PULL_COVER_BRANCH["cover"]["branches"][0]["colour"] = "blue"


@pytest.mark.parametrize("command,doc,message", [
    ("degree", _objects(_point_object(order=2, weights=[["1/2", 1]], chain="nonsense")),
     "point (object 0) has both 'weights' and 'chain'"),
    ("convert", _objects(_point_object(order=2, weights=[["1/2", 1]], colour="blue")),
     "parabolic_point object (object 0) has unknown key 'colour'"),
    ("convert", _objects({"kind": "graded_module", "at": "y", "rank": 1, "order": 1,
                          "pieces": [_R, _TR], "chain": []}),
     "graded_module object (object 0) has unknown key 'chain'"),
    ("degree", _objects(dict(_LINE_BUNDLE, at="y")),
     "parabolic_bundle object (object 0) has unknown key 'at'"),
    ("degree", _objects(dict(_LINE_BUNDLE, points={"y": {"order": 2, "weights": [["1/2", 1]],
                                                         "rank": 1}})),
     "bundle (object 0): point at 'y' has unknown key 'rank'"),
    ("degree", _objects(dict(_LINE_BUNDLE, points={"y": {"order": 1, "weights": [["0", 1]],
                                                         "chain": [_R, _TR]}})),
     "point at 'y' has both 'weights' and 'chain'"),
    ("degree", _objects(dict(_LINE_BUNDLE, points={"y": 5})),
     "point at 'y' needs a positive integer 'order', not None"),
    ("pull", _renamed(_data_doc("pull-bundle"), ["objects", 0, "points", "p0"], "chain", "chian"),
     "bundle (object 0): point at 'p0' has unknown key 'chian'"),
    ("pull", _renamed(_data_doc("pull-parabolic"), ["cover"], "target", "tagret"),
     "cover has unknown key 'tagret'"),
    ("pull", _PULL_COVER_BRANCH, "cover branch 0 has unknown key 'colour'"),
], ids=["weights-and-chain", "point-key", "module-key", "bundle-key", "bundle-point-key",
        "bundle-point-weights-and-chain", "bundle-point-not-an-object",
        "bundle-point-misspelt-chain", "cover-key", "branch-key"])
def test_unknown_object_keys_exit_2(tmp_path, capsys, command, doc, message):
    """An object carries the keys its kind's encoder writes, ``at`` and
    ``underlying_degree`` beside a point or module, and nothing else; a
    point has a chain or weights, not both.  A cover carries ``target``,
    ``s`` and ``branches``, and a branch ``label``, ``e``, ``r`` and
    ``unit``.  Any other key would be read past, and the one that is not
    read would drop what it names; keys are checked before values, so the
    error names the key rather than what its absence breaks."""
    src = write(tmp_path, "keys.json", doc)
    options = ["--direction", "to-graded"] if command == "convert" else []
    assert main([command, src] + options) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: %s\n" % message
    assert captured.out == ""


@pytest.mark.parametrize("kind", [[], {}, 3, "cover", "matrix"],
                         ids=["list", "dict", "int", "cover", "matrix"])
def test_non_string_kind_exits_2(tmp_path, capsys, kind):
    """Scenario objects are points, modules and bundles; other kinds of the
    object codec (covers, matrices) are unknown here too."""
    doc = _data_doc("degree")
    doc["objects"][0]["kind"] = kind
    src = write(tmp_path, "kind.json", doc)
    assert main(["degree", src]) == 2
    err = capsys.readouterr().err
    assert err == "input error: object (object 0) has unknown kind %r\n" % (kind,)


@pytest.mark.parametrize("command,options", [("convert", ["--direction", "to-graded"]),
                                             ("degree", [])],
                         ids=["convert", "degree"])
def test_rank_0_bundle_exits_2(tmp_path, capsys, command, options):
    """Points and modules need rank >= 1, so bundles do too: a rank-0 bundle
    would convert to a module that the reverse conversion rejects."""
    src = write(tmp_path, "rank0.json", {"version": 1, "field": "rational", "objects": [{
        "kind": "parabolic_bundle", "rank": 0,
        "points": {"y": {"order": 2, "weights": []}}}]})
    assert main([command, src] + options) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: bundle (object 0) needs an integer rank\n"
    assert captured.out == ""


def test_huge_weight_multiplicity_exits_2_without_allocating(tmp_path, capsys):
    doc = line_scenario(weight="0", order=1, at="x", cover=COVER_E2)
    doc["objects"][0]["weights"] = [["0", 2 ** 62]]
    assert main(["push", write(tmp_path, "huge.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "multiplicities" in err
    assert "Traceback" not in err


def _inprocess(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_consecutive_main_calls_match_separate_processes(tmp_path, capsys,
                                                       monkeypatch):
    """One parser serves every call; no option of one call leaks into the next."""
    push_src = write(tmp_path, "push.json",
                     line_scenario(weight="0", order=1, at="x", cover=COVER_E2))
    pull_src = write(tmp_path, "pull.json", line_scenario(cover=COVER_E2, degree=1))
    junk = tmp_path / "junk.json"
    junk.write_text("{ not json")
    calls = [["push", push_src, "--out", "pushed.json"], ["pull", pull_src],
             ["degree", str(junk)], ["push"], ["--version"]]

    env = child_env()
    separate = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "parstack.cli"] + argv,
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=60)
        separate.append((proc.returncode, proc.stdout, proc.stderr))
    pushed_separately = (tmp_path / "pushed.json").read_text()
    (tmp_path / "pushed.json").unlink()

    monkeypatch.chdir(tmp_path)
    in_process = [_inprocess(argv, capsys) for argv in calls]
    assert in_process == separate
    assert [code for code, _, _ in in_process] == [0, 0, 2, 2, 0]
    assert in_process[1][1].startswith("{")
    assert (tmp_path / "pushed.json").read_text() == pushed_separately
    assert in_process == [_inprocess(argv, capsys) for argv in calls]

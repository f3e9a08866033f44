"""Suites as draw/check pairs: replay checks the recorded instance.

The check of a suite draws nothing, so a failure replays from its
encoded instance alone, whatever the generators do by then.
"""

import ast
import inspect
import json
import random
import textwrap

import pytest

from parstack import (QQ, LocalElement, ParabolicBundle, ParseError, TrialConfig,
                      from_parabolic, gen_parabolic_point, make_profile, verify_direct_image,
                      verify_pullback)
from parstack import harness
from parstack import scenario as sio
from parstack.cli import main
from parstack.linalg import transpose

from conftest import MUTATIONS, run_mutation


def _refuse(rng, cfg, mutation):
    raise RuntimeError("replay drew an instance")


def test_replay_never_draws(tmp_path, capsys, monkeypatch):
    records = [run_mutation(*entry).failures[0] for entry in MUTATIONS]
    for suite in harness.SUITES.values():
        monkeypatch.setattr(suite, "draw", _refuse)
    for k, record in enumerate(records):
        path = tmp_path / ("cex%d.json" % k)
        path.write_text(json.dumps(record))
        assert main(["replay", str(path)]) == 0, record["note"]
        assert capsys.readouterr().err.endswith("verdict reproduced\n")


def test_a_record_without_an_instance_replays_from_its_trial_seed(tmp_path, capsys,
                                                                  monkeypatch):
    def raising_draw(rng, cfg, mutation):
        raise ValueError("planted %d" % rng.getrandbits(16))

    monkeypatch.setattr(harness.SUITES["pull"], "draw", raising_draw)
    record = verify_pullback(TrialConfig(seed=3, trials=2)).failures[0]
    assert record["instance"] is None and record["note"].startswith("raised ValueError")
    path = tmp_path / "cex.json"
    path.write_text(json.dumps(record))
    assert main(["replay", str(path)]) == 0
    path.write_text(json.dumps(dict(record, trial_seed=record["trial_seed"] + 1)))
    assert main(["replay", str(path)]) == 1
    path.write_text(json.dumps(dict(record, trial_seed="1")))
    assert main(["replay", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("field_name", ["rational", "prime:101"])
@pytest.mark.parametrize("name", sorted(harness.SUITES))
def test_encoded_instances_check_as_drawn(name, field_name):
    suite = harness.SUITES[name]
    cfg = TrialConfig(trials=30, max_order=8, field_name=field_name)
    failed = 0
    for mutation in [None, *suite.mutations]:
        for seed in range(30):
            ok, note, instance = suite.trial(seed, cfg, mutation)
            text = sio.dumps(sio.encode_instance(instance))
            decoded = sio.decode_instance(json.loads(text), cfg.field)
            assert suite.verdict(decoded, mutation) == (ok, note), (mutation, seed)
            failed += not ok
    assert failed  # the mutations make some of the checks fail


@pytest.mark.parametrize("field_name", ["rational", "prime:101"])
def test_a_pull_instance_encodes_each_mixed_splitting_by_its_lifts(field_name, monkeypatch):
    """A pull instance keeps each mixed splitting as a row-major matrix
    whose columns are its lifts: the encoded ``columns`` are the lifts that
    mix_lines returned, so a failure record reads as it did when splittings
    were matrices."""
    mixed = []
    mix_lines = harness.mix_lines
    monkeypatch.setattr(harness, "mix_lines",
                        lambda *args: mixed.append(mix_lines(*args)) or mixed[-1])
    cfg = TrialConfig(max_order=8, field_name=field_name)
    differ = 0
    for seed in range(30):
        del mixed[:]
        _, _, instance = harness.SUITES["pull"].trial(seed, cfg, None)
        encoded = sio.encode_instance(instance)["splittings"]
        assert [obj["kind"] for obj in encoded] == ["matrix"] * 2
        assert [obj["columns"] for obj in encoded] == \
            [[[sio.encode_element(x) for x in v] for v in lifts] for lifts in mixed]
        differ += any([list(v) for v in lifts] != transpose(lifts) for lifts in mixed)
    assert differ  # the lifts read as rows would change the records


def _mentions(fn, names):
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return sorted({n.id if isinstance(n, ast.Name) else n.arg if isinstance(n, ast.arg)
                   else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.arg, ast.Attribute))} & names)


def test_checks_draw_nothing():
    for name, suite in harness.SUITES.items():
        assert inspect.getmodule(suite.check) is harness
        assert not _mentions(suite.check, {"rng", "random"}), name


def _compared_to_mutation(fn):
    """The strings that fn compares ``mutation`` against."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {side.value for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(isinstance(side, ast.Name) and side.id == "mutation"
                    for side in [node.left, *node.comparators])
            for side in [node.left, *node.comparators]
            if isinstance(side, ast.Constant) and isinstance(side.value, str)}


def test_suites_register_the_mutations_they_test_for():
    for name, suite in harness.SUITES.items():
        compared = _compared_to_mutation(suite.draw) | _compared_to_mutation(suite.check)
        assert compared == set(suite.mutations), name


@pytest.mark.parametrize("suite,mutation", [
    (verify_direct_image, "broken-inclusoin"), (verify_pullback, "broken-inclusion")],
    ids=["misspelt", "of-another-suite"])
def test_a_run_refuses_a_mutation_its_suite_does_not_register(suite, mutation):
    with pytest.raises(ValueError, match="unknown mutation"):
        suite(TrialConfig(seed=1000, trials=1, max_order=8), mutation=mutation)


@pytest.mark.parametrize("suite,mutation", [
    (verify_pullback, "wrong-twsit"), (verify_pullback, "broken-inclusion")],
    ids=["misspelt", "of-another-suite"])
def test_a_trial_or_verdict_refuses_a_mutation_its_suite_does_not_register(suite,
                                                                          mutation):
    cfg = TrialConfig(max_order=8)
    ok, _, instance = suite.trial(1000, cfg, None)
    assert ok
    with pytest.raises(ValueError, match="unknown mutation"):
        suite.trial(1000, cfg, mutation)
    with pytest.raises(ValueError, match="unknown mutation"):
        suite.verdict(instance, mutation)


def test_trial_config_parses_its_field_once(monkeypatch):
    calls = []

    def counting(name):
        calls.append(name)
        return field_from_name(name)

    field_from_name = harness.field_from_name
    monkeypatch.setattr(harness, "field_from_name", counting)
    assert verify_pullback(TrialConfig(trials=20, field_name="prime:101")).passed
    assert calls == ["prime:101"]


@pytest.mark.parametrize("kind", ["parabolic_point", "graded_module", "parabolic_bundle",
                                  "cover", "matrix"])
def test_an_instance_object_refuses_a_key_its_kind_does_not_define(kind):
    """Every kind of the object codec decodes what its encoder wrote and
    refuses one more key, naming it."""
    field = QQ
    point = gen_parabolic_point(random.Random(5), 2, 3, field)
    value = {"parabolic_point": point, "graded_module": from_parabolic(point),
             "parabolic_bundle": ParabolicBundle(2, 1, {"y": point}),
             "cover": make_profile(2, [("x", 2, 1, field.one)]),
             "matrix": [[LocalElement.t_power(field, 1)]]}[kind]
    encoded = sio.encode_object(value)
    assert sio.decode_instance({"x": encoded}, field)["x"] == value
    with pytest.raises(ParseError, match="%s object \\(instance 'x'\\) has unknown key 'extra'"
                       % kind):
        sio.decode_instance({"x": dict(encoded, extra=1)}, field)

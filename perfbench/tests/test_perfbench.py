"""Tiny-size checks of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Runs go through ``perfbench/run.py`` in subprocesses, as the benchmark is
meant to be run: one workload per process.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import predictions
import run

ROOT = run.ROOT
RUN = os.path.join(run.HERE, "run.py")

# op counts that cover one full round of each workload's input shapes
SMALL = {
    "verify-functors-qq": 12,
    "verify-pairing-gf101": 40,
    "cli-scenarios-qq": 35,
    "pairing-longform": 20,
}
EXACT = ("localring.coeff_mults", "localring.mul.calls", "localring.max_len",
         "harness.gen_pairing_point.check_calls", "scenario.bytes_out")


def bench(workload, ops, trace=0, seed=3, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "5", "--trace", str(trace), "--ops", str(ops)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["labels"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    labels, res = result(bench(workload, SMALL[workload]))
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == SMALL[workload] + labels["gate_ops"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    names = [m[0] for m in predictions.END_TO_END]
    assert list(res["metrics"]) == names
    assert all(res["metrics"][n]["value"] > 0 for n in names)
    assert labels["backend"] in ("fractions.Fraction", "gmpy2.mpq")
    assert labels["gate_failed"] == 0


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_counts_and_digests_repeat_exactly(workload):
    first = result(bench(workload, SMALL[workload], trace=1))
    second = result(bench(workload, SMALL[workload], trace=1))
    (la, ra), (lb, rb) = first, second
    assert ra["correct"] and rb["correct"]
    assert list(ra["metrics"]) == [m[0] for m in predictions.per_layer_specs()]
    for name, metric in ra["metrics"].items():
        if name.endswith(".calls") or name in EXACT:
            assert metric["value"] == rb["metrics"][name]["value"], name
    assert la["run_digest"] == lb["run_digest"]
    assert la["gate_digest"] == lb["gate_digest"]
    assert la["prediction_violations"] == []
    assert "untraced_ops_ref_seconds" in la


def test_longform_reaches_long_entries_on_both_fields():
    labels, _ = result(bench("pairing-longform", SMALL["pairing-longform"]))
    for field_name in ("rational", "prime:101"):
        assert labels["form_spans"][field_name]["ops_span_ge_7"] > 0


def test_gate_rejects_a_mutated_report(tmp_path):
    run.import_program()
    import workloads
    from parstack import harness

    cls = workloads.VerifyFunctorsQQ
    cfg = cls(run.GATE_SEED).config(0)
    mutated = harness.verify_direct_image(cfg, mutation="broken-inclusion")
    assert not mutated.passed
    ops, failed, _, _ = run.run_gate(cls, str(tmp_path / "a"))
    assert failed == 0
    ops, failed, _, _ = run.run_gate(cls, str(tmp_path / "b"), outputs={0: mutated})
    assert failed == 1


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    run.import_program()
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(predictions.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == predictions.per_layer_specs()


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("verify-functors-qq", 2, cwd=str(tmp_path),
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""The benchmark gate runs in Tier-1.

``perfbench/run.py::run_gate`` runs each workload's fixed gate ops and
compares their digests with ``perfbench/pinned.json``.  A change that
moves a gate digest fails here, before a benchmark run reports its
output as incorrect.  Only ``perfbench/`` is read: ``run.import_program``
is never called, because it drops ``parstack`` from ``sys.modules``.
"""

import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_benchmark_gate_has_no_failed_op(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import run
    import workloads

    assert len(workloads.WORKLOADS) == 4
    for name, cls in workloads.WORKLOADS.items():
        ops, failed, _, _ = run.run_gate(cls, str(tmp_path / name))
        assert ops and failed == 0, (name, failed, ops)

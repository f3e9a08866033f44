"""Metric definitions and the prediction table the traced run checks.

Before any optimisation is measured, each per-layer metric names the
end-to-end metric it should move and the workloads where its layer works.
``violations`` checks the traced counts against that table: a layer
predicted idle on a workload must read zero there, and a layer predicted
busy must read non-zero.
"""

from __future__ import annotations

from tracer import metric_specs

# (name, unit, better, bound as a share of the parent's median)
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("pass_ratio", "ratio", "higher", 0.01),
)

TRACE_METRICS = (
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def per_layer_specs():
    return metric_specs() + list(TRACE_METRICS)


VERIFY_FUNCTORS = "verify-functors-qq"
VERIFY_PAIRING = "verify-pairing-gf101"
CLI = "cli-scenarios-qq"
LONGFORM = "pairing-longform"
ALL = (VERIFY_FUNCTORS, VERIFY_PAIRING, CLI, LONGFORM)

# metric -> (workloads where it must be non-zero, workloads where it must be 0)
PREDICTIONS = {
    "lattice.from_columns.calls": (ALL, ()),
    "localring.inv_series.calls": (ALL, ()),
    "localring.mul.calls": (ALL, ()),
    "localring.coeff_mults": (ALL, ()),
    "lattice.solve.calls": (ALL, ()),
    "lattice.contains.calls": (ALL, ()),
    "parabolic.ParabolicPoint.calls": (ALL, ()),
    "rootstack.GradedModule.calls": ((VERIFY_FUNCTORS, VERIFY_PAIRING, CLI), ()),
    "lattice.dual.calls": ((VERIFY_PAIRING, LONGFORM), (VERIFY_FUNCTORS, CLI)),
    "lattice.apply_matrix.calls": ((VERIFY_PAIRING, LONGFORM), (VERIFY_FUNCTORS, CLI)),
    "pairing.check_pairing.calls": ((VERIFY_PAIRING, LONGFORM), (VERIFY_FUNCTORS, CLI)),
    "pairing.hom_chain.calls": ((VERIFY_PAIRING, LONGFORM), (VERIFY_FUNCTORS, CLI)),
    "harness.gen_pairing_point.check_calls": ((VERIFY_PAIRING, LONGFORM),
                                              (VERIFY_FUNCTORS, CLI)),
    "functors.restrict_scalars.calls": ((VERIFY_FUNCTORS, CLI, LONGFORM), ()),
    "functors.pushforward_parabolic.s": ((VERIFY_FUNCTORS, CLI, LONGFORM), ()),
    "functors.pushforward_graded.s": ((VERIFY_FUNCTORS, CLI), (LONGFORM,)),
    "parabolic.split_into_lines.calls": ((VERIFY_FUNCTORS, CLI), (LONGFORM,)),
    "functors.pullback_parabolic.s": ((VERIFY_FUNCTORS, CLI), (LONGFORM,)),
    "functors.pullback_graded.s": ((VERIFY_FUNCTORS, CLI), (LONGFORM,)),
    "parabolic.weights.calls": ((VERIFY_FUNCTORS, CLI), ()),
    "pairing.pushforward_pairing.s": ((VERIFY_PAIRING, LONGFORM), (VERIFY_FUNCTORS, CLI)),
    "pairing.pullback_pairing.s": ((VERIFY_PAIRING,), (VERIFY_FUNCTORS, CLI, LONGFORM)),
    "harness.gen.s": (ALL, ()),
    "scenario.loads.s": ((CLI,), (VERIFY_FUNCTORS, VERIFY_PAIRING, LONGFORM)),
    "scenario.decode.s": ((CLI,), (VERIFY_FUNCTORS, VERIFY_PAIRING, LONGFORM)),
    "scenario.dumps.s": ((CLI,), (VERIFY_FUNCTORS, VERIFY_PAIRING, LONGFORM)),
    "scenario.bytes_out": ((CLI,), (VERIFY_FUNCTORS, VERIFY_PAIRING, LONGFORM)),
    "cli.main.s": ((CLI,), (VERIFY_FUNCTORS, VERIFY_PAIRING, LONGFORM)),
}


def violations(workload, metrics):
    """Names of metrics whose traced value contradicts the prediction."""
    out = []
    for name, (busy, idle) in PREDICTIONS.items():
        value = metrics[name]
        if workload in busy and not value:
            out.append("%s is 0 but predicted busy" % name)
        if workload in idle and value:
            out.append("%s is %r but predicted 0" % (name, value))
    return out

"""Benchmark entry point: one workload, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's labels (backend, Python version, op counts, digests).  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
fixed number of ops runs under the tracer and the metrics are per layer.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINNED = os.path.join(HERE, "pinned.json")

IMPORT_REPEATS = 5
SETUP_PARTS = 3
GATE_SEED = 999_983
CHILD_TIMEOUT_S = 170

# Machine-speed probe: a fixed pure-Python loop, sampled between ops.  On
# the shared 2-core machine these figures come from, the same ops ran 15-30%
# slower in some minutes than in others, and the probe slowed with them.
# Times are therefore reported at reference speed: scaled by
# PROBE_REF_S / (median probe time within PROBE_WINDOW_S of the op).
PROBE_LOOP = 20_000
PROBE_REF_S = 0.001
PROBE_EVERY_S = 0.02
PROBE_WINDOW_S = 0.3


class SpeedProbe:
    """Samples of how long PROBE_LOOP iterations take right now."""

    def __init__(self):
        self.times, self.durations = [], []

    def sample(self):
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        end = time.perf_counter()
        self.times.append(start)
        self.durations.append(end - start)
        return end

    def scale(self, at=None):
        """Factor from wall seconds at time ``at`` to reference seconds."""
        if at is None:
            window = self.durations
        else:
            lo = bisect.bisect_left(self.times, at - PROBE_WINDOW_S)
            hi = bisect.bisect_right(self.times, at + PROBE_WINDOW_S)
            window = self.durations[lo:hi] or self.durations
        return PROBE_REF_S / statistics.median(window)


def import_program(probe=None):
    """Import parstack from the checkout IMPORT_REPEATS times.

    Each repeat drops the package from ``sys.modules`` first, so it runs
    every module body again; the last import is the one the run uses.
    Returns the (start, wall seconds) of each repeat.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    spans = []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules if m == "parstack" or m.startswith("parstack.")]:
            del sys.modules[name]
        start = time.perf_counter()
        pkg = importlib.import_module("parstack")
        importlib.import_module("parstack.cli")
        spans.append((start, time.perf_counter() - start))
        if probe is not None:
            probe.sample()
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError("parstack was not imported from %s" % SRC)
    return spans


def run_ops(wl, seconds, n_ops, probe, tracer=None):
    """Run ops 0, 1, ... until the time, the fixed count or the inputs end.

    Returns per-op start times, latencies, verdicts and digests.  Only
    ``run_op`` is timed; checking, digesting and speed probes happen
    between ops, untraced.
    """
    starts, lat, oks, digests = [], [], [], []
    size = wl.size()
    last_probe = probe.sample()
    deadline = last_probe + seconds
    k = 0
    while (size is None or k < size) and (
            k < n_ops if n_ops is not None else time.perf_counter() < deadline):
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out, err = wl.run_op(k), None
        except Exception as exc:  # an op that raises is a failed op
            out, err = None, exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.enabled = False
        ok, dg = checked(wl, k, out) if err is None else failed_with(err)
        starts.append(t0)
        lat.append(t1 - t0)
        oks.append(bool(ok))
        digests.append(dg)
        k += 1
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            last_probe = probe.sample()
    probe.sample()
    return starts, lat, oks, digests


def checked(wl, k, out):
    """(ok, digest) of op k's output; an output the check cannot read fails."""
    try:
        return wl.check(k, out)
    except Exception as exc:
        return failed_with(exc)


def failed_with(exc):
    return False, "raised %s: %s" % (type(exc).__name__, exc)


def at_reference_speed(starts, lat, probe):
    return [x * probe.scale(t) for t, x in zip(starts, lat)]


def tail(lat, pct):
    """Nearest-rank latency at pct, and how many ops lie beyond it."""
    ordered = sorted(lat)
    idx = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[idx], len(ordered) - idx - 1


def combined_digest(digests):
    from workloads import digest
    return digest("\n".join(str(d) for d in digests))


def load_pinned():
    with open(PINNED) as fh:
        return json.load(fh)


def make_workload(cls, seed, wdir):
    os.makedirs(wdir, exist_ok=True)
    return cls(seed, workdir=wdir)


def build(wl, n_ops=None, probe=None):
    """Build the workload's input rounds; (start, wall seconds) of each.

    With a fixed op count, build only the rounds those ops need.
    """
    spans = []
    r = 0
    while r < wl.rounds if n_ops is None else (wl.rounds and wl.size() < n_ops):
        start = time.perf_counter()
        wl.build_round(r)
        spans.append((start, time.perf_counter() - start))
        if probe is not None:
            probe.sample()
        r += 1
    return spans


def setup_seconds(import_spans, round_spans, probe):
    """Set-up time at reference speed: the median import plus SETUP_PARTS
    times the median of SETUP_PARTS equal parts of the input rounds."""
    def ref(spans):
        return [d * probe.scale(t) for t, d in spans]
    total = statistics.median(ref(import_spans))
    rounds = ref(round_spans)
    if rounds:
        per = -(-len(rounds) // SETUP_PARTS)
        parts = [sum(rounds[i:i + per]) for i in range(0, len(rounds), per)]
        total += len(parts) * statistics.median(parts)
    return total


def run_gate(cls, wdir, outputs=None):
    """Run the fixed gate ops and compare their digests with the pinned ones.

    ``outputs`` replaces the program's raw output of gate op k when it has
    key k (used to show that a wrong output fails the gate).  Returns
    (ops, failed ops, combined digest, per-op digests).
    """
    wl = make_workload(cls, GATE_SEED, wdir)
    build(wl, cls.gate_ops)
    pinned = load_pinned().get(cls.name, [])
    failed, digests = 0, []
    for k in range(cls.gate_ops):
        try:
            out = outputs[k] if outputs and k in outputs else wl.run_op(k)
        except Exception as exc:  # a gate op that raises is a failed op
            ok, dg = failed_with(exc)
        else:
            ok, dg = checked(wl, k, out)
        digests.append(dg[:16])
        if not ok or k >= len(pinned) or pinned[k] != dg[:16]:
            failed += 1
    return cls.gate_ops, failed, combined_digest(digests), digests


def reference_seconds(args, n_ops):
    """Untraced op seconds of the same fixed ops, from a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--ops", str(n_ops)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    labels = json.loads(proc.stdout.strip().splitlines()[-2])["labels"]
    return labels["ops_ref_seconds"]


def labels_for(args, wl, cls, oks, digests, raw, ref):
    import parstack
    backend = type(parstack.QQ.one)
    out = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "backend": "%s.%s" % (backend.__module__, backend.__qualname__),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "ops": len(raw), "ops_failed": oks.count(False),
        "ops_wall_seconds": sum(raw), "ops_ref_seconds": sum(ref),
        "run_digest": combined_digest(digests),
        "inputs": wl.info(),
    }
    if raw:
        _, beyond = tail(raw, cls.tail_pct)
        out.update(tail_percentile=cls.tail_pct, tail_ops_beyond=beyond,
                   wall_ops_per_s=len(raw) / sum(raw),
                   wall_op_p50_ms=statistics.median(raw) * 1000,
                   wall_op_tail_ms=tail(raw, cls.tail_pct)[0] * 1000)
    if hasattr(wl, "span_of"):
        spans = {}
        for k in range(len(raw)):
            field_name, span = wl.span_of(k)
            s = spans.setdefault(field_name, {"max_span": 0, "ops_span_ge_7": 0,
                                              "op_seconds_span_ge_7": 0.0})
            s["max_span"] = max(s["max_span"], span)
            s["ops_span_ge_7"] += span >= 7
            s["op_seconds_span_ge_7"] += ref[k] if span >= 7 else 0.0
        out["form_spans"] = spans
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None,
                   help="run exactly this many ops instead of --seconds")
    args = p.parse_args(argv)

    probe = SpeedProbe()
    probe.sample()
    try:
        import_spans = import_program(probe)
    except ImportError as exc:
        print("perfbench: cannot import the program: %s" % exc, file=sys.stderr)
        return 2
    import predictions
    import workloads
    from tracer import Tracer
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]

    n_ops = args.ops if args.ops is not None else (cls.trace_ops if args.trace else None)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    with workloads.workdir(ROOT) as wdir:
        wl = make_workload(cls, args.seed, os.path.join(wdir, "run"))
        if tracer is not None:
            tracer.enabled = True
        round_spans = build(wl, n_ops, probe)
        if tracer is not None:
            tracer.enabled = False
        starts, raw, oks, digests = run_ops(wl, args.seconds, n_ops, probe, tracer)
        if tracer is not None:
            tracer.uninstall()
        gate_ops, gate_failed, gate_digest, _ = run_gate(cls, os.path.join(wdir, "gate"))

    lat = at_reference_speed(starts, raw, probe)
    setup_s = setup_seconds(import_spans, round_spans, probe)
    labels = labels_for(args, wl, cls, oks, digests, raw, lat)
    labels.update(setup_wall_s=sum(d for _, d in import_spans + round_spans),
                  import_wall_s=[d for _, d in import_spans],
                  probe_median_s=statistics.median(probe.durations),
                  probe_samples=len(probe.durations),
                  gate_ops=gate_ops, gate_failed=gate_failed, gate_digest=gate_digest)
    attempted = len(lat) + gate_ops
    failed = oks.count(False) + gate_failed
    if args.trace:
        ref = reference_seconds(args, len(lat))
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = sum(lat) - ref
        metrics["trace.overhead_share"] = (sum(lat) - ref) / ref if ref else 0.0
        labels["untraced_ops_ref_seconds"] = ref
        labels["prediction_violations"] = predictions.violations(args.workload, metrics)
        units = {name: unit for name, unit, _ in predictions.per_layer_specs()}
    else:
        metrics = {
            "ops_per_s": len(lat) / sum(lat) if lat else 0.0,
            "op_p50_ms": statistics.median(lat) * 1000 if lat else 0.0,
            "op_tail_ms": tail(lat, cls.tail_pct)[0] * 1000 if lat else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": (attempted - failed) / attempted,
        }
        units = {name: unit for name, unit, _, _ in predictions.END_TO_END}
    print(json.dumps({"labels": labels}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and len(lat) > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

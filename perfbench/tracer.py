"""Layer spans and counters for the traced run, recorded from outside.

The tracer replaces public functions of parstack with timing wrappers.
Modules import names directly (``split_into_lines`` is bound in
``parabolic``, ``functors``, ``rootstack`` and ``harness``), so every module
global bound to a traced function is replaced, and traced methods are
replaced on their class.  Open spans are kept in memory on a stack, so
each span's parent is the one below it; when a span closes, its duration
goes to its layer's totals and to its parent's child time.  Inclusive
time counts only the outermost span of a layer, and self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (layer, module, attribute): traced module-level functions
FUNCTIONS = (
    ("lattice.apply_matrix", "lattice", "apply_matrix"),
    ("parabolic.split_into_lines", "parabolic", "split_into_lines"),
    ("functors.restrict_scalars", "functors", "restrict_scalars"),
    ("functors.pushforward_parabolic", "functors", "pushforward_parabolic"),
    ("functors.pushforward_graded", "functors", "pushforward_graded"),
    ("functors.pullback_parabolic", "functors", "pullback_parabolic"),
    ("functors.pullback_graded", "functors", "pullback_graded"),
    ("pairing.check_pairing", "pairing", "check_pairing"),
    ("pairing.hom_chain", "pairing", "hom_chain"),
    ("pairing.pushforward_pairing", "pairing", "pushforward_pairing"),
    ("pairing.pullback_pairing", "pairing", "pullback_pairing"),
    ("harness.gen_pairing_point", "harness", "gen_pairing_point"),
    ("scenario.loads", "scenario", "loads"),
    ("scenario.dumps", "scenario", "dumps"),
    ("cli.main", "cli", "main"),
)

# (layer, module, name prefix): groups timed as one layer
GROUPS = (
    ("harness.gen", "harness", "gen_"),
    ("scenario.decode", "scenario", "decode_"),
    ("scenario.encode", "scenario", "encode_"),
)

# (layer, module, class, attribute): traced methods
METHODS = (
    ("lattice.from_columns", "lattice", "Lattice", "from_columns"),
    ("lattice.solve", "lattice", "Lattice", "solve"),
    ("lattice.contains", "lattice", "Lattice", "contains"),
    ("lattice.dual", "lattice", "Lattice", "dual"),
    ("parabolic.ParabolicPoint", "parabolic", "ParabolicPoint", "__init__"),
    ("parabolic.weights", "parabolic", "ParabolicPoint", "weights"),
    ("rootstack.GradedModule", "rootstack", "GradedModule", "__init__"),
)

# what the per-layer metrics report of each layer
REPORTED = {
    "lattice.from_columns": ("calls", "s", "self_s"),
    "lattice.solve": ("calls", "s"),
    "lattice.contains": ("calls",),
    "lattice.dual": ("calls", "s"),
    "lattice.apply_matrix": ("calls", "s"),
    "parabolic.ParabolicPoint": ("calls", "s"),
    "rootstack.GradedModule": ("calls", "s"),
    "parabolic.split_into_lines": ("calls", "s"),
    "parabolic.weights": ("calls", "s"),
    "functors.restrict_scalars": ("calls", "s"),
    "functors.pushforward_parabolic": ("s",),
    "functors.pushforward_graded": ("s",),
    "functors.pullback_parabolic": ("s",),
    "functors.pullback_graded": ("s",),
    "pairing.check_pairing": ("calls", "s", "self_s"),
    "pairing.hom_chain": ("calls", "s"),
    "pairing.pushforward_pairing": ("s",),
    "pairing.pullback_pairing": ("s",),
    "harness.gen_pairing_point": ("s",),
    "harness.gen": ("s",),
    "scenario.loads": ("s",),
    "scenario.decode": ("s",),
    "scenario.encode": ("s",),
    "scenario.dumps": ("s",),
    "cli.main": ("s",),
}

# counters: (metric, unit, better)
COUNTERS = (
    ("localring.mul.calls", "count", "lower"),
    ("localring.coeff_mults", "count", "lower"),
    ("localring.max_len", "count", "lower"),
    ("localring.inv_series.calls", "count", "lower"),
    ("localring.inv_series.const_share", "ratio", "higher"),
    ("harness.gen_pairing_point.check_calls", "count", "lower"),
    ("harness.gen_pairing_point.hit_ratio", "ratio", "higher"),
    ("scenario.bytes_out", "bytes", "lower"),
)


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, fields in REPORTED.items():
        for f in fields:
            out.append(("%s.%s" % (layer, f), "count" if f == "calls" else "s", "lower"))
    return out + list(COUNTERS)


class Tracer:
    """Spans and counters for one traced run; ``install`` patches parstack."""

    def __init__(self):
        self.enabled = False
        self.stack = []                 # open spans: [layer, start, child time]
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.depth = defaultdict(int)
        self.count = defaultdict(int)
        self._restore = []

    # -- spans -----------------------------------------------------------

    def _wrap(self, layers, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            for layer in layers:
                tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                for layer in reversed(layers):
                    tracer._exit(layer)
            if on_result is not None:
                on_result(result)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _enter(self, layer):
        self.depth[layer] += 1
        self.calls[layer] += 1
        self.stack.append([layer, time.perf_counter(), 0.0])

    def _exit(self, layer):
        end = time.perf_counter()
        name, start, child = self.stack.pop()
        dur = end - start
        self.self_time[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        self.depth[name] -= 1
        if not self.depth[name]:
            self.inclusive[name] += dur

    # -- installation ------------------------------------------------------

    def _replace_bindings(self, original, replacement):
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name == "parstack" or name.startswith("parstack.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def install(self):
        mods = {m: sys.modules["parstack." + m] for m in
                ("lattice", "parabolic", "rootstack", "functors", "pairing",
                 "harness", "scenario", "cli", "localring")}
        count = self.count

        def check_result(ok):
            if self.depth["harness.gen_pairing_point"]:
                count["harness.gen_pairing_point.check_calls"] += 1
                count["harness.gen_pairing_point.hits"] += bool(ok)

        def dumps_result(text):
            count["scenario.bytes_out"] += len(text)

        hooks = {"pairing.check_pairing": check_result, "scenario.dumps": dumps_result}
        grouped = {}
        for layer, mod, prefix in GROUPS:
            for attr, value in vars(mods[mod]).items():
                if attr.startswith(prefix) and callable(value):
                    grouped[value] = layer
        done = set()
        for layer, mod, attr in FUNCTIONS:
            fn = getattr(mods[mod], attr)
            layers = ([grouped[fn]] if fn in grouped else []) + [layer]
            self._replace_bindings(fn, self._wrap(layers, fn, hooks.get(layer)))
            done.add(fn)
        for fn, layer in grouped.items():
            if fn not in done:
                self._replace_bindings(fn, self._wrap([layer], fn))
        for layer, mod, cls_name, attr in METHODS:
            cls = getattr(mods[mod], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap([layer], raw.__func__))
            else:
                new = self._wrap([layer], raw)
            setattr(cls, attr, new)
            self._restore.append((cls, attr, raw))
        self._install_counters(mods["localring"].LocalElement)

    def _install_counters(self, element):
        tracer, count = self, self.count
        mul, inv = element.__dict__["__mul__"], element.__dict__["inv_series"]

        def traced_mul(a, b):
            if tracer.enabled:
                la, lb = len(a.coeffs), len(b.coeffs)
                count["localring.mul.calls"] += 1
                count["localring.coeff_mults"] += la * lb
                if la > count["localring.max_len"]:
                    count["localring.max_len"] = la
                if lb > count["localring.max_len"]:
                    count["localring.max_len"] = lb
            return mul(a, b)

        def traced_inv(a, nterms):
            if tracer.enabled:
                count["localring.inv_series.calls"] += 1
                count["localring.inv_series.const"] += len(a.coeffs) == 1
            return inv(a, nterms)

        for attr, new, raw in (("__mul__", traced_mul, mul), ("inv_series", traced_inv, inv)):
            setattr(element, attr, new)
            self._restore.append((element, attr, raw))

    def uninstall(self):
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()
        self.enabled = False

    # -- report -------------------------------------------------------------

    def metrics(self):
        out = {}
        for layer, fields in REPORTED.items():
            for f in fields:
                if f == "calls":
                    out[layer + ".calls"] = self.calls[layer]
                elif f == "s":
                    out[layer + ".s"] = self.inclusive[layer]
                else:
                    out[layer + ".self_s"] = self.self_time[layer]
        c = self.count
        for name, _, _ in COUNTERS:
            out[name] = c[name]
        out["localring.inv_series.const_share"] = _ratio(
            c["localring.inv_series.const"], c["localring.inv_series.calls"])
        out["harness.gen_pairing_point.hit_ratio"] = _ratio(
            c["harness.gen_pairing_point.hits"], c["harness.gen_pairing_point.check_calls"])
        return out


def _ratio(num, den):
    return num / den if den else 0.0

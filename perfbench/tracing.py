"""Spans around calls into fairsplit, recorded from the benchmark's side.

Tracer.install() replaces each (module, attribute) in WRAPPED with a timing
wrapper and Tracer.remove() puts the originals back.  A span is
(name, start, end, parent span index, op index, count, status); spans stay in
memory until the run ends.  per_layer() turns the spans of one pass into the
per-layer metrics named in BENCHMARK.json.
"""

import importlib
import statistics
import time
from collections import Counter

EQUIVARIANCE_SMALL_FACES = 150000

# The public entry points the workloads call, plus the names that kneser,
# compose, solver and geometry imported, so that solver time inside the
# Kneser pipeline and LP time inside geometric searches get spans too.
WRAPPED = [
    ("fairsplit.solver", "find_splitting", "solver"),
    ("fairsplit.kneser", "find_splitting", "solver"),
    ("fairsplit.compose", "find_splitting", "solver"),
    ("fairsplit.splitting", "check_splitting", "splitting.check"),
    ("fairsplit.solver", "check_splitting", "splitting.check"),
    ("fairsplit.kneser", "check_splitting", "splitting.check"),
    ("fairsplit.compose", "check_splitting", "splitting.check"),
    ("fairsplit.serial", "canonical_dumps", "serial.dumps"),
    ("fairsplit.constraint_map", "verify_zero_set", "constraint_map.zero_set"),
    ("fairsplit.constraint_map", "verify_equivariance", "constraint_map.equivariance"),
    ("fairsplit.kneser", "build_hypergraph", "kneser.build"),
    ("fairsplit.kneser", "chromatic_number", "kneser.chi"),
    ("fairsplit.kneser", "splitting_from_coloring", "kneser.pipeline"),
    ("fairsplit.exactlp", "convex_hulls_common_point", "exactlp.hull"),
    ("fairsplit.geometry", "convex_hulls_common_point", "exactlp.hull"),
    ("fairsplit.solver", "convex_hulls_common_point", "exactlp.hull"),
    ("fairsplit.geometry", "hulls_intersect", "geometry.hulls"),
    ("fairsplit.geometry", "tverberg_search", "geometry.tverberg"),
    ("fairsplit.geometry", "strong_general_position_check", "geometry.sgp"),
    ("fairsplit.compose", "power_of_two_splitting", "compose"),
    ("fairsplit.homology", "homology", "homology"),
]

# name -> (unit, better); the order is the order of the report
METRICS = {
    "solver.calls": ("count", "lower"),
    "solver.busy_s": ("s", "lower"),
    "solver.self_s": ("s", "lower"),
    "solver.ms_per_call": ("ms", "lower"),
    "solver.nodes": ("count", "lower"),
    "solver.nodes_per_s": ("1/s", "higher"),
    "solver.found_calls": ("count", "lower"),
    "solver.none_calls": ("count", "lower"),
    "solver.found_busy_s": ("s", "lower"),
    "solver.none_busy_s": ("s", "lower"),
    "splitting.check_calls": ("count", "lower"),
    "splitting.check_busy_s": ("s", "lower"),
    "serial.dumps_calls": ("count", "lower"),
    "serial.dumps_busy_s": ("s", "lower"),
    "serial.dumps_bytes": ("bytes", "lower"),
    "constraint_map.zero_set.calls": ("count", "lower"),
    "constraint_map.zero_set.busy_s": ("s", "lower"),
    "constraint_map.zero_set.faces": ("count", "lower"),
    "constraint_map.zero_set.faces_per_s": ("1/s", "higher"),
    "constraint_map.equivariance_small.busy_s": ("s", "lower"),
    "constraint_map.equivariance_small.face_perms": ("count", "lower"),
    "constraint_map.equivariance_small.face_perms_per_s": ("1/s", "higher"),
    "constraint_map.equivariance_large.busy_s": ("s", "lower"),
    "constraint_map.equivariance_large.face_perms": ("count", "lower"),
    "constraint_map.equivariance_large.face_perms_per_s": ("1/s", "higher"),
    "kneser.build.busy_s": ("s", "lower"),
    "kneser.build.edges": ("count", "lower"),
    "kneser.chi.calls": ("count", "lower"),
    "kneser.chi.busy_s": ("s", "lower"),
    "kneser.pipeline.calls": ("count", "lower"),
    "kneser.pipeline.busy_s": ("s", "lower"),
    "kneser.pipeline.self_s": ("s", "lower"),
    "exactlp.hull.calls": ("count", "lower"),
    "exactlp.hull.busy_s": ("s", "lower"),
    "exactlp.hull.us_per_call": ("us", "lower"),
    "geometry.busy_s": ("s", "lower"),
    "geometry.self_s": ("s", "lower"),
    "geometry.tverberg.busy_s": ("s", "lower"),
    "geometry.sgp.busy_s": ("s", "lower"),
    "compose.calls": ("count", "lower"),
    "compose.busy_s": ("s", "lower"),
    "compose.self_s": ("s", "lower"),
    "homology.calls": ("count", "lower"),
    "homology.busy_s": ("s", "lower"),
    "trace.overhead_share": ("share", "lower"),
}


def _span_name(name, args):
    if name == "constraint_map.equivariance":
        small = args[0].face_count() < EQUIVARIANCE_SMALL_FACES
        return name + ("_small" if small else "_large")
    return name


def _span_count(name, result):
    """The exact work count a span carries, read off the call's result."""
    if name == "solver":
        return result.nodes
    if name == "constraint_map.zero_set":
        return result.faces_processed
    if name.startswith("constraint_map.equivariance"):
        return result.faces_processed * result.permutations_checked
    if name == "kneser.build":
        return len(result.edges)
    if name == "serial.dumps":
        return len(result)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def install(self):
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise SystemExit("perfbench: %s has no attribute %r; update "
                                 "tracing.WRAPPED" % (module_name, attr))
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def remove(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_name = _span_name(name, args)
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                done = result is not None
                spans[index] = (span_name, start, end, parent, self.op,
                                _span_count(span_name, result) if done else 0,
                                getattr(result, "status", None))

        return traced


def _layer(name):
    return name.split(".")[0]


def _durations(spans, op_scale):
    """Reference-speed duration of every span, and the summed durations of
    each span's direct children."""
    dur = [(end - start) * op_scale[op] for _, start, end, _, op, _, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] is not None:
            child[span[3]] += dur[i]
    return dur, child


def per_layer(spans, op_scale):
    """Per-layer metrics of one traced pass; op_scale[op] converts the raw
    seconds of that op's spans to reference-speed seconds (see speed.py).

    busy = summed duration of the spans that have no ancestor of the same
    name (or, for a whole layer, the same layer); self = a span's duration
    minus its direct children's, summed over the layer's spans.
    """
    dur, child = _durations(spans, op_scale)

    def outermost(i, same):
        key = same(spans[i][0])
        p = spans[i][3]
        while p is not None:
            if same(spans[p][0]) == key:
                return False
            p = spans[p][3]
        return True

    calls, count, busy, selft = Counter(), Counter(), Counter(), Counter()
    layer_busy, layer_self = Counter(), Counter()
    for i, (name, _, _, _, _, n, status) in enumerate(spans):
        layer = _layer(name)
        calls[name] += 1
        count[name] += n
        selft[name] += dur[i] - child[i]
        layer_self[layer] += dur[i] - child[i]
        if outermost(i, lambda x: x):
            busy[name] += dur[i]
        if outermost(i, _layer):
            layer_busy[layer] += dur[i]
        if name == "solver" and status in ("found", "exhausted_none"):
            calls["solver." + status] += 1
            busy["solver." + status] += dur[i]

    def rate(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    zs = "constraint_map.zero_set"
    out = {
        "solver.calls": calls["solver"],
        "solver.busy_s": busy["solver"],
        "solver.self_s": selft["solver"],
        "solver.ms_per_call": rate(busy["solver"], calls["solver"], 1e3),
        "solver.nodes": count["solver"],
        "solver.nodes_per_s": rate(count["solver"], busy["solver"]),
        "solver.found_calls": calls["solver.found"],
        "solver.none_calls": calls["solver.exhausted_none"],
        "solver.found_busy_s": busy["solver.found"],
        "solver.none_busy_s": busy["solver.exhausted_none"],
        "splitting.check_calls": calls["splitting.check"],
        "splitting.check_busy_s": busy["splitting.check"],
        "serial.dumps_calls": calls["serial.dumps"],
        "serial.dumps_busy_s": busy["serial.dumps"],
        "serial.dumps_bytes": count["serial.dumps"],
        zs + ".calls": calls[zs],
        zs + ".busy_s": busy[zs],
        zs + ".faces": count[zs],
        zs + ".faces_per_s": rate(count[zs], busy[zs]),
    }
    for size in ("small", "large"):
        eq = "constraint_map.equivariance_" + size
        out[eq + ".busy_s"] = busy[eq]
        out[eq + ".face_perms"] = count[eq]
        out[eq + ".face_perms_per_s"] = rate(count[eq], busy[eq])
    out.update({
        "kneser.build.busy_s": busy["kneser.build"],
        "kneser.build.edges": count["kneser.build"],
        "kneser.chi.calls": calls["kneser.chi"],
        "kneser.chi.busy_s": busy["kneser.chi"],
        "kneser.pipeline.calls": calls["kneser.pipeline"],
        "kneser.pipeline.busy_s": busy["kneser.pipeline"],
        "kneser.pipeline.self_s": selft["kneser.pipeline"],
        "exactlp.hull.calls": calls["exactlp.hull"],
        "exactlp.hull.busy_s": busy["exactlp.hull"],
        "exactlp.hull.us_per_call": rate(busy["exactlp.hull"], calls["exactlp.hull"], 1e6),
        "geometry.busy_s": layer_busy["geometry"],
        "geometry.self_s": layer_self["geometry"],
        "geometry.tverberg.busy_s": busy["geometry.tverberg"],
        "geometry.sgp.busy_s": busy["geometry.sgp"],
        "compose.calls": calls["compose"],
        "compose.busy_s": busy["compose"],
        "compose.self_s": selft["compose"],
        "homology.calls": calls["homology"],
        "homology.busy_s": busy["homology"],
    })
    return out


def span_table(spans, op_scale):
    """name -> [spans, summed seconds, self seconds], for the stderr report."""
    dur, child = _durations(spans, op_scale)
    table = {}
    for i, span in enumerate(spans):
        row = table.setdefault(span[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur[i]
        row[2] += dur[i] - child[i]
    return table


def median_metrics(per_pass):
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}

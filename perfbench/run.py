"""fairsplit benchmark.

    python3 perfbench/run.py --workload search|sweep|phi --seed N \
        --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  One
process and one thread run the workload's ops back to back (a closed loop
with one client) in passes, at least two and more until S seconds have
gone by.  Then the last line of stdout is a JSON object with correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.
Progress and a span table go to stderr.

Every op's output is checked against oracles.py and its canonical bytes
must not change between passes (or between traced and untraced passes); a
failed op counts against ok_share.  Op times are in reference-speed
seconds (speed.py); setup_s is wall time.  See README.md for the workloads
and metrics.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 7
TAIL_BEYOND = 10   # op_tail_ms: at least this many op times lie above its percentile
MIN_PASSES = 2     # so every op has two timings and a byte comparison
# Set-up in a fresh interpreter: import fairsplit (numpy included) through
# the workload module and build the inputs.  Its wall time is not scaled:
# set-up drifts with the machine in ways the reference task does not follow
# (README.md).
SETUP_CHILD = ("import sys, time; sys.path[:0] = sys.argv[1:3]; t0 = time.perf_counter(); "
               "import workloads; workloads.build(sys.argv[3], int(sys.argv[4])); "
               "print(repr(time.perf_counter() - t0))")
SHOWN_FAULTS = 10


def measure_setup(workload, seed):
    """Median wall time of several fresh-interpreter set-ups: import
    fairsplit (numpy included) and build the workload's inputs."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, HERE, SRC, workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


class Runner:
    """Runs passes over one op list and keeps the failure and digest books."""

    def __init__(self, ops, sampler):
        self.ops = ops
        self.sampler = sampler
        self.digests = [None] * len(ops)
        self.attempted = 0
        self.failed = 0

    def one_pass(self, tracer=None):
        """Returns (reference-speed seconds, scale factor), one of each per op."""
        sampler = self.sampler
        start = time.perf_counter()
        times, scale = [], []
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            result = text = fault = None
            begin = sampler.mark()
            t0 = time.perf_counter()
            try:
                result, text = op.call()
            except Exception:
                fault = "raised:\n" + traceback.format_exc()
            elapsed = time.perf_counter() - t0
            scale.append(sampler.factor(begin, sampler.mark()))
            times.append(elapsed * scale[-1])
            self._check(i, op, result, text, fault)
        if tracer is not None:
            tracer.op = None
        print("  %.3f s wall, speed factor %.3f..%.3f"
              % (time.perf_counter() - start, min(scale), max(scale)), file=sys.stderr)
        return times, scale

    def _check(self, i, op, result, text, fault):
        self.attempted += 1
        if fault is None:
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digests[i] is None:
                self.digests[i] = digest
            elif self.digests[i] != digest:
                fault = "canonical bytes differ from an earlier pass"
        if fault is None:
            try:
                fault = op.check(result, json.loads(text))
            except Exception:
                fault = "check raised:\n" + traceback.format_exc()
        if fault is not None:
            self.failed += 1
            if self.failed <= SHOWN_FAULTS:
                print("FAILED %s: %s" % (op.key, fault), file=sys.stderr)


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a mean of the sorted values
    weighted by the Beta((n+1)p, (n+1)(1-p)) mass over each value's slot of
    [0, 1].  A single order statistic jumps whenever two neighbouring ops
    swap ranks between runs; this moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    steps = 8
    logs = []
    for i in range(n):
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            logs.append((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    top = max(logs)
    mass = [math.fsum(math.exp(v - top) for v in logs[i * steps:(i + 1) * steps])
            for i in range(n)]
    return math.fsum(m * x for m, x in zip(mass, xs)) / math.fsum(mass)


def tail_percentile(n):
    """The highest whole percentile with at least TAIL_BEYOND of n samples
    above it."""
    return math.floor(100 * (n - TAIL_BEYOND) / n) / 100


def end_to_end(passes, setup_s, runner):
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_op = [statistics.median(times[i] for times in passes)
              for i in range(len(runner.ops))]
    return {
        "pass_s": (statistics.median(sum(times) for times in passes), "s"),
        "op_p50_ms": (quantile(per_op, 0.5) * 1e3, "ms"),
        "op_tail_ms": (quantile(per_op, tail_percentile(len(per_op))) * 1e3, "ms"),
        "ok_share": (1.0 - runner.failed / runner.attempted, "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def write_trace(workload, seed, spans, table):
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trace-%s-%d.json" % (workload, seed))
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "count", "status"],
                   "table": table, "spans": spans}, fh)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["search", "sweep", "phi"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fairsplit", "__init__.py")):
        print("perfbench: no fairsplit sources under %s" % SRC, file=sys.stderr)
        return 2
    setup_s = measure_setup(args.workload, args.seed)

    sys.path[:0] = [HERE, SRC]
    import speed
    import tracing
    import workloads

    ops = workloads.build(args.workload, args.seed)
    # The ops and their inputs live for the whole run; a CLI call holds one.
    # Freezing them keeps full collections inside ops from walking them.
    gc.collect()
    gc.freeze()
    sampler = speed.Sampler()
    runner = Runner(ops, sampler)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + args.seconds
    sampler.start()
    try:
        while True:
            times, _ = runner.one_pass()
            plain.append(times)
            print("pass %d: %.3f s" % (len(plain), sum(times)), file=sys.stderr)
            if tracer is not None:
                tracer.spans.clear()
                tracer.install()
                try:
                    times, scale = runner.one_pass(tracer)
                finally:
                    tracer.remove()
                traced.append(times)
                spans = tracer.spans
                layers.append(tracing.per_layer(spans, scale))
                print("traced pass %d: %.3f s, %d spans"
                      % (len(traced), sum(times), len(spans)), file=sys.stderr)
            if len(plain) + len(traced) >= MIN_PASSES and time.perf_counter() >= deadline:
                break
    finally:
        sampler.stop()

    if tracer is None:
        metrics = end_to_end(plain, setup_s, runner)
    else:
        values = tracing.median_metrics(layers)
        values["trace.overhead_share"] = (
            statistics.median(sum(t) for t in traced)
            / statistics.median(sum(t) for t in plain) - 1.0)
        metrics = {name: (values[name], unit)
                   for name, (unit, _) in tracing.METRICS.items()}
        table = tracing.span_table(spans, scale)
        for name, (count, total, own) in sorted(table.items()):
            print("  %-42s %8d spans %10.4f s %10.4f s self" % (name, count, total, own),
                  file=sys.stderr)
        print("spans written to %s" % write_trace(args.workload, args.seed, spans, table),
              file=sys.stderr)

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

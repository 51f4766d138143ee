"""One workload in one process: set up, time every op, check it, report.

Run by run.py with PYTHONHASHSEED pinned and PYTHONPATH set to the
checkout's ``src``, in three modes.  --select prints the instances the
seed selects, with what the checks expect of them.  The default mode reads
that selection on standard input and, for each instance in turn, builds it
(untimed), runs its op (timed) and checks the output (untimed); holding
one instance at a time keeps the peak RSS that of one op.  --setup-only
reads the selection too, imports the package and builds every instance,
and reports only that time.  The last line of standard output is
always one JSON object.
"""

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

# Percentiles a tail may be; the reported one is the highest with at least
# ten samples beyond it.
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def import_package():
    start = time.perf_counter()
    import plotgarden
    took = time.perf_counter() - start
    if Path(plotgarden.__file__).resolve().parent != SRC / "plotgarden":
        raise SystemExit("plotgarden was imported from %s, not from %s"
                         % (plotgarden.__file__, SRC))
    return took


def rank(n, q):
    """The 1-based nearest rank of percentile q among n samples."""
    return max(1, math.ceil(n * Fraction(str(q)) / 100))


def percentile(ordered, q):
    """Nearest-rank percentile of an ascending list; the median at 50."""
    if q == 50:
        return statistics.median(ordered)
    return ordered[rank(len(ordered), q) - 1]


def tail_percentile(n):
    fits = [q for q in PERCENTILES if n - rank(n, q) >= 10]
    return fits[-1] if fits else 50


def time_ops(wl, specs, tracer, on_op):
    """Run one op per instance, each built just before its op, untimed;
    return the op times, the number of ops that raised and the number of
    outputs that failed their check."""
    span = tracer.span if tracer else _no_span
    times = []
    failed = wrong = 0
    for i, spec in enumerate(specs):
        instance = wl.build(spec)
        if wl.collect:
            gc.collect()
        frame = tracer.begin_op(i) if tracer else None
        start = time.perf_counter()
        try:
            output = wl.run(instance, span)
        except Exception as err:  # an op that raises counts as failed
            took = None
            failed += 1
            print("op %d (%s) failed: %r" % (i, spec, err), file=sys.stderr)
        else:
            took = time.perf_counter() - start
        distinct = tracer.end_op(frame) if tracer else None
        if took is not None:
            times.append(took)
            bad = wl.check(i, spec, instance, output)
            if bad:
                wrong += 1
                print("op %d (%s): %s" % (i, spec, bad), file=sys.stderr)
            on_op(i, spec, instance, output, took, distinct)
            del output
        del instance
    return times, failed, wrong


def _no_span(layer):
    return contextlib.nullcontext()


def end_to_end(times):
    """The end-to-end metrics but set-up, which run.py measures apart."""
    ordered = sorted(times)
    return {
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "op_p50_ms": {"value": percentile(ordered, 50) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": percentile(
            ordered, tail_percentile(len(ordered))) * 1e3, "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024, "unit": "MB"},
    }


def traced_run(wl, specs, args):
    """Run the ops under the tracer; write the trace file; return the
    per-layer metrics."""
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    ops = []
    last_self, last_calls = {}, {}

    def on_op(index, spec, instance, output, took, distinct):
        self_ms = {k: (v - last_self.get(k, 0.0)) * 1e3
                   for k, v in tracer.self_s.items()
                   if v != last_self.get(k, 0.0)}
        calls = {k: v - last_calls.get(k, 0)
                 for k, v in tracer.calls.items()
                 if v != last_calls.get(k, 0)}
        last_self.update(tracer.self_s)
        last_calls.update(tracer.calls)
        ops.append({"index": index, "spec": spec, "wall_ms": took * 1e3,
                    "self_ms": self_ms, "calls": calls,
                    "distinct": distinct,
                    "sizes": wl.sizes(instance, output)})

    try:
        times, failed, wrong = time_ops(wl, specs, tracer, on_op)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(ops, len(times) / sum(times))
    path = OUT_DIR / ("trace-%s-seed%s.json" % (wl.name, args.seed))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": wl.name, "seed": args.seed,
                   "seconds": args.seconds, "summary": metrics, "ops": ops,
                   "spans_for_ops": tracing.SPAN_OPS,
                   "spans": tracer.spans}, handle)
        handle.write("\n")
    print("trace written to %s" % path, file=sys.stderr)
    return {"correct": not wrong, "attempted": len(times) + failed,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--select", action="store_true",
                      help="print the selected instances and expectations")
    mode.add_argument("--setup-only", action="store_true",
                      help="only import and build the selected instances")
    args = parser.parse_args(argv)

    import_s = import_package()
    import workloads
    wl = workloads.WORKLOADS[args.workload]()
    OUT_DIR.mkdir(exist_ok=True)
    wl.out_dir = OUT_DIR

    if args.select:
        specs = wl.select(args.seed, args.seconds)
        print(json.dumps({"specs": specs, "expected": wl.expected}))
        return 0

    selection = json.load(sys.stdin)
    specs = selection["specs"]
    if args.setup_only:
        start = time.perf_counter()
        instances = [wl.build(spec) for spec in specs]
        setup_s = import_s + time.perf_counter() - start
        del instances
        print(json.dumps({"setup_s": setup_s}))
        return 0
    wl.expected = selection["expected"]

    start = time.perf_counter()
    if args.trace:
        result = traced_run(wl, specs, args)
    else:
        times, failed, wrong = time_ops(wl, specs, None, lambda *op: None)
        result = {"correct": not wrong,
                  "attempted": len(times) + failed, "failed": failed,
                  "metrics": end_to_end(times)}
    print("%s: built, ran and checked %d ops in %.2f s" % (
        wl.name, len(specs), time.perf_counter() - start), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for plotgarden: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process selects the instances and
a fresh worker process runs them; both import plotgarden from the
checkout's ``src`` with PYTHONHASHSEED pinned.  With --trace 0 the last
line of output holds the end-to-end metrics; set-up (import plus building
every instance) is measured in further fresh processes, SETUP_SAMPLES of
them and at least SETUP_SECONDS' worth before the timed worker and again
after it, and the median of all of them is reported.
With --trace 1 the ops run under the tracer instead, the last line holds the
per-layer metrics, and the spans go to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HASH_SEED = "0"
SETUP_SAMPLES = 3
SETUP_SECONDS = 1.5
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20
WORKLOADS = ("fuzz-default", "verify-plots-medium", "verify-gardens-large",
             "replay-oracle")


def _worker(args, extra, stdin=None, timeout=WORKER_TIMEOUT_S):
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    done = subprocess.run(cmd, input=stdin, stdout=subprocess.PIPE,
                          env=env, text=True, timeout=timeout, check=False)
    if done.returncode != 0:
        raise SystemExit("worker exited with %d" % done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "plotgarden" / "__init__.py").is_file():
        print("error: no plotgarden package under %s" % SRC, file=sys.stderr)
        return 2

    selection = json.dumps(_worker(args, ["--select"]))

    def set_up():
        times = []
        start = time.perf_counter()
        while (len(times) < SETUP_SAMPLES
               or time.perf_counter() - start < SETUP_SECONDS):
            times.append(_worker(args, ["--setup-only"], stdin=selection,
                                 timeout=PROBE_TIMEOUT_S)["setup_s"])
        return times

    # Set-up is sampled before the timed worker and again after it, so
    # that the median spans the run rather than one moment of it; a short
    # set-up is sampled many times.
    setup = [] if args.trace else set_up()
    result = _worker(args, [], stdin=selection)
    if not args.trace:
        setup += set_up()
        result["metrics"] = dict(
            setup_s={"value": statistics.median(setup), "unit": "s"},
            **result["metrics"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

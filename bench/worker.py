"""One workload process.  ``run.py`` starts it with BLAS/OpenMP pinned to one
thread and reads the JSON object it prints as its last line.

Modes:
  setup  import pottsglass, build the workload inputs, report when ready
  timed  then run checked, untraced passes, starting passes until --seconds
         have gone by; pass k runs on the inputs of rep k
  trace  untraced, traced (spans written to --spans) and untraced passes,
         then for a multi-threaded workload one untraced pass at threads=1
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import pottsglass  # noqa: E402
import workloads  # noqa: E402
from pottsglass import cascade, cli, core, diagnostics, functional, model, optimize, util  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
MODULES = (pottsglass, cli, optimize, functional, cascade, model, diagnostics, core, util)


def machine():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def traced_pass(ops, threads, log=None):
    """One checked pass with every public function wrapped; returns
    (tracer, wall seconds, attempted, failed)."""
    tracer = Tracer(MODULES)
    tracer.install()
    try:
        wall, attempted, failed = workloads.run_pass(ops, threads, log)
    finally:
        tracer.restore()
    return tracer, wall, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "timed", "trace"])
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    ops = workloads.BUILDERS[args.workload](args.seed)
    out = {"ready": time.monotonic(), "machine": machine()}
    threads = workloads.THREADS[args.workload]
    log = []
    tally = {"attempted": 0, "failed": 0}

    def checked(result):
        wall, attempted, failed = result
        tally["attempted"] += attempted
        tally["failed"] += failed
        return wall

    if args.mode == "timed":
        walls = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            if walls:
                ops = workloads.BUILDERS[args.workload](args.seed, len(walls))
            walls.append(checked(workloads.run_pass(ops, threads, log)))
        out["walls"] = walls
    elif args.mode == "trace":
        # untraced passes on both sides of the traced one, so that a slow
        # drift in machine speed cancels in the tracing overhead
        before = checked(workloads.run_pass(ops, threads, log))
        tracer, *result = traced_pass(ops, threads, log)
        traced = checked(result)
        after = checked(workloads.run_pass(ops, threads, log))
        speedup = 0.0
        if threads > 1:
            speedup = checked(workloads.run_pass(ops, 1, log)) / after
        if args.spans:
            tracer.write(args.spans)
        untraced = (before + after) / 2
        out["metrics"] = layer_metrics(tracer.spans, traced, untraced, speedup)
        out["walls"] = {"untraced": [before, after], "traced": traced}
    out.update(tally)
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["ops"] = log
    print(json.dumps(out))


if __name__ == "__main__":
    main()

"""Run every op of a checkout's benchmark workloads over a seeds x reps grid
and report the ops whose checks fail.

    python3 scripts/sweep_checks.py --checkout DIR --workload cascade \
        --seeds 1-30 --reps 0-9

DIR is the root of a source checkout.  Its ``bench/workloads.py`` builds the
ops of each (seed, rep), and each op runs in this process, checked, at the
workload's thread count, with BLAS and OpenMP pinned to one thread as in a
benchmark worker.  Each pass goes through the checkout's ``run_pass``, so an
op fails exactly when it fails in the benchmark.  Each failure prints one
line, ``fail {workload, seed, rep, op, detail}``; the last line is a JSON
summary per workload: passes run, ops run, the failing (seed, rep, op)
triples and the share of ops that failed.  Nothing under ``bench/`` is
written.
"""

import argparse
import json
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[var] = "1"


def span(text):
    """The integers of "a-b" (inclusive) or "a,b,c"."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def plain(value):
    """JSON for numpy scalars and arrays in an op's detail."""
    return value.tolist() if hasattr(value, "tolist") else str(value)


def sweep(workloads, name, seeds, reps):
    threads = workloads.THREADS[name]
    ops = 0
    failing = []
    for seed in seeds:
        for rep in reps:
            log = []
            ops += workloads.run_pass(workloads.BUILDERS[name](seed, rep), threads, log)[1]
            for entry in log:
                if not entry["ok"]:
                    failing.append([seed, rep, entry["op"]])
                    detail = {k: v for k, v in entry.items() if k not in ("op", "ok", "s")}
                    row = {"workload": name, "seed": seed, "rep": rep, "op": entry["op"], "detail": detail}
                    print("fail " + json.dumps(row, default=plain), flush=True)
    return {
        "threads": threads,
        "passes": len(seeds) * len(reps),
        "ops": ops,
        "failing": failing,
        "failure_share": len(failing) / ops if ops else 0.0,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--workload", action="append", help="repeat for several; default all")
    ap.add_argument("--seeds", type=span, default=span("1-5"))
    ap.add_argument("--reps", type=span, default=span("0-9"))
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    sys.dont_write_bytecode = True  # no __pycache__ in the checkout's bench/
    import workloads

    names = args.workload or sorted(workloads.BUILDERS)
    summary = {"checkout": str(checkout), "seeds": args.seeds, "reps": args.reps}
    summary["workloads"] = {name: sweep(workloads, name, args.seeds, args.reps) for name in names}
    print(json.dumps(summary))


if __name__ == "__main__":
    main()

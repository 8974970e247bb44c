"""Per-op seconds of a benchmark workload at one thread and at two, before and
after a change, summarised into one JSON file.

    python3 scripts/bench_threads.py --before DIR --after DIR --workload cascade \
        --seed 131 --passes 6 --out BENCH_groups.json

DIR is the root of a source checkout.  Pass k runs, for each checkout in
turn (the first alternating), one fresh process with BLAS and OpenMP pinned
to one thread; it builds the ops of rep k from that checkout's
``bench/workloads.py`` and runs each op at threads=1 and at threads=2 (the
first alternating), timing each call and keeping its check.  The summary
gives, per checkout and op, the median seconds at each thread count and
their ratio t1/t2 (below 1: two threads are slower), and the ops that failed.
Results are keyed by workload and seed under ``threads``; an existing output
file gains or replaces only that key.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("before", "after")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "BLIS_NUM_THREADS": "1"}


def child(checkout, workload, seed, rep, order):
    """Run rep's ops at each thread count of order; print one JSON line."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import workloads

    out = {}
    for op in workloads.BUILDERS[workload](seed, rep):
        for threads in order:
            start = time.perf_counter()
            ok, _ = op.run(threads)
            out.setdefault(op.name, {})[str(threads)] = {"s": time.perf_counter() - start, "ok": bool(ok)}
    print(json.dumps(out))


def one_pass(checkout, workload, seed, rep, order):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(checkout),
           "--workload", workload, "--seed", str(seed), "--rep", str(rep),
           "--order", ",".join(map(str, order))]
    proc = subprocess.run(cmd, env=dict(os.environ, **PINNED), capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(passes):
    """Per op: median seconds at 1 and 2 threads, t1/t2, and failed reps."""
    out = {}
    for name in passes[0]:
        t1 = statistics.median(p[name]["1"]["s"] for p in passes)
        t2 = statistics.median(p[name]["2"]["s"] for p in passes)
        out[name] = {
            "median_s_1_thread": t1,
            "median_s_2_threads": t2,
            "t1_over_t2": t1 / t2,
            "failed": {t: [k for k, p in enumerate(passes) if not p[name][t]["ok"]] for t in ("1", "2")},
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", type=Path)
    ap.add_argument("--after", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--passes", type=int, default=6)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--rep", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--order", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child(args.child, args.workload, args.seed, args.rep, [int(t) for t in args.order.split(",")])
        return 0
    if not (args.before and args.after and args.out):
        ap.error("--before, --after and --out are required")

    checkout = {"before": args.before, "after": args.after}
    runs = {s: [] for s in SIDES}
    for k in range(args.passes):
        sides = SIDES if k % 2 == 0 else SIDES[::-1]
        order = (1, 2) if k % 2 == 0 else (2, 1)
        for s in sides:
            runs[s].append(one_pass(checkout[s], args.workload, args.seed, k, order))
            print(f"pass {k} {s}: " + json.dumps(runs[s][-1]), file=sys.stderr, flush=True)
    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": args.passes,
        "summary": {s: summarise(runs[s]) for s in SIDES},
        "runs": runs,
    }
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report.setdefault("threads", {})[f"{args.workload}/seed-{args.seed}"] = entry
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(entry["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

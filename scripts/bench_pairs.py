"""Interleaved before/after runs of the benchmark, summarised into one JSON file.

    python3 scripts/bench_pairs.py --before DIR --after DIR --workload finite-size \
        --seed 131 --pairs 10 --trace --out BENCH_metropolis.json

DIR is the root of a source checkout (the one before a change and the one
after it).  Each pair runs ``bench/run.py --trace 0`` once in each checkout,
the first run of the pair alternating between the two, so a drift in machine
speed falls on both sides.  The last JSON line of every run is kept as it is;
the summary gives, per end-to-end metric, both medians, the quartile range
of the ``before`` runs, their ratio and how many pairs ``after`` won.  Each
run also keeps the seconds of every op from its ``op`` lines, one per pass,
under ``op_seconds``; ``op_medians`` gives, per op, the median over all
passes of each side and their ratio, which shows which op moved.  Every
timed run lasts the ``run_seconds`` of BENCHMARK.json.  With
``--trace`` one ``--trace 1`` run per checkout adds the per-layer metrics.
Results are keyed by workload and seed, and an existing output file gains or
replaces only that key.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("before", "after")


def bench(checkout, workload, seed, seconds, trace):
    """One bench/run.py call; returns (machine block, last-line JSON with the
    per-op seconds of its passes added as op_seconds)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(ln[len("machine "):]) for ln in lines if ln.startswith("machine "))
    result = json.loads(lines[-1])
    result["op_seconds"] = {}
    for op in (json.loads(ln[len("op "):]) for ln in lines if ln.startswith("op ")):
        result["op_seconds"].setdefault(op["op"], []).append(op["s"])
    return machine, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarise(pairs, better):
    """Per metric: medians, the before runs' quartile range, after/before and wins."""
    out = {}
    for name in pairs[0]["before"]["metrics"]:
        side = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        lower = better.get(name, "lower") == "lower"
        wins = sum((a < b) if lower else (a > b) for b, a in zip(side["before"], side["after"]))
        q1, q3 = quartiles(side["before"])
        med = {s: statistics.median(side[s]) for s in SIDES}
        out[name] = {
            "before_median": med["before"],
            "after_median": med["after"],
            "after_over_before": med["after"] / med["before"] if med["before"] else None,
            "before_iqr": q3 - q1,
            "after_wins": wins,
            "pairs": len(pairs),
        }
    return out


def op_medians(pairs):
    """Per op: the median seconds over every pass of each side, and after/before."""
    out = {}
    for name in pairs[0]["before"]["op_seconds"]:
        med = {
            s: statistics.median(t for p in pairs for t in p[s]["op_seconds"].get(name, []))
            for s in SIDES
        }
        out[name] = {
            "before_median_s": med["before"],
            "after_median_s": med["after"],
            "after_over_before": med["after"] / med["before"] if med["before"] else None,
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, type=Path)
    ap.add_argument("--after", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((args.after / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    checkout = {"before": args.before, "after": args.after}

    pairs, machine = [], None
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for s in order:
            machine, pair[s] = bench(checkout[s], args.workload, args.seed, seconds, False)
            print(f"pair {k} {s}: " + json.dumps(pair[s]["metrics"]), file=sys.stderr, flush=True)
        pairs.append(pair)
    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "machine": machine,
        "summary": summarise(pairs, better),
        "op_medians": op_medians(pairs),
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
        "runs": pairs,
    }
    if args.trace:
        entry["trace"] = {
            s: bench(checkout[s], args.workload, args.seed, seconds, True)[1] for s in SIDES
        }
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report[f"{args.workload}/seed-{args.seed}"] = entry
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"summary": entry["summary"], "op_medians": entry["op_medians"]}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

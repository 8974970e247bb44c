"""Benchmark entry point.

    python3 bench/run.py --workload {sandwich,cascade,finite-size} --seed N
                         --seconds S --trace {0,1}

Run from the root of a source checkout; pottsglass is imported from ./src.
Every workload runs in fresh worker processes (``worker.py``) with BLAS and
OpenMP pinned to one thread.  With ``--trace 0`` it prints the end-to-end
metrics of BENCHMARK.json: the median pass wall time, the median set-up time
over several fresh processes, and the worker's peak resident memory.  With
``--trace 1`` it prints the per-layer metrics of one traced pass and writes
the spans to .bench_out/.  The last line of standard output is one JSON
object; ops that raise or fail their check are counted in ``failed``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 3
DEADLINE_S = 175.0
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}


def _worker(args, deadline):
    """Run worker.py to completion; return its start time and JSON result.
    On timeout subprocess.run kills the worker and waits for it."""
    env = dict(os.environ, **PINNED)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(deadline - start, 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _declared(kind):
    """Name -> unit of the end_to_end or per_layer metrics in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in _spec()[kind]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in _spec()["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "pottsglass" / "__init__.py").is_file():
        print(f"error: no pottsglass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        return _run(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(args, deadline):
    load = os.getloadavg()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        _, res = _worker(base + ["--mode", "trace", "--spans", str(spans)], deadline)
        values = res["metrics"]
        declared = _declared("per_layer")
    else:
        setups = []
        for _ in range(SETUP_PROBES):
            start, probe = _worker(base + ["--mode", "setup"], deadline)
            setups.append(probe["ready"] - start)
        timed = base + ["--mode", "timed", "--seconds", str(args.seconds)]
        start, res = _worker(timed, deadline)
        setups.append(res["ready"] - start)
        values = {
            "wall_s": statistics.median(res["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        declared = _declared("end_to_end")
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} do not match BENCHMARK.json")

    machine = dict(res["machine"], loadavg_at_start=load)
    print("machine " + json.dumps(machine))
    for op in res["ops"]:
        print("op " + json.dumps(op))
    print(f"walls {json.dumps(res['walls'])}")
    print(f"error_rate {res['failed'] / res['attempted']} ({res['failed']} of {res['attempted']} ops failed)")
    for name, unit in declared.items():
        print(f"{name} {values[name]} {unit}")
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {n: {"value": values[n], "unit": u} for n, u in declared.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

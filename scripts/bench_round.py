"""Per-layer cost of one lockstep optimizer round, before and after a change,
summarised into one JSON file.

    python3 scripts/bench_round.py --before DIR --after DIR --out BENCH_round.json

DIR is the root of a source checkout.  Each repeat runs, for each checkout in
turn (the first alternating), one fresh process with BLAS and OpenMP pinned
to one thread, which measures with that checkout's sources:

- the recursion's log-sum-exp over the state axis on arrays of shape
  (20, 81, 2) (kappa = 2, one level, the ``sandwich`` workload) and
  (24, 729, 3) (kappa = 3): ``util.logsumexp_last`` where the checkout has
  it, ``util.logsumexp(a, axis=-1)`` where it does not;
- ``optimize._objective_rows`` on batches of 10, 20 and 96 kappa = 2, r = 1
  rows at beta = 1, the shapes of a ``sandwich`` round;
- one ``outer_maximize`` with the ``sandwich`` workload's settings and seed
  (kappa = 2, beta = 1, grid_mesh = 10, the workload's optimizer config)
  and one with the criterion-03 settings at kappa = 3 (grid_mesh = 7,
  starts = 4, maxiter = 150, seed 0): the seconds of a plain call, and from
  a counted call the rounds (batched objective calls), the rows they
  evaluate and the Nelder-Mead nfev summed over every type and start.

Times are medians over the repeats of the per-call median inside a process.
Each measurement also records a digest of the bytes it computed, so equal
digests on both sides show that the change kept every bit.  The summary puts
both sides' medians, after/before and whether the digests and counts agree
under the key ``layers/seed-SEED``; an existing output file gains or
replaces only that key, so ``scripts/bench_pairs.py`` sets can share the
file.  The seed picks the ``sandwich`` optimizer call (that of the
workload's first pass) and the random inputs of the kernels.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("before", "after")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "BLIS_NUM_THREADS": "1"}
LSE_SHAPES = ((20, 81, 2), (24, 729, 3))
OBJECTIVE_ROWS = (10, 20, 96)
KAPPA3 = (3, 1.0, 1, {"grid_mesh": 7, "starts": 4, "maxiter": 150}, 0)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def per_call(fn, calls, inner=5):
    """Median seconds of one fn() over `calls` timings of `inner` calls."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - start) / inner)
    return statistics.median(times)


def counted_outer(optimize, args):
    """rounds, rows and summed nfev of one outer_maximize(*args), and the
    digest of its value and every type's best coordinates."""
    objective, minimize = optimize._objective_rows, optimize.minimize_types
    rows, reports = [], []

    def objective_rows(d, r, beta, thetas):
        rows.append(len(thetas))
        return objective(d, r, beta, thetas)

    def minimize_types(*a, **k):
        result = minimize(*a, **k)
        reports.extend(result)
        return result

    optimize._objective_rows, optimize.minimize_types = objective_rows, minimize_types
    try:
        best = optimize.outer_maximize(*args)
    finally:
        optimize._objective_rows, optimize.minimize_types = objective, minimize
    nfev = sum(s["nfev"] for report in reports for s in report.starts)
    bits = digest(np.float64(best.value), *(report.theta for report in reports))
    return {"rounds": len(rows), "rows": sum(rows), "nfev": nfev, "digest": bits}


def child(checkout, seed):
    """Measure every layer with the checkout's sources; print one JSON line."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import workloads
    from pottsglass import optimize, util

    state_lse = getattr(util, "logsumexp_last", None) or (lambda a: util.logsumexp(a, axis=-1))
    out = {}
    rng = np.random.default_rng(seed)
    for shape in LSE_SHAPES:
        a = rng.standard_normal(shape) * 3.0
        a[..., 0] = np.where(rng.random(shape[:-1]) < 0.2, a[..., 1], a[..., 0])  # some ties
        name = "state_logsumexp/" + "x".join(map(str, shape))
        out[name] = {"s": per_call(lambda: state_lse(a), 31, 20), "digest": digest(state_lse(a))}

    types = [d for d in optimize.simplex_grid(2, 10) if np.all(np.diff(d.d) <= 0.0)]
    for n_rows in OBJECTIVE_ROWS:
        params = [optimize.PathParametrization(types[b % len(types)], 1) for b in range(n_rows)]
        d_rows = np.array([p.d.d for p in params])
        thetas = np.array([p.random_start(rng) for p in params])
        call = lambda: optimize._objective_rows(d_rows, 1, 1.0, thetas)  # noqa: E731
        out[f"objective_rows/{n_rows}"] = {"s": per_call(call, 31), "digest": digest(*call())}

    sandwich_seed = workloads._subseed(np.random.default_rng([seed, 0, 1]))
    config = dict(workloads.OPT_CONFIG, grid_mesh=10)
    for name, args in (("outer_sandwich", (2, 1.0, 1, config, sandwich_seed)), ("outer_kappa3", KAPPA3)):
        out[name] = counted_outer(optimize, args)
        out[name]["s"] = per_call(lambda: optimize.outer_maximize(*args), 3 if name == "outer_kappa3" else 7, 1)
    print(json.dumps(out))


def one_run(checkout, seed):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(checkout.resolve()),
           "--seed", str(seed)]
    proc = subprocess.run(cmd, env=dict(os.environ, **PINNED), capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs):
    """Per measurement and side: the median seconds over the runs and the
    counts and digest (the same in every run); then after/before and
    whether both sides computed the same bits and counts."""
    out = {}
    for name in runs[0]["before"]:
        entry = {}
        for s in SIDES:
            first = runs[0][s][name]
            entry[s] = dict(first, s=statistics.median(r[s][name]["s"] for r in runs))
            entry[s]["repeatable"] = all(
                {k: v for k, v in r[s][name].items() if k != "s"}
                == {k: v for k, v in first.items() if k != "s"}
                for r in runs
            )
        entry["after_over_before"] = entry["after"]["s"] / entry["before"]["s"]
        measured = [k for k in runs[0]["before"][name] if k != "s"]
        entry["same_bits"] = all(entry["before"][k] == entry["after"][k] for k in measured)
        out[name] = entry
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", type=Path)
    ap.add_argument("--after", type=Path)
    ap.add_argument("--seed", type=int, default=131)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child(args.child, args.seed)
        return 0
    if not (args.before and args.after and args.out):
        ap.error("--before, --after and --out are required")
    checkout = {"before": args.before, "after": args.after}
    runs = []
    for k in range(args.repeats):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        runs.append({s: one_run(checkout[s], args.seed) for s in order})
        print(f"repeat {k}: " + json.dumps({s: {n: v["s"] for n, v in runs[-1][s].items()} for s in SIDES}),
              file=sys.stderr, flush=True)
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report[f"layers/seed-{args.seed}"] = {
        "repeats": args.repeats,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "summary": summarise(runs),
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report[f"layers/seed-{args.seed}"]["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

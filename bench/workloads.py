"""The three benchmark workloads: inputs made from the workload seed, the calls
into pottsglass that produce reports, and the oracle that checks each report.

Each builder makes the inputs of one pass from (seed, rep); a timed run gives
each of its passes its own rep.  Every call goes through a module attribute
(``functional.eval_phi``, not a name imported at load time), so the tracer in
``tracer.py`` sees it when it replaces those attributes.
"""

import contextlib
import io
import json
import time
from dataclasses import dataclass

import numpy as np

from pottsglass import cli, functional, model
from pottsglass.core import MonotonePath, StateDistribution

# the acceptance battery's optimizer settings (criteria 03 and 04)
OPT_CONFIG = {
    "grid_mesh": 8,
    "grid_starts": 2,
    "starts": 4,
    "refine_maxiter": 8,
    "maxiter": 150,
}

# |eval_parisi at 21 nodes - upper_value at 9 nodes| allowed at the reported
# point; the measured 9-vs-21 node difference is 4e-8 at beta = 1, kappa = 2
SANDWICH_QUAD_TOL = 1e-5
# |MCMC - enumeration| on the same disorder draws: the draws cancel, leaving
# the trapezoid error of the 9-rung ladder and chain noise (measured 1e-4 to 3e-3)
MCMC_ENUM_TOL = 0.01
COINCIDENCE_SE = 4.0

THREADS = {"sandwich": 1, "cascade": 2, "finite-size": 1}


@dataclass(frozen=True)
class Op:
    """One report-producing call and its check."""

    name: str
    run: object  # run(threads) -> (ok, detail dict)


def _subseed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _random_path(rng, d, r):
    """A random r-level path with PSD increments and strict interior levels."""
    kappa = d.kappa
    while True:
        incs = []
        for _ in range(r - 1):
            a = rng.standard_normal((kappa, kappa)) * 0.3
            incs.append(a @ a.T)
        total = sum(incs, np.zeros((kappa, kappa)))
        if np.linalg.eigvalsh(np.diag(d.d) - total)[0] < -1e-12:
            continue
        x = np.sort(rng.uniform(0.1, 0.9, size=r))
        if r > 1 and np.min(np.diff(x)) < 1e-3:
            continue
        return MonotonePath.from_increments(d, x, incs)


def _cli_report(argv):
    """Run one CLI call and return its parsed JSON report."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"pottsglass {argv[0]} exited with {code}")
    return json.loads(buf.getvalue())


# --- sandwich ---------------------------------------------------------------


def sandwich_ops(seed, rep=0):
    prog_seed = _subseed(np.random.default_rng([seed, rep, 1]))
    beta = 1.0

    def run(threads):
        captured = []
        outer = cli.outer_maximize

        def capture(*args, **kwargs):
            captured.append(outer(*args, **kwargs))
            return captured[-1]

        cli.outer_maximize = capture
        try:
            report = cli.bound_check(
                N=10, kappa=2, beta=beta, n_disorder=200, M=8, reps=200,
                atoms_per_level=200, seed=prog_seed, threads=threads, opt_config=OPT_CONFIG,
            )
        finally:
            cli.outer_maximize = outer
        upper = captured[-1]
        fine = functional.eval_parisi(
            upper.lam, upper.d, upper.path, beta, functional.QuadratureSpec(nodes_per_dim=21)
        ).value
        gap = abs(fine - report["upper_value"])
        ok = report["passed"] and gap <= SANDWICH_QUAD_TOL
        return ok, {"passed": report["passed"], "quad_gap": gap, "upper_total": report["upper_total"]}

    return [Op("bound-check", run)]


# --- cascade ----------------------------------------------------------------


def cascade_ops(seed, rep=0):
    rng = np.random.default_rng([seed, rep, 2])
    d = StateDistribution(np.array([0.55, 0.45]))
    path = _random_path(rng, d, 2)
    lam = [float(rng.uniform(-0.5, 0.5))]
    beta = float(rng.uniform(0.3, 1.2))
    mc_seed = _subseed(rng)
    cli_seed = str(_subseed(rng))
    quad = functional.QuadratureSpec(nodes_per_dim=15)

    def dual_phi(threads):
        exact = functional.eval_phi(lam, path, beta, quad).value
        mc = functional.eval_phi_cascade_mc(
            lam, path, beta, reps=100, atoms_per_level=200, seed=mc_seed, threads=threads
        )
        mc2 = functional.eval_phi_cascade_mc(
            lam, path, beta, reps=100, atoms_per_level=400, seed=mc_seed, threads=threads
        )
        allowance = abs(mc.value - mc2.value)
        miss = abs(mc.value - exact)
        ok = miss <= 3.0 * mc.std_error + allowance + 1e-12
        return ok, {"miss": miss, "allowed": 3.0 * mc.std_error + allowance}

    def command(name, check):
        def run(threads):
            report = _cli_report([name, "--seed", cli_seed, "--threads", str(threads)])
            return check(report)

        return Op(name, run)

    def verify(report):
        c = report["coincidence"]
        misses = np.abs(np.subtract(c["estimates"], c["targets"]))
        # criterion 07's rule with 4 standard errors, not 3: the CLI default
        # is 200 samples, not 10,000, and the three masses are tested on every
        # seed of every run; at 3 the rule failed on 1 in 150 seeds with
        # unbiased estimates (largest |z| 3.44)
        masses_ok = bool(np.all(misses <= COINCIDENCE_SE * np.asarray(c["std_errors"])))
        return report["passed"] and masses_ok, {"y_passed": report["passed"], "masses_ok": masses_ok}

    def gg(report):
        parts = ("constant_f", "trace_f", "extension")
        ok = all(report[k]["residual"] <= 3.0 * report[k]["std_error"] + 1e-12 for k in parts)
        return ok, {k: report[k]["residual"] for k in parts}

    def sync(report):
        # the default generator has L1 Lipschitz constant 1 in the trace
        return report["residual"] <= 2.0 * report["bin_width"], {"residual": report["residual"]}

    def interp(report):
        monotone = report["max_positive_increment"] <= 3.0 * report["max_increment_std_error"]
        # the CLI defaults: N = 4, kappa = 2, d = (1/2, 1/2), beta = 1, 300 draws
        enum = model.enumerate_free_energy(
            4, 2, 1.0, n_disorder=report["reps"], seed=int(cli_seed),
            constraint=StateDistribution(np.array([0.5, 0.5])),
        )
        gap = abs(report["endpoint_minus_y_term"] - enum.value)
        split = gap <= 3.0 * (report["endpoint_std_error"] + enum.std_error)
        return monotone and split, {"monotone": monotone, "endpoint_gap": gap}

    def legendre(report):
        gaps = [row["gap"] for row in report["rows"]]
        ses = [row["std_error"] for row in report["rows"]]
        nonneg = all(g >= -3.0 * s for g, s in zip(gaps, ses))
        shrinking = all(
            gaps[i] <= gaps[i - 1] + 3.0 * (ses[i] + ses[i - 1]) for i in range(1, len(gaps))
        )
        return nonneg and shrinking, {"gaps": gaps}

    return [
        Op("dual-phi", dual_phi),
        command("cascade-verify", verify),
        command("diag-gg", gg),
        command("diag-sync", sync),
        command("diag-interp", interp),
        command("diag-legendre", legendre),
    ]


# --- finite-size ------------------------------------------------------------


def finite_size_ops(seed, rep=0):
    rng = np.random.default_rng([seed, rep, 3])
    d = StateDistribution(np.full(3, 1.0 / 3.0))
    beta = 1.0
    small_seed = _subseed(rng)
    large_seed = _subseed(rng)

    def small(threads):
        mc = model.mcmc_free_energy(12, 3, beta, d, n_disorder=8, seed=small_seed, threads=threads)
        exact = model.enumerate_free_energy(
            12, 3, beta, n_disorder=8, seed=small_seed, constraint=d, threads=threads
        )
        diff = abs(mc.value - exact.value)
        ok = diff <= MCMC_ENUM_TOL and not mc.diagnostics["warnings"]
        return ok, {"diff": diff}

    def large(threads):
        mc = model.mcmc_free_energy(48, 3, beta, d, n_disorder=2, seed=large_seed, threads=threads)
        entropy = mc.diagnostics["entropy_term"]
        annealed = entropy + 0.5 * beta**2 * float(np.sum(d.d**2))
        slack = 3.0 * mc.std_error
        inside = entropy - slack <= mc.value <= annealed + slack
        ok = inside and not mc.diagnostics["warnings"]
        return ok, {"value": mc.value, "entropy": entropy, "annealed": annealed}

    return [Op("mcmc-vs-enum-N12", small), Op("mcmc-N48", large)]


BUILDERS = {"sandwich": sandwich_ops, "cascade": cascade_ops, "finite-size": finite_size_ops}


def run_pass(ops, threads, log=None):
    """Run every op once, checking each; returns (wall seconds, attempted, failed)."""
    failed = 0
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            ok, detail = op.run(threads)
        except Exception as exc:  # a raising call is a failed operation
            ok, detail = False, {"error": f"{type(exc).__name__}: {exc}"}
        failed += not ok
        if log is not None:
            log.append({"op": op.name, "ok": bool(ok), "s": time.perf_counter() - t0, **detail})
    return time.perf_counter() - start, len(ops), failed

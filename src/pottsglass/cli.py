"""Command-line surface: reproducible experiment orchestration over all
modules.  Reports are JSON on stdout (or CSV via --out/--format); exit status
is 0 on success, 2 on validation errors, 3 on budget errors.

Each subcommand declares its parameters in one table of Param rows.  The table
makes the subcommand's flags and casts the params of a --config file, so a
subcommand accepts exactly the parameters it reads."""

import argparse
import csv
import io
import json
import sys
from typing import NamedTuple

import numpy as np

from .cascade import CascadeSpec, coincidence_masses, sample_cascade, sample_overlap_array, verify_y_identity
from .core import MonotonePath, StateDistribution, round_distribution
from .diagnostics import (
    bootstrap_indices,
    gg_polynomial_extension_check,
    gg_residual,
    interpolation_curve,
    legendre_gap,
    sync_fit,
)
from .functional import QuadratureSpec, eval_lower_bound, eval_parisi
from .model import PerturbationSpec, ass_covariance_check, enumerate_free_energy, mcmc_free_energy
from .optimize import outer_maximize
from .util import BudgetError, ValidationError, map_groups, stream


class Param(NamedTuple):
    """One parameter, given as --name (with '-' for '_') or in the params of a
    --config file; type casts both the flag text and the file value."""

    name: str
    type: object
    default: object
    help: str


def _real(value):
    """A finite float: nan or inf would reach the report as invalid JSON."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = np.nan
    if not np.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {value!r}")
    return x


def _list_of(convert, noun):
    def cast(value):
        items = value if isinstance(value, list) else str(value).split(",")
        try:
            return [convert(v) for v in items if v != ""]
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}s, got {value!r}") from None

    return cast


def _nonnegative(value):
    """A finite float >= 0, such as an inverse temperature."""
    x = _real(value)
    if x < 0:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {value!r}")
    return x


_floats = _list_of(_real, "finite number")
_ints = _list_of(int, "integer")


def _choice(*options):
    def cast(value):
        if value not in options:
            raise argparse.ArgumentTypeError(f"expected one of {', '.join(options)}, got {value!r}")
        return value

    return cast


def _integer(minimum):
    """An integer of at least minimum: a seed (0), or a count of states,
    sites, draws, bins, ... (1)."""

    def cast(value):
        if isinstance(value, bool) or not str(value).isdecimal() or int(value) < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value!r}")
        return int(value)

    return cast


_count = _integer(1)


# run-wide settings, accepted by every subcommand and at the top of a config file
_RUN = (
    Param("seed", _integer(0), 0, "master seed of every random stream"),
    Param("threads", _count, 1, "worker threads; reports do not depend on them"),
    Param("out", str, None, "write the report to this file instead of stdout"),
    Param("format", _choice("json", "csv"), "json", "report format: json or csv"),
)
KAPPA = Param("kappa", _count, 2, "number of states")
BETA = Param("beta", _nonnegative, 1.0, "inverse temperature")
D = Param("d", _floats, None, "state distribution d_1,...,d_kappa")
R = Param("r", _count, 1, "number of path levels")
SAMPLES = Param("samples", _count, 200, "disorder draws")
REPS = Param("reps", _count, 200, "cascade replicates")
ATOMS = Param("atoms", _count, 200, "cascade atoms per level")
X_LEVELS = Param("x", _floats, (0.3, 0.6), "cascade level parameters x_0,...,x_{r-1}")

_COMMANDS = {}


def _command(name, *table):
    """Register a subcommand with its parameter table."""

    def register(fn):
        _COMMANDS[name] = (fn, table)
        return fn

    return register


def _distribution(p, fallback):
    """The --d distribution, checked against --kappa, or the fallback."""
    if not p["d"]:
        return fallback
    if len(p["d"]) != p["kappa"]:
        raise ValidationError(f"d has {len(p['d'])} entries but kappa is {p['kappa']}")
    return StateDistribution(np.asarray(p["d"]))


def build_named_path(name, kappa, x0=0.5, d=None):
    """Resolve a path argument: a built-in name or a JSON file."""
    if d is None:
        d = StateDistribution.uniform(kappa)
    if name == "uniform-r1":
        return MonotonePath.one_step(d, x0)
    if name.endswith(".json"):
        with open(name) as fh:
            return MonotonePath.from_json_dict(json.load(fh))
    raise ValidationError(f"unknown path {name!r} (expected 'uniform-r1' or a .json file)")


def _equal_split_path(kappa, x_levels):
    """An r-level path climbing diag(d)/r per level at the given x's."""
    d = StateDistribution.uniform(kappa)
    r = len(x_levels)
    increments = [np.diag(d.d) / r for _ in range(r - 1)]
    return MonotonePath.from_increments(d, x_levels, increments)


def bound_check(
    N,
    kappa,
    beta,
    n_disorder=200,
    M=8,
    r=1,
    reps=200,
    atoms_per_level=200,
    seed=0,
    threads=1,
    opt_config=None,
):
    """Sandwich report: restricted-set lower value, exact finite-size
    estimate, and the variational upper value with its finite-size slack.

    The upper value is the maximum over the N-types, the distributions with
    denominator N: there are at most (N+1)^kappa of them, which is what the
    slack kappa log(N+1)/N pays for.
    """
    mid = enumerate_free_energy(N, kappa, beta, n_disorder, seed, threads=threads)
    config = dict(opt_config or {})
    config["grid_mesh"] = N
    upper = outer_maximize(kappa, beta, r, config, seed)
    slack = kappa * float(np.log(N + 1)) / N
    delta = round_distribution(upper.d, M)
    lower = eval_lower_bound(M, delta, upper.path, beta, reps, atoms_per_level, seed, threads)
    upper_total = upper.value + slack
    pass_upper = mid.value <= upper_total + 3.0 * mid.std_error
    pass_lower = lower.value - 3.0 * (lower.std_error + mid.std_error) <= mid.value
    return {
        "N": N,
        "kappa": kappa,
        "beta": beta,
        "lower": lower.to_json_dict(),
        "middle": mid.to_json_dict(),
        "upper_value": upper.value,
        "upper_d": [float(v) for v in upper.d.d],
        "finite_size_slack": slack,
        "upper_total": upper_total,
        "pass_upper": bool(pass_upper),
        "pass_lower": bool(pass_lower),
        "passed": bool(pass_upper and pass_lower),
    }


@_command(
    "eval-parisi", KAPPA, BETA, D,
    Param("path", str, "uniform-r1", "'uniform-r1' or a path JSON file"),
    Param("x0", _real, 0.5, "level x_0 of the uniform-r1 path"),
    Param("lambda", _floats, None, "Lagrange multipliers (zeros if not given)"),
    Param("nodes", _count, 9, "Gauss-Hermite nodes per dimension"),
)
def _cmd_eval_parisi(p):
    kappa = p["kappa"]
    d = _distribution(p, StateDistribution.uniform(kappa))
    path = build_named_path(p["path"], kappa, p["x0"], d)
    lam = np.asarray(p["lambda"] or np.zeros(kappa - 1))
    out = eval_parisi(lam, d, path, p["beta"], QuadratureSpec(nodes_per_dim=p["nodes"])).to_json_dict()
    out.update({"kappa": kappa, "beta": p["beta"], "lambda": [float(v) for v in np.atleast_1d(lam)]})
    return out


@_command(
    "optimize", KAPPA, BETA, R,
    Param("grid_mesh", _count, 8, "denominator of the types d maximized over"),
    Param("starts", _count, 8, "Nelder-Mead starts per inner problem"),
    Param("maxiter", _count, 200, "Nelder-Mead iterations per start"),
)
def _cmd_optimize(p):
    config = {k: p[k] for k in ("starts", "grid_mesh", "maxiter")}
    return outer_maximize(p["kappa"], p["beta"], p["r"], config, p["seed"]).to_json_dict()


@_command(
    "free-energy", Param("N", _count, 8, "number of sites"), KAPPA, BETA, SAMPLES, D,
    Param("method", _choice("enumerate", "mcmc"), "enumerate", "enumerate or mcmc"),
)
def _cmd_free_energy(p):
    n, kappa, beta, seed, threads = p["N"], p["kappa"], p["beta"], p["seed"], p["threads"]
    d = _distribution(p, None)
    if p["method"] == "enumerate":
        res = enumerate_free_energy(n, kappa, beta, p["samples"], seed, d, threads)
    else:
        if d is None:
            d = round_distribution(StateDistribution.uniform(kappa), n)
        res = mcmc_free_energy(n, kappa, beta, d, p["samples"], seed=seed, threads=threads)
    row = {
        "N": n,
        "kappa": kappa,
        "beta": beta,
        "d": None if d is None else [float(v) for v in d.d],
        "estimate": res.value,
        "se": res.std_error,
        "method": res.method,
    }
    return {"row": row, "diagnostics": res.diagnostics}


@_command(
    "bound-check", Param("N", _count, 8, "number of sites"), KAPPA, BETA, SAMPLES,
    Param("M", _count, 8, "size of the restricted configuration set"), R, REPS, ATOMS,
)
def _cmd_bound_check(p):
    return bound_check(
        p["N"], p["kappa"], p["beta"], n_disorder=p["samples"], M=p["M"], r=p["r"],
        reps=p["reps"], atoms_per_level=p["atoms"], seed=p["seed"], threads=p["threads"],
    )


@_command(
    "cascade-verify", KAPPA, X_LEVELS, BETA,
    Param("scale_N", _count, 1, "system size scaling the Y field"), REPS, ATOMS,
    Param("mass_samples", _count, 200, "cascades behind the coincidence masses"),
)
def _cmd_cascade_verify(p):
    x_levels, seed = p["x"], p["seed"]
    report = verify_y_identity(
        _equal_split_path(p["kappa"], x_levels), p["beta"], scale_N=p["scale_N"],
        reps=p["reps"], atoms_per_level=p["atoms"], seed=seed, threads=p["threads"],
    )
    spec = CascadeSpec(tuple(x_levels), p["atoms"])
    masses, mass_se = coincidence_masses(spec, p["mass_samples"], seed=seed, threads=p["threads"])
    targets = np.append(np.diff(np.concatenate([[0.0], x_levels])), 1.0 - x_levels[-1])
    report["coincidence"] = {
        "estimates": [float(v) for v in masses],
        "std_errors": [float(v) for v in mass_se],
        "targets": [float(v) for v in targets],
    }
    return report


def _default_cascade_arrays(kappa, x_levels, n_arrays, n_replicas, atoms, seed, threads=1):
    """Overlap arrays sampled from a cascade with an equal-split generator:
    a pair meeting at depth p has the block gamma_p, of trace q_p.  Array i
    is drawn from stream(seed, 0xA44, i), whatever the thread count."""
    path = _equal_split_path(kappa, x_levels)
    spec = CascadeSpec(tuple(x_levels), atoms)
    q = np.trace(path.gammas, axis1=1, axis2=2)

    def phi(t):
        return path.gammas[int(np.argmin(np.abs(q - t)))]

    def run(indices, ws):
        arrays = []
        for i in indices:
            rng = stream(seed, 0xA44, i)
            sample = sample_cascade(spec, rng, ws)
            arrays.append(sample_overlap_array(sample, q, phi, n_replicas, rng))
        return arrays

    return map_groups(run, n_arrays, threads)


@_command(
    "diag-gg", KAPPA, X_LEVELS, Param("arrays", _count, 400, "sampled overlap arrays"),
    Param("replicas", _count, 4, "replicas per array"), ATOMS,
    Param("n", _count, 2, "replicas in the moment identity"),
)
def _cmd_diag_gg(p):
    kappa, n, seed = p["kappa"], p["n"], p["seed"]
    arrays = _default_cascade_arrays(kappa, p["x"], p["arrays"], p["replicas"], p["atoms"], seed, p["threads"])
    spec = PerturbationSpec(p=1, n=(1,), lambdas=np.ones((1, kappa)) / kappa)
    # the three residuals resample the same arrays: one table for the call
    boot = bootstrap_indices(seed, 200, len(arrays))
    res_const = gg_residual(arrays, lambda a: 1.0, n, spec, indices=boot)
    res_poly = gg_residual(arrays, lambda a: float(a.traces[0, 1]), n, spec, indices=boot)
    res_ext = gg_polynomial_extension_check(
        arrays, lambda forms: float(np.minimum(forms, 0.5).sum()), n, spec, indices=boot
    )
    return {"constant_f": res_const, "trace_f": res_poly, "extension": res_ext}


@_command(
    "diag-sync", KAPPA, X_LEVELS, Param("arrays", _count, 100, "sampled overlap arrays"),
    Param("replicas", _count, 8, "replicas per array"), ATOMS,
    Param("bins", _count, 20, "trace bins of the fit"),
)
def _cmd_diag_sync(p):
    arrays = _default_cascade_arrays(p["kappa"], p["x"], p["arrays"], p["replicas"], p["atoms"], p["seed"], p["threads"])
    fit = sync_fit(arrays, n_bins=p["bins"])
    return {
        "grid": [float(v) for v in fit.grid],
        "phi_hat": [[[float(v) for v in row] for row in m] for m in fit.phi_hat],
        "residual": fit.residual,
        "lipschitz_hat": fit.lipschitz_hat,
        "bin_width": fit.bin_width,
    }


@_command(
    "diag-interp", KAPPA, Param("N", _count, 4, "number of sites"), D,
    Param("x0", _real, 0.3, "level x_0 of the one-step path"),
    Param("t", _floats, None, "interpolation grid (t_points even steps if not given)"),
    Param("t_points", _count, 6, "points of the default t grid"), BETA,
    Param("reps", _count, 300, "joint disorder and cascade draws"), ATOMS,
)
def _cmd_diag_interp(p):
    kappa, n = p["kappa"], p["N"]
    d = _distribution(p, round_distribution(StateDistribution.uniform(kappa), n))
    t_grid = p["t"] or list(np.linspace(0.0, 1.0, p["t_points"]))
    return interpolation_curve(
        n, kappa, d, p["beta"], MonotonePath.one_step(d, p["x0"]), t_grid, reps=p["reps"],
        atoms_per_level=p["atoms"], seed=p["seed"], threads=p["threads"],
    )


@_command(
    "diag-legendre", KAPPA, D, Param("x0", _real, 0.5, "level x_0 of the one-step path"),
    Param("lambda_max", _real, 1.0, "half-width of the multiplier grid"),
    Param("lambda_points", _count, 9, "points of the multiplier grid"), BETA,
    Param("M", _ints, (2, 4, 8), "restricted set sizes"), REPS, ATOMS,
)
def _cmd_diag_legendre(p):
    kappa = p["kappa"]
    d = _distribution(p, StateDistribution.uniform(kappa))
    base = np.linspace(-p["lambda_max"], p["lambda_max"], p["lambda_points"])
    grid = [np.full(kappa - 1, v) for v in base]
    return legendre_gap(
        d, MonotonePath.one_step(d, p["x0"]), p["beta"], grid, p["M"], reps=p["reps"],
        atoms_per_level=p["atoms"], seed=p["seed"], threads=p["threads"],
    )


@_command(
    "ass-check", Param("N", _count, 4, "number of sites"), Param("M", _integer(0), 2, "number of cavity sites"),
    KAPPA, Param("pairs", _count, 3, "configuration pairs"), Param("draws", _count, 10_000, "disorder draws"),
)
def _cmd_ass_check(p):
    return ass_covariance_check(
        p["N"], p["M"], p["kappa"], n_pairs=p["pairs"], n_draws=p["draws"], seed=p["seed"]
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pottsglass",
        description="Potts glass free energy: simulation, variational bounds, and replica diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, table) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config file merged under flags")
        for row in _RUN + table:
            sp.add_argument("--" + row.name.replace("_", "-"), dest=row.name, type=row.type,
                            default=argparse.SUPPRESS, help=f"{row.help} (default: {row.default})")
    return parser


def _cast(table, values, what):
    """Cast config-file values by the table; a name not in it is an error."""
    if not isinstance(values, dict):
        raise ValidationError(f"config {what}s must be a JSON object")
    rows = {row.name: row for row in table}
    out = {}
    for name, value in values.items():
        if name not in rows:
            raise ValidationError(f"unknown config {what} {name!r}")
        try:
            out[name] = rows[name].type(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise ValidationError(f"config {what} {name!r}: {exc}") from None
    return out


def _merge_config(args, table):
    """Run settings and params from the defaults, then the --config file, then
    the flags, which win; one dict keyed by parameter name."""
    file_cfg = {}
    if args.get("config"):
        with open(args["config"]) as fh:
            file_cfg = json.load(fh)
    if not isinstance(file_cfg, dict):
        raise ValidationError("a config file must hold a JSON object")
    p = {row.name: row.default for row in _RUN + table}
    p.update(_cast(table, file_cfg.pop("params", {}), "param"))
    p.update(_cast(_RUN, file_cfg, "key"))
    p.update({k: v for k, v in args.items() if k in p})
    return p


def _csv_rows(report):
    if "rows" in report and isinstance(report["rows"], list):
        return report["rows"]
    if "row" in report:
        return [report["row"]]
    if "t_grid" in report:
        return [
            {"t": t, "estimate": e, "se": s}
            for t, e, s in zip(report["t_grid"], report["estimates"], report["std_errors"])
        ]
    return [{"key": k, "value": v} for k, v in report.items() if np.isscalar(v)]


def _format_csv(report):
    rows = _csv_rows(report)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(
            {k: (format(v, ".17g") if isinstance(v, float) else v) for k, v in row.items()}
        )
    return buf.getvalue()


def render_report(report, fmt="json"):
    if fmt == "csv":
        return _format_csv(report)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def dispatch(argv=None):
    args = vars(_build_parser().parse_args(argv))
    fn, table = _COMMANDS[args["command"]]
    p = _merge_config(args, table)
    text = render_report(fn(p), p["format"])
    if p["out"]:
        with open(p["out"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None):
    try:
        return dispatch(argv)
    except SystemExit as exc:  # argparse: malformed flags (2) or --help (0)
        return exc.code
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Statistical checks of the structural replica properties on sampled data:
moment identities for overlap arrays, block synchronization with the trace,
interpolation monotonicity, and the duality gap of the constrained bound."""

from dataclasses import dataclass

import numpy as np

from .cascade import (
    CascadeSpec, config_field_sum, level_factors, sample_cascade, sample_level_fields, stack_size,
)
from .core import OverlapArray, psd_factor, round_distribution
from .functional import eval_f1_restricted, eval_phi
from .model import (
    DisorderInstance,
    config_energies,
    enumerate_configs,
    mean_energy,
    perturbation_covariance,
    quadratic_forms,
)
from .util import ValidationError, jackknife_se, logsumexp, map_groups, stack_streams, stream


def _gg_samples(array_samples, f, n, q_fn):
    """Per-array samples of the moment-identity terms.

    Returns columns (f, f*q_{1,n+1}, q_{1,2}, f*q_{1,l} for l=2..n).
    """
    rows = []
    for arr in array_samples:
        if arr.n < n + 1:
            raise ValidationError(f"arrays must have at least {n + 1} replicas")
        sub = OverlapArray(arr.traces[:n, :n], arr.blocks[:n, :n])
        fv = float(f(sub))
        q_next = q_fn(arr.blocks[0, n])
        q12 = q_fn(arr.blocks[0, 1])
        q1l = [q_fn(arr.blocks[0, l - 1]) for l in range(2, n + 1)]
        rows.append([fv, fv * q_next, q12] + [fv * q for q in q1l])
    return np.asarray(rows)


def _gg_residual_of(columns, n):
    """The signed moment-identity residual of the column means."""
    means = columns.mean(axis=0)
    cross = means[3:].sum() if columns.shape[1] > 3 else 0.0
    return means[1] - means[0] * means[2] / n - cross / n


def bootstrap_indices(seed, n_boot, m):
    """The (n_boot, m) resampling indices of the bootstrap over m arrays,
    row b drawn from stream(seed, 0xB007, b).  The residuals of one diag-gg
    call resample the same arrays, so the call draws one table and hands it
    to each of them."""
    return np.array([stream(seed, 0xB007, b).integers(0, m, size=m) for b in range(n_boot)])


def _bootstrap_se(columns, n, idx):
    """Bootstrap standard deviation of the signed residual over the rows of
    the index table idx: that of its absolute value is smaller and would
    bias the error low."""
    if idx.ndim != 2 or idx.shape[1] != columns.shape[0]:
        raise ValidationError(f"bootstrap table must have {columns.shape[0]} columns")
    vals = np.array([_gg_residual_of(columns[rows], n) for rows in idx])
    return float(vals.std(ddof=1))


def gg_residual(array_samples, f, n, spec, n_boot=200, seed=0, indices=None):
    """Moment-identity residual for the covariance functional of a
    perturbation spec, with bootstrap standard error over arrays: over the
    rows of indices, a bootstrap_indices table, or over n_boot rows drawn
    from seed."""
    cols = _gg_samples(array_samples, f, n, lambda b: perturbation_covariance(spec, b))
    return _gg_report(cols, n, n_boot, seed, indices)


def gg_polynomial_extension_check(array_samples, phi, n, spec, n_boot=200, seed=0, indices=None):
    """Same residual with phi(quadratic forms) replacing the covariance."""
    cols = _gg_samples(array_samples, f=lambda a: 1.0, n=n, q_fn=lambda b: float(phi(quadratic_forms(spec, b))))
    return _gg_report(cols, n, n_boot, seed, indices)


def _gg_report(cols, n, n_boot, seed, indices):
    """The residual report of the moment-identity columns cols."""
    if indices is None:
        indices = bootstrap_indices(seed, n_boot, cols.shape[0])
    residual = abs(_gg_residual_of(cols, n))
    se = _bootstrap_se(cols, n, indices)
    return {"residual": float(residual), "std_error": se, "n_arrays": cols.shape[0], "n": n}


@dataclass(frozen=True)
class SyncFit:
    """Fitted monotone map from overlap trace to the full block."""

    grid: np.ndarray  # sorted representative traces
    phi_hat: np.ndarray  # (len(grid), kappa, kappa)
    residual: float  # sup over blocks of |R - phi_hat(tr R)|_1
    lipschitz_hat: float
    bin_width: float


def sync_fit(array_samples, n_bins=20):
    """Fit a monotone block-of-trace map by trace binning and PSD-isotonic
    accumulation, and report the worst block reconstruction error."""
    blocks = []
    traces = []
    for arr in array_samples:
        b, t = arr.off_diagonal_blocks()
        blocks.append(b)
        traces.append(t)
    blocks = np.concatenate(blocks, axis=0)
    traces = np.concatenate(traces, axis=0)
    if blocks.shape[0] < 100:
        raise ValidationError("need at least 100 off-diagonal blocks")
    lo, hi = float(traces.min()), float(traces.max())
    if hi - lo < 1e-15:
        grid = np.array([lo])
        phi_hat = blocks.mean(axis=0)[None]
        assignments = np.zeros(traces.size, dtype=int)
        bin_width = 0.0
    else:
        edges = np.linspace(lo, hi, n_bins + 1)
        bin_width = float(edges[1] - edges[0])
        assignments = np.clip(np.digitize(traces, edges[1:-1]), 0, n_bins - 1)
        occupied = np.unique(assignments)
        grid = np.array([traces[assignments == b].mean() for b in occupied])
        means = np.array([blocks[assignments == b].mean(axis=0) for b in occupied])
        order = np.argsort(grid)
        grid = grid[order]
        means = means[order]
        phi_hat = np.empty_like(means)
        phi_hat[0] = means[0]
        for i in range(1, means.shape[0]):
            _, factor = psd_factor(means[i] - phi_hat[i - 1])
            phi_hat[i] = phi_hat[i - 1] + factor @ factor.T
        remap = {b: i for i, b in enumerate(occupied[order])}
        assignments = np.array([remap[b] for b in assignments])
    fitted = phi_hat[assignments]
    residual = float(np.max(np.abs(blocks - fitted).sum(axis=(1, 2))))
    if grid.size > 1:
        dists = np.abs(np.diff(phi_hat, axis=0)).sum(axis=(1, 2))
        gaps = np.diff(grid)
        lipschitz = float(np.max(dists / np.maximum(gaps, 1e-15)))
    else:
        lipschitz = 0.0
    return SyncFit(grid, phi_hat, residual, lipschitz, bin_width)


def interpolation_curve(
    N,
    kappa,
    d,
    beta,
    path,
    t_grid,
    reps=300,
    atoms_per_level=200,
    seed=0,
    threads=1,
):
    """Estimated interpolated free energy on a t-grid, with joint sampling of
    disorder, cascade weights, and the coupled local/correction fields so the
    curve increments are paired."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0) or np.any(t_grid > 1) or np.any(np.diff(t_grid) <= 0):
        raise ValidationError("t grid must be strictly increasing within [0, 1]")
    if reps < 2:
        raise ValidationError("need at least 2 replicates")
    counts = d.counts(N)
    configs = enumerate_configs(N, kappa, counts)
    spec = CascadeSpec(tuple(path.inner_x), atoms_per_level)
    k = atoms_per_level
    z_factors = level_factors(path.increment_covariances())
    y_factors = level_factors(path.hs_increments()[:, None, None])
    sqrt_n = np.sqrt(N)

    def run(indices, ws):
        rng = stack_streams(indices, seed, 0x17E)
        sample = sample_cascade(spec, rng, ws)
        z = sample_level_fields(sample, z_factors, rng, n_copies=N, ws=ws, key="z")
        y = sample_level_fields(sample, y_factors, rng, ws=ws, key="y")
        y = [level[..., 0, 0, :] for level in y]
        g = [DisorderInstance(N, seed, draw=i).g for i in indices]
        h = np.array([config_energies(configs, gi) - mean_energy(gi, kappa, counts) for gi in g])
        zterms = [config_field_sum(level, configs - 1) for level in z]
        out = np.empty((len(indices), t_grid.size + 1))
        for j, t in enumerate(t_grid):
            a, b = np.sqrt(1.0 - t), np.sqrt(t) * sqrt_n
            terms = [beta * (a * zt + b * yt[..., None, :]) for zt, yt in zip(zterms[:-1], y[:-1])]
            zt, yt = zterms[-1], y[-1][..., None, :]
            terms.append(
                lambda lo, hi: beta * (a * zt[..., lo * k : hi * k] + b * yt[..., lo * k : hi * k])
            )
            out[:, j] = logsumexp(beta * np.sqrt(t) * h + sample.log_mean_exp(terms), axis=-1) / N
        # the cascade-only endpoint term, from the same sample so its
        # truncation bias cancels in the t=1 decomposition
        out[:, -1] = sample.log_mean_exp([beta * sqrt_n * yt for yt in y]) / N
        return out

    cells = configs.shape[0] * k**spec.r
    table = np.asarray(map_groups(run, reps, threads, stack_size(cells)))
    vals = table[:, :-1]
    y_only = table[:, -1]
    estimates = vals.mean(axis=0)
    ses = np.array([jackknife_se(vals[:, j]) for j in range(t_grid.size)])
    diffs = np.diff(vals, axis=1)
    inc_means = diffs.mean(axis=0)
    inc_ses = np.array([jackknife_se(diffs[:, j]) for j in range(diffs.shape[1])])
    worst = int(np.argmax(inc_means)) if inc_means.size else 0
    y_term = 0.5 * beta**2 * path.hs_telescoped()
    report = {
        "t_grid": [float(t) for t in t_grid],
        "estimates": [float(v) for v in estimates],
        "std_errors": [float(v) for v in ses],
        "increments": [float(v) for v in inc_means],
        "increment_std_errors": [float(v) for v in inc_ses],
        "max_positive_increment": float(inc_means[worst]) if inc_means.size else 0.0,
        "max_increment_std_error": float(inc_ses[worst]) if inc_means.size else 0.0,
        "y_term_closed_form": y_term,
        "n_configurations": int(configs.shape[0]),
        "reps": reps,
    }
    if t_grid[-1] == 1.0:
        paired = vals[:, -1] - y_only
        report["endpoint_minus_y_term"] = float(paired.mean())
        report["endpoint_std_error"] = float(jackknife_se(paired))
    return report


def legendre_gap(
    d,
    path,
    beta,
    lambda_grid,
    M_list,
    reps=200,
    atoms_per_level=200,
    seed=0,
    threads=1,
):
    """Dual upper value (min over the lambda grid) against the restricted-set
    values at enumerable sizes M; the gap should be nonnegative and shrink."""
    lambda_grid = list(lambda_grid)
    if not lambda_grid:
        raise ValidationError("lambda grid must be nonempty")
    duals = []
    for lam in lambda_grid:
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
        phi = eval_phi(lam_arr, path, beta).value
        duals.append(float(-np.dot(lam_arr, d.d[: d.kappa - 1]) + phi))
    best = int(np.argmin(duals))
    dual = duals[best]
    rows = []
    for M in M_list:
        delta = round_distribution(d, M)
        S = enumerate_configs(M, d.kappa, delta.counts(M))
        f1 = eval_f1_restricted(
            S, np.zeros(d.kappa - 1), path, beta, reps, atoms_per_level, seed, threads
        )
        rows.append(
            {
                "M": int(M),
                "f_M": f1.value,
                "std_error": f1.std_error,
                "gap": dual - f1.value,
                "delta": [float(v) for v in delta.d],
            }
        )
    return {
        "dual": dual,
        "lambda_star": [float(v) for v in np.atleast_1d(lambda_grid[best])],
        "dual_values": [float(v) for v in duals],
        "rows": rows,
    }

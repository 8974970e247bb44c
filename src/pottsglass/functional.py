"""Evaluators for the recursion value Phi, the variational objective, and the
restricted-set cascade functionals.

Phi is computed two ways: exact backward recursion with tensor Gauss-Hermite
quadrature in the eigenbasis of each increment covariance, and truncated
cascade Monte Carlo.  The quadrature route is deterministic and is the
optimizer's objective; the Monte Carlo route is the independent cross-check.
It is the restricted-set cascade average with M = 1 over the kappa one-site
configurations; this module gives the configurations and lambda-terms of
each average, and cascade.cascade_values runs its replicates.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .cascade import CascadeSpec, cascade_values, level_factors
from .core import (
    EvalResult,
    as_multipliers,
    hs_sq_integral,
    hs_telescoped,
    increment_covariances,
    psd_factor,
)
from .model import enumerate_configs
from .util import BudgetError, ValidationError, jackknife_se, logsumexp, logsumexp_last

FORM_AGREEMENT_TOL = 1e-10
RANK_TOL = 1e-9  # increment eigenvalues at or below this get no quadrature axis
# hermgauss(n) solves an n x n eigenproblem, and a rank-1 level passes the
# node budget with n up to the budget itself, so n is capped on its own
MAX_NODES_PER_DIM = 101


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor Gauss-Hermite settings for the nested Gaussian expectations."""

    nodes_per_dim: int = 9
    budget: int = 500_000

    def __post_init__(self):
        if self.nodes_per_dim < 3 or self.nodes_per_dim % 2 == 0:
            raise ValidationError("nodes_per_dim must be odd and at least 3")
        if self.nodes_per_dim > MAX_NODES_PER_DIM:
            raise BudgetError(
                f"nodes_per_dim {self.nodes_per_dim} exceeds {MAX_NODES_PER_DIM}"
            )
        if self.budget < self.nodes_per_dim:
            raise ValidationError("budget must cover at least one level")


@functools.lru_cache(maxsize=16)  # bounded; a run uses a few (nodes, rank) pairs
def _gh_grid(nodes_per_dim, rank):
    """The standard-normal tensor grid sqrt(2) t and its normalized
    log-weights, built once per (nodes_per_dim, rank) and shared read-only."""
    t, w = np.polynomial.hermite.hermgauss(nodes_per_dim)
    grid = np.sqrt(2.0) * np.array(list(itertools.product(t, repeat=rank)))
    logw = np.log(np.array(list(itertools.product(w, repeat=rank)))).sum(axis=1)
    logw -= logsumexp(logw)
    grid.flags.writeable = False
    logw.flags.writeable = False
    return grid, logw


def _gh_nodes(factor, nodes_per_dim):
    """Quadrature nodes/log-weights for the centered Gaussian factor @ Z, for
    one (kappa, rank) factor or a stack of factors of one rank."""
    kappa, rank = factor.shape[-2:]
    if rank == 0:
        return np.zeros(factor.shape[:-2] + (1, kappa)), np.zeros(1)
    grid, logw = _gh_grid(nodes_per_dim, rank)
    return grid @ np.swapaxes(factor, -1, -2), logw


def _level_value(inner, logw, x):
    """(1/x_b) log of the weighted mean of exp(x_b * inner[b]) over each row,
    for inner (B, m, n) and one level x_b per path b.

    x_b = 0 takes the plain mean c.  Rows with x_b |inner - c| < 1 use
    c + log1p(mean of expm1(x_b (inner - c))) / x_b, whose rounding error
    does not grow as x_b -> 0; the other rows are max-shifted.  The weighted
    sum of a path's expm1 terms is one matrix-vector product over its near
    rows: a BLAS product over more rows may round a row differently, and a
    path's value must not depend on the batch it is evaluated in.  Paths
    with the same number of near rows share the product shape, so each such
    group is one stacked product, which makes the same BLAS call per path.
    """
    w = np.exp(logw)
    mean = np.sum(w * inner, axis=-1)
    out = mean.copy()
    live = x != 0.0
    if not live.any():
        return out
    dev = x[:, None, None] * (inner - mean[..., None])
    near = (np.max(np.abs(dev), axis=-1) < 1.0) & live[:, None]
    far = ~near & live[:, None]
    if near.any():
        terms = np.expm1(dev[near])
        counts = near.sum(axis=1)
        first = np.cumsum(counts) - counts
        sums = np.empty(len(terms))
        for c in set(counts.tolist()) - {0}:
            rows = first[counts == c][:, None] + np.arange(c)
            sums[rows] = terms[rows] @ w
        out[near] = mean[near] + np.log1p(sums) / np.repeat(x, counts)
    if far.any():
        x_far = np.repeat(x, far.sum(axis=1))
        out[far] = logsumexp(logw[None, :] + x_far[:, None] * inner[far], axis=1) / x_far
    return out


def _phi_rows(lam_full, x_levels, covs, beta, quad):
    """X_0 of B paths by exact backward recursion with quadrature.

    lam_full (B, kappa), x_levels (B, r) and covs (B, r, kappa, kappa).  Each
    level is _level_value's log-mean-exp.  Paths whose levels have the same
    ranks share grid shapes and recurse together, in chunks of at most
    quad.budget nodes.  Every path's node count is checked against the budget
    before any grid is built.  Returns the values and the node counts.
    """
    n = quad.nodes_per_dim
    kappa = lam_full.shape[1]
    eig, factor = psd_factor(covs)
    ranks = [tuple(row) for row in np.sum(eig > RANK_TOL, axis=-1).tolist()]
    totals = [n ** sum(row) for row in ranks]
    for total in totals:
        if total > quad.budget:
            raise BudgetError(
                f"recursion requires {total} node evaluations, budget is {quad.budget}"
            )
    groups = {}
    for b, row in enumerate(ranks):
        groups.setdefault(row, []).append(b)
    phi = np.empty(len(ranks))
    for signature, rows in groups.items():
        # a chunk holds at most quad.budget nodes over all its paths, so a
        # batch needs no more memory than one path at the budget
        per_chunk = max(1, quad.budget // n ** sum(signature))
        for start in range(0, len(rows), per_chunk):
            chunk = rows[start : start + per_chunk]
            # eigh's eigenvalues ascend, so the kept columns are the last ones
            levels = [
                _gh_nodes(np.ascontiguousarray(factor[chunk, p, :, kappa - k :]), n)
                for p, k in enumerate(signature)
            ]
            phi[chunk] = _recurse(levels, x_levels[chunk], lam_full[chunk], beta)
    return phi, totals


def _recurse(levels, x_levels, lam_full, beta):
    """The recursion over a group of paths with the same grid shapes: the
    fields summed down every level's nodes, then each level's value taken
    from the deepest up.  A loop, not a nested closure: a self-referencing
    closure is a reference cycle, and would keep each call's node arrays
    alive until the cyclic garbage collector runs."""
    g, kappa = lam_full.shape
    s = np.zeros((g, 1, kappa))
    for nodes, _ in levels:
        s = (s[:, :, None, :] + nodes[:, None, :, :]).reshape(g, -1, kappa)
    value = logsumexp_last(beta * s + lam_full[:, None, :])
    for p in reversed(range(len(levels))):
        nodes, logw = levels[p]
        value = _level_value(value.reshape(g, -1, nodes.shape[1]), logw, x_levels[:, p])
    return value[:, 0]


def eval_phi(lam, path, beta, quad=None):
    """The recursion value X_0 by exact backward recursion with quadrature:
    the one-path case of _phi_rows."""
    quad = quad or QuadratureSpec()
    if beta < 0:
        raise ValidationError("beta must be nonnegative")
    lam = as_multipliers(lam, path.kappa)
    phi, totals = _phi_rows(
        np.append(lam.lam, 0.0)[None], path.inner_x[None], path.increment_covariances()[None],
        beta, quad,
    )
    return EvalResult(
        float(phi[0]), 0.0, "quadrature", {"node_evaluations": totals[0], "levels": path.r}
    )


def eval_phi_cascade_mc(lam, path, beta, reps=200, atoms_per_level=200, seed=0, threads=1):
    """Monte Carlo Phi over truncated cascades with hierarchical leaf fields:
    the cascade average with M = 1 over the kappa one-site configurations."""
    one_site = np.arange(path.kappa)[:, None]
    return _cascade_mc(
        0xF1, one_site, lam, path, beta, reps, atoms_per_level, seed, threads,
        {"leaves": atoms_per_level**path.r},
    )


def eval_parisi(lam, d, path, beta, quad=None):
    """The variational objective: Phi minus the Lagrange and HS corrections;
    the one-path case of eval_parisi_rows."""
    if d.kappa != path.kappa:
        raise ValidationError(f"distribution has {d.kappa} states but the path has {path.kappa}")
    lam = as_multipliers(lam, d.kappa)
    value, phi, rearranged, totals = eval_parisi_rows(
        lam.lam[None], d.d[None], path.xs[None], path.gammas[None], beta, quad
    )
    diagnostics = {
        "node_evaluations": totals[0], "levels": path.r,
        "phi": float(phi[0]), "rearranged_value": float(rearranged[0]),
    }
    return EvalResult(float(value[0]), 0.0, "quadrature", diagnostics)


def eval_parisi_rows(lam, d, xs, gammas, beta, quad=None):
    """The variational objective of B validated paths at once: lam (B, kappa-1),
    d (B, kappa), xs (B, r+2) and gammas (B, r+1, kappa, kappa).

    Each path's distribution must match its endpoint, and its telescoped HS
    correction must agree with the integral form eval_f2.  A path's value does
    not depend on the other rows.  Returns the values, Phi, the rearranged
    values and the node counts.
    """
    quad = quad or QuadratureSpec()
    if beta < 0:
        raise ValidationError("beta must be nonnegative")
    kappa = d.shape[1]
    if not np.all(np.isfinite(lam)):
        raise ValidationError("multipliers must be finite")
    if np.any(np.max(np.abs(d - np.diagonal(gammas[:, -1], axis1=1, axis2=2)), axis=1) > 1e-10):
        raise ValidationError("distribution does not match the path endpoint")
    lam_full = np.concatenate([lam, np.zeros((lam.shape[0], 1))], axis=1)
    phi, totals = _phi_rows(lam_full, xs[:, 1:-1], increment_covariances(gammas), beta, quad)
    # one BLAS dot per path, as np.dot makes: a product over the stacked rows
    # could round a row differently
    lagrange = np.matmul(lam[:, None, :], d[:, : kappa - 1, None])[:, 0, 0]
    value = phi - lagrange - 0.5 * beta**2 * hs_telescoped(xs, gammas)
    rearranged = phi - lagrange - _f2_rows(d, xs, gammas, beta)
    gap = np.abs(value - rearranged)
    if np.any(gap > FORM_AGREEMENT_TOL):
        raise ValidationError(f"correction forms disagree by {np.max(gap):.3e}")
    return value, phi, rearranged, totals


def _f2_rows(d, xs, gammas, beta):
    return 0.5 * beta**2 * (np.sum(d**2, axis=-1) - hs_sq_integral(xs, gammas))


def eval_f2(path, beta):
    """Closed form of the Y-functional: exact finite sum over path cells.

    Equals (beta^2/2) sum_p x_p (|gamma_{p+1}|_HS^2 - |gamma_p|_HS^2), the
    quantity verify_y_identity checks by Monte Carlo; equivalently
    (beta^2/2) (sum_k d_k^2 - integral of |pi|_HS^2).
    """
    return float(_f2_rows(path.d.d, path.xs, path.gammas, beta))


def _cascade_mc(tag, configs, lam, path, beta, reps, atoms_per_level, seed, threads, diagnostics):
    """Replicate mean and jackknife error of the cascade average
    (1/M) log sum_alpha v_alpha sum_sigma exp(sum_i beta z_{i,sigma_i}(alpha) + lambda_{sigma_i})
    over the rows sigma of configs, an (n_conf, M) array of 0-based labels:
    cascade_values with the path's increments and lambda_{sigma_1} + ... +
    lambda_{sigma_M} per row.
    """
    if reps < 2:
        raise ValidationError("need at least 2 replicates")
    lam_full = np.append(as_multipliers(lam, path.kappa).lam, 0.0)
    spec = CascadeSpec(tuple(path.inner_x), atoms_per_level)
    values = cascade_values(
        tag, configs, lam_full[configs].sum(axis=1), level_factors(path.increment_covariances()),
        beta, spec, reps, seed, threads,
    )
    diagnostics = {"reps": reps, "atoms_per_level": atoms_per_level, **diagnostics}
    return EvalResult(float(values.mean()), jackknife_se(values), "cascade-mc", diagnostics)


def eval_f1_restricted(S, lam, path, beta, reps=200, atoms_per_level=200, seed=0, threads=1):
    """Per-site restricted-set cascade functional over a configuration set S.

    S is an (n_conf, M) array of labels in 1..kappa with M <= 12.
    """
    S = np.asarray(S, dtype=np.int64)
    if S.ndim != 2 or S.shape[0] == 0:
        raise ValidationError("S must be a nonempty (n_conf, M) label array")
    if S.shape[1] > 12:
        raise ValidationError("M must be at most 12 for enumerable sets")
    if np.min(S) < 1 or np.max(S) > path.kappa:
        raise ValidationError("labels must lie in 1..kappa")
    return _cascade_mc(
        0xF2, S - 1, lam, path, beta, reps, atoms_per_level, seed, threads,
        {"set_size": int(S.shape[0])},
    )


def eval_lower_bound(M, delta, path, beta, reps=200, atoms_per_level=200, seed=0, threads=1):
    """The finite-M lower-bound functional f^1 - f^2 at lambda = 0."""
    if M > 12:
        raise ValidationError("M must be at most 12")
    S = enumerate_configs(M, path.kappa, delta.counts(M))
    f1 = eval_f1_restricted(
        S, np.zeros(path.kappa - 1), path, beta, reps, atoms_per_level, seed, threads
    )
    f2 = eval_f2(path, beta)
    diagnostics = dict(f1.diagnostics)
    diagnostics.update({"f1": f1.value, "f2": f2, "M": int(M)})
    return EvalResult(f1.value - f2, f1.std_error, "cascade-mc", diagnostics)

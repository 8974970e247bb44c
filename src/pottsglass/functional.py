"""Evaluators for the recursion value Phi, the variational objective, and the
restricted-set cascade functionals.

Phi is computed two ways: exact backward recursion with tensor Gauss-Hermite
quadrature in the eigenbasis of each increment covariance, and truncated
cascade Monte Carlo.  The quadrature route is deterministic and is the
optimizer's objective; the Monte Carlo route is the independent cross-check.
It is the restricted-set cascade average with M = 1 over the kappa one-site
configurations, and both run through one replicate kernel.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cascade import CascadeSpec, sample_cascade, sample_level_fields
from .core import EvalResult, as_multipliers, psd_factor
from .model import enumerate_configs
from .util import BudgetError, ValidationError, jackknife_se, logsumexp, map_indexed, stream

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


def _kept_factor(cov):
    """The columns of cov's PSD factor in directions above RANK_TOL; their
    number is the rank of the level's quadrature grid."""
    lam, factor = psd_factor(np.asarray(cov, dtype=float))
    return factor[:, lam > RANK_TOL]


def _gh_nodes(factor, nodes_per_dim):
    """Quadrature nodes/log-weights for the centered Gaussian factor @ Z."""
    kappa, rank = factor.shape
    if rank == 0:
        return np.zeros((1, kappa)), np.zeros(1)
    grid, logw = _gh_grid(nodes_per_dim, rank)
    return grid @ factor.T, logw


def _level_value(inner, logw, x_p):
    """(1/x_p) log of the weighted mean of exp(x_p * inner) over each row.

    x_p = 0 takes the plain mean c.  Rows with x_p |inner - c| < 1 use
    c + log1p(mean of expm1(x_p (inner - c))) / x_p, whose rounding error
    does not grow as x_p -> 0; the other rows are max-shifted.
    """
    w = np.exp(logw)
    mean = np.sum(w[None, :] * inner, axis=1)
    if x_p == 0.0:
        return mean
    dev = x_p * (inner - mean[:, None])
    near = np.max(np.abs(dev), axis=1) < 1.0
    out = np.empty_like(mean)
    out[near] = mean[near] + np.log1p(np.expm1(dev[near]) @ w) / x_p
    if not near.all():
        out[~near] = logsumexp(logw[None, :] + x_p * inner[~near], axis=1) / x_p
    return out


def eval_phi(lam, path, beta, quad=None):
    """The recursion value X_0 by exact backward recursion with quadrature.

    Each level is _level_value's log-mean-exp.  The node count is checked
    against the budget before any grid is built.
    """
    quad = quad or QuadratureSpec()
    if beta < 0:
        raise ValidationError("beta must be nonnegative")
    kappa = path.kappa
    lam = as_multipliers(lam, kappa)
    lam_full = np.append(lam.lam, 0.0)
    r = path.r
    factors = [_kept_factor(cov) for cov in path.increment_covariances()]
    total_nodes = math.prod(quad.nodes_per_dim ** f.shape[1] for f in factors)
    if total_nodes > quad.budget:
        raise BudgetError(
            f"recursion requires {total_nodes} node evaluations, budget is {quad.budget}"
        )
    levels = [_gh_nodes(factor, quad.nodes_per_dim) for factor in factors]
    x_levels = path.inner_x  # x_0 .. x_{r-1}

    def recurse(p, s):
        if p == r:
            return logsumexp(beta * s + lam_full, axis=1)
        nodes, logw = levels[p]
        m = s.shape[0]
        n_p = nodes.shape[0]
        expanded = (s[:, None, :] + nodes[None, :, :]).reshape(m * n_p, kappa)
        inner = recurse(p + 1, expanded).reshape(m, n_p)
        return _level_value(inner, logw, float(x_levels[p]))

    value = float(recurse(0, np.zeros((1, kappa)))[0])
    return EvalResult(
        value, 0.0, "quadrature", {"node_evaluations": total_nodes, "levels": r}
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
    """The variational objective: Phi minus the Lagrange and HS corrections.

    The telescoped HS correction must agree with its integral form eval_f2.
    """
    if d.kappa != path.kappa:
        raise ValidationError(f"distribution has {d.kappa} states but the path has {path.kappa}")
    if np.max(np.abs(np.asarray(d.d) - path.d.d)) > 1e-10:
        raise ValidationError("distribution does not match the path endpoint")
    lam = as_multipliers(lam, d.kappa)
    phi = eval_phi(lam, path, beta, quad)
    lagrange = float(np.dot(lam.lam, d.d[: d.kappa - 1]))
    value = phi.value - lagrange - 0.5 * beta**2 * path.hs_telescoped()
    rearranged = phi.value - lagrange - eval_f2(path, beta)
    if abs(value - rearranged) > FORM_AGREEMENT_TOL:
        raise ValidationError(
            f"correction forms disagree by {abs(value - rearranged):.3e}"
        )
    diagnostics = dict(phi.diagnostics)
    diagnostics.update({"phi": phi.value, "rearranged_value": rearranged})
    return EvalResult(value, 0.0, "quadrature", diagnostics)


def eval_f2(path, beta):
    """Closed form of the Y-functional: exact finite sum over path cells.

    Equals (beta^2/2) sum_p x_p (|gamma_{p+1}|_HS^2 - |gamma_p|_HS^2), the
    quantity verify_y_identity checks by Monte Carlo; equivalently
    (beta^2/2) (sum_k d_k^2 - integral of |pi|_HS^2).
    """
    d_sq = float(np.sum(path.d.d**2))
    return 0.5 * beta**2 * (d_sq - path.hs_sq_integral())


def config_field_sum(fields, configs):
    """Sum of one level's per-site node fields along each configuration.

    fields: (M, kappa, n_nodes); configs: (n_conf, M) 0-based labels.
    Returns (n_conf, n_nodes).
    """
    acc = fields[0][configs[:, 0]]
    for i in range(1, configs.shape[1]):
        acc += fields[i][configs[:, i]]
    return acc


def _cascade_replicate(rng, spec, cov_inc, configs, lam_term, beta):
    """One cascade draw's (1/M) log sum_alpha v_alpha sum_sigma exp(...): the
    atoms and then every level's fields from rng, folded down the tree."""
    sample = sample_cascade(spec, rng)
    fields = sample_level_fields(sample, cov_inc, rng, n_copies=configs.shape[1])
    per_conf = sample.log_mean_exp([beta * config_field_sum(g, configs) for g in fields])
    return float(logsumexp(lam_term + per_conf) / configs.shape[1])


def _cascade_mc(tag, configs, lam, path, beta, reps, atoms_per_level, seed, threads, diagnostics):
    """Replicate mean and jackknife error of the cascade average
    (1/M) log sum_alpha v_alpha sum_sigma exp(sum_i beta z_{i,sigma_i}(alpha) + lambda_{sigma_i})
    over the rows sigma of configs, an (n_conf, M) array of 0-based labels.

    Replicate i draws its cascade and fields from stream(seed, tag, K, i).
    """
    if reps < 2:
        raise ValidationError("need at least 2 replicates")
    lam_full = np.append(as_multipliers(lam, path.kappa).lam, 0.0)
    lam_term = lam_full[configs].sum(axis=1)
    spec = CascadeSpec(tuple(path.inner_x), atoms_per_level)
    cov_inc = path.increment_covariances()

    def one(i):
        rng = stream(seed, tag, atoms_per_level, i)
        return _cascade_replicate(rng, spec, cov_inc, configs, lam_term, beta)

    values = np.asarray(map_indexed(one, reps, threads))
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

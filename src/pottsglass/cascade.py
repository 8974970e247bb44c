"""Truncated Ruelle probability cascades and ultrametric overlap arrays.

Each tree node carries the top-K atoms of a Poisson process with intensity
zeta t^{-1-zeta} dt, generated as u_j = Gamma_j^{-1/zeta} from exponential
partial sums.  Leaf weights are products of the unnormalized atoms along
root-to-leaf paths, normalized once across all leaves; normalizing per node
instead would keep the log-moment recursion but break the joint overlap
distribution, so the node totals must be carried through.
"""

from dataclasses import dataclass

import numpy as np

from .core import OverlapArray, psd_factor
from .util import ValidationError, jackknife_se, logsumexp, map_indexed, stream


@dataclass(frozen=True)
class CascadeSpec:
    """Cascade level parameters x_0 < ... < x_{r-1} and the truncation K."""

    x: tuple
    atoms_per_level: int = 200

    def __post_init__(self):
        x = tuple(float(v) for v in self.x)
        object.__setattr__(self, "x", x)
        if len(x) < 1:
            raise ValidationError("need at least one cascade level")
        if not all(0.0 < v < 1.0 for v in x) or any(b <= a for a, b in zip(x, x[1:])):
            raise ValidationError("level parameters must satisfy 0 < x_0 < ... < x_{r-1} < 1")
        if self.atoms_per_level < 2:
            raise ValidationError("need at least 2 atoms per level")

    @property
    def r(self):
        return len(self.x)


def _pd_weights(rng, zeta, shape_rows, k):
    """Rows of log atom weights log u_j = -(1/zeta) log Gamma_j.

    Gamma_j are partial sums of i.i.d. standard exponentials, so each row is
    the decreasing head of a Poisson process with intensity zeta t^{-1-zeta}.
    Logs keep small zeta usable: the atoms then span a huge dynamic range and
    the cascade correctly degenerates toward a single atom as zeta -> 0.
    """
    gamma = np.cumsum(rng.standard_exponential(size=(shape_rows, k)), axis=1)
    return -np.log(gamma) / zeta


@dataclass(frozen=True)
class CascadeSample:
    """A sampled truncated cascade: per-level child weights and leaf weights."""

    spec: CascadeSpec
    level_weights: tuple  # level p: array (K**p, K), unnormalized node atoms
    leaf_weights: np.ndarray  # (K**r,), sums to 1

    @property
    def r(self):
        return self.spec.r

    @property
    def k(self):
        return self.spec.atoms_per_level

    @property
    def n_leaves(self):
        return self.leaf_weights.size

    @property
    def log_leaf_weights(self):
        # underflowed atoms legitimately map to -inf and drop out of logsumexp
        with np.errstate(divide="ignore"):
            return np.log(self.leaf_weights)

    def leaf_digits(self, indices):
        """Base-K digit paths (depth-major) for flat leaf indices."""
        indices = np.asarray(indices, dtype=np.int64)
        digits = np.empty(indices.shape + (self.r,), dtype=np.int64)
        rest = indices
        for p in range(self.r - 1, -1, -1):
            digits[..., p] = rest % self.k
            rest = rest // self.k
        return digits

    def common_depth(self, indices):
        """Pairwise ancestor depth alpha ^ alpha' for an index vector."""
        digits = self.leaf_digits(indices)
        n = digits.shape[0]
        same = digits[:, None, :] == digits[None, :, :]
        prefix = np.cumprod(same, axis=2)
        depth = prefix.sum(axis=2)
        return depth

    def pair_coincidence_masses(self):
        """sum over pairs with meet depth p of v_a v_a', for p = 0..r."""
        subtree_sq = [1.0]
        for p in range(1, self.r + 1):
            sums = self.leaf_weights.reshape(self.k**p, -1).sum(axis=1)
            subtree_sq.append(float(np.sum(sums**2)))
        a = np.asarray(subtree_sq)
        return np.append(-np.diff(a), a[-1])


def sample_cascade(spec, rng):
    """One truncated cascade drawn from the Generator rng."""
    k = spec.atoms_per_level
    levels = []
    log_leaf = np.zeros(1)
    for p in range(spec.r):
        log_w = _pd_weights(rng, spec.x[p], k**p, k)
        # one global shift per level cancels in the final normalization and
        # keeps the stored per-level atoms inside floating-point range
        log_w = log_w - log_w.max()
        levels.append(np.exp(log_w))
        log_leaf = (log_leaf[:, None] + log_w).reshape(-1)
    leaf = np.exp(log_leaf - logsumexp(log_leaf))
    return CascadeSample(spec, tuple(levels), leaf)


def sample_leaf_fields(sample, cov_increments, rng, n_copies=1):
    """Gaussian leaf fields with covariance sum of increments up to the meet.

    cov_increments[p] is the dim x dim covariance of the level-(p+1)
    increment; a scalar field is the dim = 1 case.  Returns an array of shape
    (n_leaves, n_copies, dim) with independent copies.
    """
    k = sample.k
    r = sample.r
    if len(cov_increments) != r:
        raise ValidationError("need one covariance increment per level")
    dim = np.asarray(cov_increments[0]).shape[0]
    total = np.zeros((sample.n_leaves, n_copies, dim))
    for p in range(1, r + 1):
        _, factor = psd_factor(np.asarray(cov_increments[p - 1], dtype=float))
        g = rng.standard_normal((k**p, n_copies, dim)) @ factor.T
        total += np.repeat(g, k ** (r - p), axis=0)
    return total


def sample_overlap_array(sample, q, phi, n, rng):
    """Ultrametric overlap array from n i.i.d. leaves of the cascade.

    q maps meet depth to trace (q_0 = 0 < ... < q_r); phi maps trace to the
    overlap block.  The leaves are drawn from the Generator rng.
    """
    if n < 2:
        raise ValidationError("need at least 2 replicas")
    q = np.asarray(q, dtype=float)
    if q.size != sample.r + 1 or np.any(np.diff(q) < 0):
        raise ValidationError("q must be nondecreasing with one value per depth 0..r")
    leaves = rng.choice(sample.n_leaves, size=n, p=sample.leaf_weights)
    depth = sample.common_depth(leaves)
    traces = q[depth]
    kappa = np.asarray(phi(q[-1])).shape[0]
    blocks = np.empty((n, n, kappa, kappa))
    for t in np.unique(traces):
        blocks[traces == t] = np.asarray(phi(float(t)), dtype=float)
    return OverlapArray(traces, blocks)


def _y_estimate(path, beta, scale_n, reps, k, seed, threads):
    spec = CascadeSpec(tuple(path.inner_x), k)
    var_inc = path.hs_increments()[:, None, None]

    def one(i):
        rng = stream(seed, 0x11D, k, i)
        sample = sample_cascade(spec, rng)
        y = sample_leaf_fields(sample, var_inc, rng)[:, 0, 0]
        return float(
            logsumexp(sample.log_leaf_weights + beta * np.sqrt(scale_n) * y) / scale_n
        )

    values = np.asarray(map_indexed(one, reps, threads))
    return float(values.mean()), jackknife_se(values)


def verify_y_identity(path, beta, scale_N=1, reps=400, atoms_per_level=200, seed=0, threads=1):
    """Monte Carlo check of the cascade log-moment identity for the Y field.

    The closed form is (beta^2/2) * sum_p x_p (|gamma_{p+1}|_HS^2 - |gamma_p|_HS^2).
    The truncation allowance is the K vs 2K estimate difference.
    """
    if scale_N < 1:
        raise ValidationError("scale_N must be at least 1")
    closed = 0.5 * beta**2 * path.hs_telescoped()
    est, se = _y_estimate(path, beta, scale_N, reps, atoms_per_level, seed, threads)
    est2, se2 = _y_estimate(path, beta, scale_N, reps, 2 * atoms_per_level, seed, threads)
    allowance = abs(est - est2)
    discrepancy = est - closed
    denom = 3.0 * se + allowance
    return {
        "estimate": est,
        "std_error": se,
        "estimate_2k": est2,
        "std_error_2k": se2,
        "closed_form": closed,
        "truncation_allowance": allowance,
        "discrepancy": discrepancy,
        "passed": bool(abs(discrepancy) <= max(denom, 1e-12)),
    }


def coincidence_masses(spec, n_samples, seed=0):
    """Estimated mean pair-coincidence masses over n_samples cascades.

    Returns (estimates, standard errors) for meet depths 0..r.
    """
    if n_samples < 2:
        raise ValidationError("need at least 2 cascade samples")
    sums = np.zeros(spec.r + 1)
    sq_sums = np.zeros(spec.r + 1)
    for i in range(n_samples):
        masses = sample_cascade(spec, stream(seed, 0xC01, i)).pair_coincidence_masses()
        sums += masses
        sq_sums += masses**2
    mean = sums / n_samples
    var = (sq_sums / n_samples - mean**2) * n_samples / (n_samples - 1)
    se = np.sqrt(np.clip(var, 0.0, None) / n_samples)
    return mean, se

"""Truncated Ruelle probability cascades and ultrametric overlap arrays.

Each tree node carries the top-K atoms of a Poisson process with intensity
zeta t^{-1-zeta} dt, generated as u_j = Gamma_j^{-1/zeta} from exponential
partial sums.  Leaf weights are products of the unnormalized atoms along
root-to-leaf paths, normalized once across all leaves; normalizing per node
instead would keep the log-moment recursion but break the joint overlap
distribution, so the node totals must be carried through.  Averages over
the leaves are folded up the tree from the atoms, with no K^r leaf array:
the deepest level's fields are drawn and reduced in blocks of parents, so a
replicate holds the K^r atoms and one block.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import OverlapArray, psd_factor
from .util import BudgetError, ValidationError, jackknife_se, logsumexp, map_indexed, stream

# rows x leaves of the deepest level folded per block; of 8k, 16k, 32k and 64k
# cells, 32k gave the fastest Phi-MC replicates (see CHANGES.md)
FOLD_BLOCK_CELLS = 32768
# leaves K**r per cascade: the deepest atoms alone take 8 bytes a leaf, so
# this caps them at 64 MiB per replicate and still admits r = 3 at K = 200
MAX_LEAVES = 2**23


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
        if self.atoms_per_level ** len(x) > MAX_LEAVES:
            raise BudgetError(
                f"{self.atoms_per_level}**{len(x)} cascade leaves exceed the budget of {MAX_LEAVES}"
            )

    @property
    def r(self):
        return len(self.x)


def _pd_weights(rng, zeta, shape_rows, k):
    """Rows of log atom weights log u_j = -(1/zeta) log Gamma_j, shifted by
    their largest entry.

    Gamma_j are partial sums of i.i.d. standard exponentials, so each row is
    the decreasing head of a Poisson process with intensity zeta t^{-1-zeta}.
    Logs keep small zeta usable: the atoms then span a huge dynamic range and
    the cascade correctly degenerates toward a single atom as zeta -> 0.  The
    one shift per level cancels in every normalized average.  Every step
    runs in the buffer of the exponential draw.
    """
    log_w = rng.standard_exponential(size=(shape_rows, k))
    np.cumsum(log_w, axis=1, out=log_w)
    np.log(log_w, out=log_w)
    np.negative(log_w, out=log_w)
    np.divide(log_w, zeta, out=log_w)
    return np.subtract(log_w, log_w.max(), out=log_w)


def _log_sum_children(t):
    """Per parent, the log-sum-exp over its children on the last axis,
    shifted by its own largest child."""
    top = t.max(axis=-1, keepdims=True)
    shifted = t - top
    return np.log(np.exp(shifted, out=shifted).sum(axis=-1)) + top[..., 0]


def _fold(log_atoms, *term_lists):
    """Bottom-up log sums, one list per term list: entry q is (..., K**q),
    per depth-q node the log of the sum over the leaves below it of the
    atoms and exp(terms) beneath it.

    terms[p] for p < r - 1 is None or (..., K**(p+1)) over the depth p+1
    nodes, siblings contiguous.  The deepest level's terms[-1] is None, such
    an array, or a block source: source(lo, hi) returns the (..., (hi-lo)*K)
    terms of the children of depth r-1 parents lo..hi-1, and is called on
    consecutive blocks from 0.  Each block adds its atoms and reduces every
    parent before the next block is made, so no K**r array beyond the atoms
    is held.  A block has at most FOLD_BLOCK_CELLS rows times leaves, the
    rows read off the in-memory terms, and at least one parent.
    """
    deepest = log_atoms[-1]
    n_parents, k = deepest.shape
    rows = max(
        (math.prod(t.shape[:-1]) for terms in term_lists for t in terms if isinstance(t, np.ndarray)),
        default=1,
    )
    step = max(1, FOLD_BLOCK_CELLS // (rows * k))
    blocks = [[] for _ in term_lists]
    for lo in range(0, n_parents, step):
        hi = min(lo + step, n_parents)
        log_w = deepest[lo:hi]
        for terms, done in zip(term_lists, blocks):
            t, source = log_w, terms[-1]
            if source is not None:
                block = source(lo, hi) if callable(source) else source[..., lo * k : hi * k]
                t = block.reshape(block.shape[:-1] + log_w.shape) + t
            done.append(_log_sum_children(t))
    folds = []
    for terms, done in zip(term_lists, blocks):
        sums = [None] * (len(log_atoms) - 1) + [done[0] if len(done) == 1 else np.concatenate(done, axis=-1)]
        for p in range(len(log_atoms) - 2, -1, -1):
            log_w = t = log_atoms[p]
            t = sums[p + 1].reshape(sums[p + 1].shape[:-1] + log_w.shape) + t
            if terms[p] is not None:
                t = terms[p].reshape(terms[p].shape[:-1] + log_w.shape) + t
            sums[p] = _log_sum_children(t)
        folds.append(sums)
    return folds


@dataclass(frozen=True)
class CascadeSample:
    """A sampled truncated cascade: the per-level log atoms.

    log_atoms[p] is the (K**p, K) array of log u over the children of the
    depth-p nodes, shifted by the level's largest atom.
    """

    spec: CascadeSpec
    log_atoms: tuple
    # the atoms-only fold (entry q the (K**q,) log subtree masses), set by
    # the first fold that needs it
    _log_mass: list = field(default=None, init=False, repr=False, compare=False)

    @property
    def r(self):
        return self.spec.r

    @property
    def k(self):
        return self.spec.atoms_per_level

    @property
    def n_leaves(self):
        return self.k**self.r

    def log_mean_exp(self, terms):
        """log sum_leaf v_leaf exp(sum_p terms[p] at the leaf's depth p+1 node)
        for the normalized leaf weights v, per leading index of the terms.

        terms[p] is (..., K**(p+1)) over the depth p+1 nodes, and the deepest
        entry may instead be a block source (see _fold), which streams that
        level.  The first call folds the normalization in the same loop.
        """
        if self._log_mass is None:
            sums, mass = _fold(self.log_atoms, terms, [None] * self.r)
            object.__setattr__(self, "_log_mass", mass)
        else:
            (sums,) = _fold(self.log_atoms, terms)
        return sums[0][..., 0] - self._log_mass[0][0]

    @property
    def leaf_weights(self):
        """The (K**r,) normalized leaf weights, built for drawing leaves."""
        log_leaf = np.zeros(1)
        for log_w in self.log_atoms:
            log_leaf = (log_leaf[:, None] + log_w).reshape(-1)
        return np.exp(log_leaf - logsumexp(log_leaf))

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
        """sum over pairs with meet depth p of v_a v_a', for p = 0..r: the
        squared subtree masses at depth q fold the doubled atoms above q."""
        if self._log_mass is None:
            object.__setattr__(self, "_log_mass", _fold(self.log_atoms, [None] * self.r)[0])
        log_mass = self._log_mass + [None]  # a leaf's is log 1
        subtree_sq = [1.0]
        for q in range(1, self.r + 1):
            doubled = [2.0 * log_w for log_w in self.log_atoms[:q]]
            bottom = None if log_mass[q] is None else 2.0 * log_mass[q]
            folded = _fold(doubled, [None] * (q - 1) + [bottom])[0][0][0]
            subtree_sq.append(float(np.exp(folded - 2.0 * log_mass[0][0])))
        a = np.asarray(subtree_sq)
        return np.append(-np.diff(a), a[-1])


def sample_cascade(spec, rng):
    """One truncated cascade drawn from the Generator rng: all levels' atoms."""
    k = spec.atoms_per_level
    return CascadeSample(spec, tuple(_pd_weights(rng, x, k**p, k) for p, x in enumerate(spec.x)))


def level_factors(cov_increments):
    """The factor of each level's dim x dim covariance increment (dim = 1 for
    a scalar field), whose outer product is its PSD projection: computed once
    per call of a cascade average and shared by its replicates."""
    return [psd_factor(np.asarray(cov, dtype=float))[1] for cov in cov_increments]


def level_field_source(sample, factors, rng, n_copies=1):
    """Independent Gaussian node fields: the upper levels' drawn now, and a
    block source for the deepest level's.

    factors[p] is the level_factors entry of the level-(p+1) increment.
    Level p is one standard normal draw (K**(p+1), n_copies, dim) in level
    order, and its fields are (n_copies, dim, K**(p+1)) over the depth p+1
    nodes: a leaf's field, the sum of its ancestors', has covariance the sum
    of the increments down to a meet.  Returns (upper fields, deepest) where
    deepest(lo, hi) draws the fields of the children of depth r-1 parents
    lo..hi-1; called on consecutive blocks from 0, it continues the stream
    of rng, so its blocks equal one draw of the whole level.
    """
    if len(factors) != sample.r:
        raise ValidationError("need one covariance increment per level")

    def draw(factor, n_nodes):
        z = rng.standard_normal((n_nodes, n_copies, factor.shape[0]))
        # one contiguous (dim, n_nodes) operand per copy keeps the child axis last
        return factor @ np.ascontiguousarray(z.transpose(1, 2, 0))

    upper = tuple(draw(f, sample.k ** (p + 1)) for p, f in enumerate(factors[:-1]))
    return upper, lambda lo, hi: draw(factors[-1], (hi - lo) * sample.k)


def sample_level_fields(sample, factors, rng, n_copies=1):
    """Every level's node fields in memory, as level_field_source draws them."""
    upper, deepest = level_field_source(sample, factors, rng, n_copies)
    return upper + (deepest(0, sample.k ** (sample.r - 1)),)


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
    factors = level_factors(path.hs_increments()[:, None, None])
    scale = beta * np.sqrt(scale_n)

    def one(i):
        rng = stream(seed, 0x11D, k, i)
        sample = sample_cascade(spec, rng)
        upper, deepest = level_field_source(sample, factors, rng)
        terms = [scale * g[0, 0] for g in upper] + [lambda lo, hi: scale * deepest(lo, hi)[0, 0]]
        return float(sample.log_mean_exp(terms) / scale_n)

    values = np.asarray(map_indexed(one, reps, threads))
    return float(values.mean()), jackknife_se(values)


def verify_y_identity(path, beta, scale_N=1, reps=400, atoms_per_level=200, seed=0, threads=1):
    """Monte Carlo check of the cascade log-moment identity for the Y field.

    The closed form is (beta^2/2) * sum_p x_p (|gamma_{p+1}|_HS^2 - |gamma_p|_HS^2).
    The truncation allowance is the K vs 2K estimate difference.
    """
    if scale_N < 1:
        raise ValidationError("scale_N must be at least 1")
    CascadeSpec(tuple(path.inner_x), 2 * atoms_per_level)  # the 2K pass's budget, before any draw
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


def coincidence_masses(spec, n_samples, seed=0, threads=1):
    """Estimated mean pair-coincidence masses over n_samples cascades.

    Sample i is drawn from stream(seed, 0xC01, i); the sums run in index
    order, so the result does not depend on threads.
    Returns (estimates, standard errors) for meet depths 0..r.
    """
    if n_samples < 2:
        raise ValidationError("need at least 2 cascade samples")
    masses = map_indexed(
        lambda i: sample_cascade(spec, stream(seed, 0xC01, i)).pair_coincidence_masses(),
        n_samples, threads,
    )
    mean = sum(masses) / n_samples
    var = (sum(m**2 for m in masses) / n_samples - mean**2) * n_samples / (n_samples - 1)
    se = np.sqrt(np.clip(var, 0.0, None) / n_samples)
    return mean, se

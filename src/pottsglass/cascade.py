"""Truncated Ruelle probability cascades and ultrametric overlap arrays.

Each tree node carries the top-K atoms of a Poisson process with intensity
zeta t^{-1-zeta} dt, generated as u_j = Gamma_j^{-1/zeta} from exponential
partial sums.  Leaf weights are products of the unnormalized atoms along
root-to-leaf paths, normalized once across all leaves; normalizing per node
instead would keep the log-moment recursion but break the joint overlap
distribution, so the node totals must be carried through.  Averages over
the leaves are folded up the tree from the atoms, with no K^r leaf array:
the deepest level's fields are drawn and reduced in blocks of parents, so a
replicate holds the K^r atoms and one block.  A sample holds its atoms and
their subtree masses, folded once when it is drawn: every average is one
fold of one term list divided by the root mass, and leaves are drawn down
the tree from the masses.  Every sample, field and value has a leading
replicate axis: replicates smaller than a block share one fold pass in a
stack, a lone replicate is a stack of one, and a replicate is the same bits
in any stack.  One kernel, cascade_values, runs the replicates of every
cascade average: the f^1 family and its one-site case, the Y identity.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import OverlapArray, psd_factor
from .util import BudgetError, ValidationError, Workspace, jackknife_se, logsumexp, map_groups, stack_streams

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


def _pd_weights(rng, zeta, shape_rows, k, out=None):
    """Rows of log atom weights log u_j = -(1/zeta) log Gamma_j, shifted by
    their largest entry.

    Gamma_j are partial sums of i.i.d. standard exponentials, so each row is
    the decreasing head of a Poisson process with intensity zeta t^{-1-zeta}.
    Logs keep small zeta usable: the atoms then span a huge dynamic range and
    the cascade correctly degenerates toward a single atom as zeta -> 0.  The
    one shift per level cancels in every normalized average.  Every step
    runs in the buffer of the exponential draw, out if given.
    """
    log_w = rng.standard_exponential(size=(shape_rows, k), out=out)
    np.cumsum(log_w, axis=1, out=log_w)
    np.log(log_w, out=log_w)
    # x / -zeta is -x / zeta bit for bit: a quotient's sign is set apart
    np.divide(log_w, -zeta, out=log_w)
    return np.subtract(log_w, log_w.max(), out=log_w)


def _log_sum_children(t, out):
    """Per parent, the log-sum-exp over its children on the last axis,
    shifted by its own largest child; the shifted terms go to out, which
    may be t itself."""
    top = t.max(axis=-1, keepdims=True)
    shifted = np.subtract(t, top, out=out)
    return np.log(np.exp(shifted, out=shifted).sum(axis=-1)) + top[..., 0]


def _rows_to(a, ndim):
    """a with singleton row axes after its leading replicate axis, so that
    it has ndim axes and broadcasts against per-row arrays."""
    return a.reshape(a.shape[:1] + (1,) * (ndim - a.ndim) + a.shape[1:])


def _children(values, log_w, out):
    """values (R, ..., n_parents * K) over the children of n_parents nodes,
    seen as (R, ..., n_parents, K), plus their (R, n_parents, K) log atoms,
    in out (which may be values itself) or, if out is None, in a new array."""
    v = values.reshape(values.shape[:-1] + log_w.shape[-2:])
    return np.add(v, _rows_to(log_w, v.ndim), out=v if out is values else out)


def _fold(log_atoms, terms, ws, power=1.0):
    """Bottom-up log sums: entry q is (R, ..., K**q), per depth-q node the
    log of the sum over the leaves below it of the atoms to the given power
    and exp(terms) beneath it.

    log_atoms[p] is (R, K**p, K) for a stack of R replicates; the terms lead
    with the same replicate axis, and the rows of the terms follow it.
    terms[p] for p < r - 1 is None or (R, ..., K**(p+1)) over
    the depth p+1 nodes, siblings contiguous.  The deepest level's terms[-1]
    is None, such an array, or a block source: source(lo, hi) returns the
    (R, ..., (hi-lo)*K) terms of the children of depth r-1 parents lo..hi-1,
    and is called on consecutive blocks from 0.  Each block adds its atoms
    and reduces every parent before the next block is made, so no K**r
    array beyond the atoms is held.  A block has at most FOLD_BLOCK_CELLS
    replicates times rows times leaves, the rows read off the in-memory
    terms, and at least one parent.  A source's block is used once, and the
    fold sums into it; the other block sums run in the buffer "scratch" of
    the Workspace ws.
    """
    deepest = log_atoms[-1]
    n_parents, k = deepest.shape[-2:]
    rows = max((math.prod(t.shape[:-1]) for t in terms if isinstance(t, np.ndarray)), default=deepest.shape[0])
    step = max(1, FOLD_BLOCK_CELLS // (rows * k))
    source = terms[-1]
    done = []
    for lo in range(0, n_parents, step):
        hi = min(lo + step, n_parents)
        log_w = deepest[..., lo:hi, :]
        if power != 1.0:
            log_w = np.multiply(log_w, power, out=ws.take("atoms_power", log_w.shape))
        if source is None:
            done.append(_log_sum_children(log_w, ws.take("scratch", log_w.shape)))
            continue
        if callable(source):
            block = source(lo, hi)
            t = _children(block, log_w, block)
        else:
            block = source[..., lo * k : hi * k]
            t = _children(block, log_w, ws.take("scratch", block.shape[:-1] + log_w.shape[-2:]))
        done.append(_log_sum_children(t, t))
    sums = [None] * (len(log_atoms) - 1) + [done[0] if len(done) == 1 else np.concatenate(done, axis=-1)]
    for p in range(len(log_atoms) - 2, -1, -1):
        log_w = log_atoms[p] if power == 1.0 else power * log_atoms[p]
        t = _children(sums[p + 1], log_w, None)
        if terms[p] is not None:
            own = terms[p].reshape(terms[p].shape[:-1] + log_w.shape[-2:])
            ndim = max(own.ndim, t.ndim)
            t = _rows_to(own, ndim) + _rows_to(t, ndim)
        sums[p] = _log_sum_children(t, t)
    return sums


@dataclass(frozen=True)
class CascadeSample:
    """A stack of R sampled truncated cascades: the per-level log atoms and
    their log subtree masses.

    log_atoms[p] is the (R, K**p, K) array of log u over the children of
    the depth-p nodes, replicate first, each replicate's level shifted by
    its largest atom.  log_mass[q] is (R, K**q), the atoms-only fold: the
    log subtree mass of every depth-q node.
    """

    spec: CascadeSpec
    log_atoms: tuple
    log_mass: tuple
    # the Workspace whose buffers hold the atoms, and in which the folds run
    ws: Workspace = field(repr=False, compare=False)

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

        terms[p] is (R, ..., K**(p+1)) over the depth p+1 nodes, and the deepest
        entry may instead be a block source (see _fold), which streams that
        level.
        """
        top = _fold(self.log_atoms, terms, self.ws)[0][..., 0]
        return top - _rows_to(self.log_mass[0][..., 0], top.ndim)

    def draw_leaves(self, u):
        """Leaves of a stack of one by inverse CDF down the tree, one per
        uniform in u.

        At each depth a leaf's path picks the child whose cumulative
        normalized subtree mass first exceeds u (searchsorted with
        side="right", counted row by row), and u is rescaled into that
        child's interval.  This is the leaf rng.choice(n_leaves, p=leaf
        weights) returns for the same rng.random uniforms, up to rounding at
        the interval ends, without the K**r weights or their cumsum.
        """
        mass = [m[0] for m in self.log_mass]
        k = self.k
        u = np.array(u, dtype=float)
        rows = np.arange(u.size)
        node = np.zeros(u.size, dtype=np.int64)
        for p, log_w in enumerate(self.log_atoms):
            t = log_w[0][node]
            if p + 1 < self.r:
                t = t + mass[p + 1].reshape(-1, k)[node]
            cdf = np.cumsum(np.exp(t - mass[p][node][:, None]), axis=1)
            cdf /= cdf[:, -1:]
            child = np.minimum((cdf <= u[:, None]).sum(axis=1), k - 1)
            below = np.where(child > 0, cdf[rows, child - 1], 0.0)
            u = (u - below) / (cdf[rows, child] - below)
            node = node * k + child
        return node

    def common_depth(self, indices):
        """Pairwise meet depth alpha ^ alpha' for an index vector: the count
        of depths q >= 1 at which the two leaves' ancestors leaf // K**(r-q)
        agree (an ancestor shared at depth q is shared at every depth above)."""
        ancestors = np.asarray(indices, dtype=np.int64)[:, None] // self.k ** np.arange(self.r - 1, -1, -1)
        return (ancestors[:, None, :] == ancestors[None, :, :]).sum(axis=-1)

    def pair_coincidence_masses(self):
        """sum over pairs with meet depth p of v_a v_a', for p = 0..r (last
        axis, after the replicate axis): the squared subtree masses at depth
        q fold the doubled atoms above q."""
        log_mass = self.log_mass + (None,)  # a leaf's is log 1
        subtree_sq = [np.ones(self.log_atoms[0].shape[:-2])]
        for q in range(1, self.r + 1):
            bottom = None if log_mass[q] is None else 2.0 * log_mass[q]
            folded = _fold(self.log_atoms[:q], [None] * (q - 1) + [bottom], self.ws, power=2.0)[0][..., 0]
            subtree_sq.append(np.exp(folded - 2.0 * log_mass[0][..., 0]))
        a = np.stack(subtree_sq, axis=-1)
        return np.concatenate([-np.diff(a, axis=-1), a[..., -1:]], axis=-1)


def _generators(rng):
    """The Generators of a stack: rng itself, or [rng] for a lone Generator."""
    return [rng] if isinstance(rng, np.random.Generator) else list(rng)


def sample_cascade(spec, rng, ws=None):
    """A stack of truncated cascades drawn level by level: all levels' atoms.

    rng is a sequence of Generators, replicate j drawn from rng[j] as it
    would be in any stack, or one Generator for a stack of one.  With a
    Workspace ws the atoms are drawn into its buffers, and otherwise into a
    new one.  The subtree masses are folded once, here.
    """
    k = spec.atoms_per_level
    rngs = _generators(rng)
    ws = ws or Workspace()
    levels = tuple(ws.take(("atoms", p), (len(rngs), k**p, k)) for p in range(spec.r))
    for j, g in enumerate(rngs):
        for p, x in enumerate(spec.x):
            _pd_weights(g, x, k**p, k, out=levels[p][j])
    return CascadeSample(spec, levels, tuple(_fold(levels, [None] * spec.r, ws)), ws)


def level_factors(cov_increments):
    """The factor of each level's dim x dim covariance increment (dim = 1 for
    a scalar field), whose outer product is its PSD projection: computed once
    per call of a cascade average and shared by its replicates."""
    return [psd_factor(np.asarray(cov, dtype=float))[1] for cov in cov_increments]


def level_field_source(sample, factors, rng, n_copies=1, ws=None, key="fields"):
    """Independent Gaussian node fields: the upper levels' drawn now, and a
    block source for the deepest level's.

    factors[p] is the level_factors entry of the level-(p+1) increment.
    Level p is, per replicate, one standard normal draw (K**(p+1), n_copies,
    dim) in level order, and its fields are (R, n_copies, dim, K**(p+1))
    over the depth p+1 nodes: a leaf's field, the sum of its ancestors', has
    covariance the sum of the increments down to a meet.  Returns (upper
    fields, deepest) where deepest(lo, hi) draws the fields of the children
    of depth r-1 parents lo..hi-1; called on consecutive blocks from 0, it
    continues the stream of rng, so its blocks equal one draw of the whole
    level.

    rng holds one Generator per replicate of the sample, or is one Generator
    for a stack of one; each replicate's `factor @ z` is its own product,
    written over its draw.  With a Workspace ws the fields are drawn into
    its buffers under `key`, each deepest block reuses the last one's, and
    the transposed draw uses its buffer "scratch".
    """
    if len(factors) != sample.r:
        raise ValidationError("need one covariance increment per level")
    rngs = _generators(rng)
    take = ws.take if ws is not None else lambda key, shape: np.empty(shape)

    def draw(p, n_nodes, name):
        factor = factors[p]
        dim = factor.shape[0]
        out = take((key, name), (len(rngs), n_copies, dim, n_nodes))
        # one contiguous (dim, n_nodes) operand per copy keeps the child axis last
        zt = take("scratch", (n_copies, dim, n_nodes))
        for j, g in enumerate(rngs):
            z = g.standard_normal(out=out[j].reshape(n_nodes, n_copies, dim))
            np.copyto(zt, z.transpose(1, 2, 0))
            np.matmul(factor, zt, out=out[j])
        return out

    upper = tuple(draw(p, sample.k ** (p + 1), p) for p in range(sample.r - 1))
    return upper, lambda lo, hi: draw(sample.r - 1, (hi - lo) * sample.k, "deepest")


def sample_level_fields(sample, factors, rng, n_copies=1, ws=None, key="fields"):
    """Every level's node fields in memory, as level_field_source draws them."""
    upper, deepest = level_field_source(sample, factors, rng, n_copies, ws, key)
    return upper + (deepest(0, sample.k ** (sample.r - 1)),)


def stack_size(cells):
    """Replicates of `cells` rows times leaves stacked in one fold pass: as
    many as a fold block holds, at least one."""
    return max(1, FOLD_BLOCK_CELLS // cells)


def sample_overlap_array(sample, q, phi, n, rng):
    """Ultrametric overlap array from n i.i.d. leaves of the cascade.

    q maps meet depth to trace (q_0 = 0 < ... < q_r); phi maps trace to the
    overlap block.  The leaves are drawn from the Generator rng, by inverse
    CDF down the tree from its uniforms.
    """
    if n < 2:
        raise ValidationError("need at least 2 replicas")
    q = np.asarray(q, dtype=float)
    if q.size != sample.r + 1 or np.any(np.diff(q) < 0):
        raise ValidationError("q must be nondecreasing with one value per depth 0..r")
    leaves = sample.draw_leaves(rng.random(n))
    depth = sample.common_depth(leaves)
    traces = q[depth]
    kappa = np.asarray(phi(q[-1])).shape[0]
    blocks = np.empty((n, n, kappa, kappa))
    for t in np.unique(traces):
        blocks[traces == t] = np.asarray(phi(float(t)), dtype=float)
    return OverlapArray(traces, blocks)


def config_field_sum(fields, configs, out=None):
    """Sum of one level's per-site node fields along each configuration.

    fields: (R, M, kappa, n_nodes), the replicate axis first; configs:
    (n_conf, M) 0-based labels.  Returns (R, n_conf, n_nodes) in C order, so
    a reduction over its last axis adds each row as it would add that row
    alone (fancy indexing may lay the replicate axis fastest); in out if
    given.
    """
    # the labels are in range; the default mode="raise" copies through a buffer into out
    acc = fields[..., 0, :, :].take(configs[:, 0], axis=-2, out=out, mode="clip")
    for i in range(1, configs.shape[1]):
        acc += fields[..., i, :, :].take(configs[:, i], axis=-2)
    return acc


def cascade_values(tag, configs, lam_term, factors, beta, spec, reps, seed, threads):
    """The replicate values, in index order, of the cascade average
    (1/M) log sum_alpha v_alpha sum_sigma exp(beta sum_i z_{i,sigma_i}(alpha) + lam_term[sigma])
    over the rows sigma of configs, an (n_conf, M) array of 0-based labels,
    with node fields of the level_factors `factors`.

    Replicate i draws its atoms and then every level's fields from
    stream(seed, tag, K, i), and folds them down the tree together, the
    deepest level drawn block by block; replicates small enough share one
    fold pass in a stack (see map_groups).
    """
    k = spec.atoms_per_level
    n_conf, m = configs.shape

    def run(indices, ws):
        rng = stack_streams(indices, seed, tag, k)
        sample = sample_cascade(spec, rng, ws)
        upper, deepest = level_field_source(sample, factors, rng, n_copies=m, ws=ws)

        def deepest_terms(lo, hi):
            g = deepest(lo, hi)
            acc = config_field_sum(g, configs, ws.take("scratch", (g.shape[0], n_conf, g.shape[-1])))
            return np.multiply(acc, beta, out=acc)

        terms = [beta * config_field_sum(g, configs) for g in upper] + [deepest_terms]
        return logsumexp(lam_term + sample.log_mean_exp(terms), axis=-1) / m

    return np.asarray(map_groups(run, reps, threads, stack_size(n_conf * k**spec.r)))


def _y_estimate(path, beta, scale_n, reps, k, seed, threads):
    """Mean and jackknife error of (1/N) log sum_alpha v_alpha exp(beta
    sqrt(N) Y(alpha)): the one-site case of cascade_values, with the scalar
    HS increments as the level covariances."""
    values = cascade_values(
        0x11D, np.zeros((1, 1), dtype=np.int64), 0.0,
        level_factors(path.hs_increments()[:, None, None]), beta * np.sqrt(scale_n),
        CascadeSpec(tuple(path.inner_x), k), reps, seed, threads,
    ) / scale_n
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
    masses = np.asarray(map_groups(
        lambda indices, ws: sample_cascade(spec, stack_streams(indices, seed, 0xC01), ws)
        .pair_coincidence_masses(),
        n_samples, threads, stack_size(spec.atoms_per_level**spec.r),
    ))
    return sum(masses) / n_samples, np.array([jackknife_se(depth) for depth in masses.T])

"""Finite-size Potts glass: Hamiltonian, free energies, overlaps, cavity fields.

Configurations are label vectors in {1..kappa}.  Free energies average
(1/N) log Z over independent disorder draws; Z is computed exactly by
enumeration when the configuration count fits the budget, otherwise by
constraint-preserving Metropolis with thermodynamic integration.
"""

from dataclasses import dataclass, field
from math import factorial, frexp, ldexp, lgamma, log, prod

import numpy as np

from .core import EvalResult, freeze
from .util import BudgetError, ValidationError, jackknife_se, stream

ENUM_BUDGET = 20_000_000  # label cells (class size x N) of an enumerated configuration class
# rows x draws x N of one block's energy product (256 KiB of floats): of
# 2^14 to 2^17, the largest that keeps 200 stacked N = 10 draws under the
# 1 MB traced peak of the whole-class enumeration (see CHANGES.md)
ENUM_CELLS = 2**15
# Gaussian cells an MCMC run or an ass-check holds at once (64 MiB of floats),
# checked before any draw: draws x N^2 couplings (and the MCMC run's
# draws x rungs x kappa x N local fields), or draws x N^2 coupling samples
DRAW_BUDGET = 2**23


@dataclass(frozen=True)
class DisorderInstance:
    """An N x N matrix g of i.i.d. standard Gaussian couplings, drawn from
    the key (seed, N, draw) alone, so a draw is regenerated bit for bit."""

    N: int
    seed: int
    draw: int = 0
    g: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.N < 1:
            raise ValidationError("N must be at least 1")
        rng = stream(self.seed, 0xD15, self.N, self.draw)
        object.__setattr__(self, "g", freeze(rng.standard_normal((self.N, self.N))))


def hamiltonian(g, sigma):
    """(1/sqrt N) sum over all ordered site pairs (including i=j) of
    g_ij 1{sigma_i = sigma_j}."""
    s = np.asarray(sigma, dtype=np.int64)
    if s.size != g.N:
        raise ValidationError("configuration length does not match N")
    eq = s[:, None] == s[None, :]
    return float(np.sum(g.g[eq]) / np.sqrt(g.N))


def _one_hot(labels, kappa):
    """(..., kappa) indicators 1{label = k} of labels in 1..kappa."""
    return (labels[..., None] == np.arange(1, kappa + 1)).astype(float)


def overlap(a, b, kappa):
    """The (kappa, kappa) matrix R^{k,k'} = (1/N) sum_i 1{a_i = k} 1{b_i = k'}."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.size != b.size:
        raise ValidationError("configurations have different lengths")
    if min(a.min(), b.min()) < 1 or max(a.max(), b.max()) > kappa:
        raise ValidationError(f"labels must lie in 1..{kappa}")
    return np.einsum("ik,il->kl", _one_hot(a, kappa), _one_hot(b, kappa)) / a.size


class ConfigBlocks:
    """The configurations of a class in blocks of at most ``rows`` label rows
    (ENUM_CELLS // N by default), in lexicographic order; iterating yields
    (rows, N) arrays of labels in 1..kappa, and may be repeated.

    The class is {1..kappa}^N, or the type class of counts.  With ``orbits``
    there is one row per orbit of the relabellings that keep the class: for
    counts, states of equal positive count are interchangeable and first
    appear in ascending order; for the free set all states are, and the rows
    are the restricted growth strings.  ``log_weights`` gives each row's log
    orbit size.

    The budget is checked against the class size times N before any
    allocation.  Then one growth pass extends, site by site, only the
    prefixes that can still meet the counts and the first-appearance order,
    and stops at the first depth where no prefix has more than ``rows``
    completions (counted without the order, an upper bound for orbits).  It
    keeps those prefixes and the points that split them into blocks; each
    iteration grows a block's remaining sites.
    """

    def __init__(self, N, kappa, counts=None, rows=None, orbits=False):
        if counts is None:
            size = kappa**N
            room = np.full((1, kappa), N, dtype=np.int64)
            tied = [list(range(kappa))]
        else:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != (kappa,) or np.any(counts < 0) or counts.sum() != N:
                raise ValidationError(f"counts must be {kappa} nonnegative integers summing to {N}")
            size = factorial(N) // prod(factorial(int(c)) for c in counts)
            room = counts[None, :]
            tied = [np.flatnonzero(counts == c).tolist() for c in np.unique(counts[counts > 0])]
        if size * N > ENUM_BUDGET:
            raise BudgetError(
                f"{size} configurations of {N} sites exceed the enumeration budget "
                f"of {ENUM_BUDGET} labels"
            )
        if rows is not None and rows < 1:
            raise ValidationError("a block needs at least one row")
        self.N, self.kappa, self.size = N, kappa, size
        self.rows = max(1, ENUM_CELLS // max(N, 1)) if rows is None else rows
        # a state may be placed once it is open; placing it opens the next
        # state of its tie class
        opened = np.ones((1, kappa), dtype=bool)
        self._opens = np.zeros((kappa, kappa), dtype=bool)
        self._step = np.eye(kappa, dtype=np.int64)
        if orbits:
            for states in tied:
                opened[0, states[1:]] = False
                self._opens[states[:-1], states[1:]] = True
        # log orbit size by a row's largest label: kappa!/(kappa-b)! for a
        # restricted growth string over b states, prod m_c! over the tie
        # classes for counts, 1 without orbits
        if not orbits:
            self._log_w = np.zeros(kappa + 1)
        elif counts is None:
            self._log_w = np.array([lgamma(kappa + 1) - lgamma(kappa - b + 1) for b in range(kappa + 1)])
        else:
            self._log_w = np.full(kappa + 1, sum(lgamma(len(states) + 1) for states in tied))
        log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, N + 1)))])
        tree = []
        for depth in range(N + 1):
            if counts is None:
                log_completions = np.full(room.shape[0], (N - depth) * log(kappa))
            else:
                log_completions = log_fact[N - depth] - log_fact[room].sum(axis=1)
            if log_completions.max() <= log(self.rows) + 1e-9:
                break
            parent, label, room, opened = self._grow(room, opened)
            tree.append((parent.astype(np.int32), label.astype(np.min_scalar_type(kappa))))
        # the kept prefixes' labels, read back up the tree
        self._prefix = np.empty((room.shape[0], len(tree)), dtype=np.min_scalar_type(kappa))
        row = np.arange(room.shape[0])
        for i in range(len(tree) - 1, -1, -1):
            self._prefix[:, i] = tree[i][1][row]
            row = tree[i][0][row]
        self._room, self._opened = room, opened
        # consecutive prefixes are cut into blocks of at most rows completions
        ends = np.cumsum(np.rint(np.exp(log_completions)).astype(np.int64))
        self._splits = [0]
        while self._splits[-1] < room.shape[0]:
            lo = self._splits[-1]
            hi = np.searchsorted(ends, (ends[lo - 1] if lo else 0) + self.rows, side="right")
            self._splits.append(max(int(hi), lo + 1))

    def _grow(self, room, opened):
        """Every prefix extended by one site: row-major nonzero lists each
        prefix's admissible labels in ascending order, which keeps the rows
        sorted."""
        parent, label = np.nonzero((room > 0) & opened)
        return parent, label, room[parent] - self._step[label], opened[parent] | self._opens[label]

    def __iter__(self):
        depth = self._prefix.shape[1]
        for lo, hi in zip(self._splits[:-1], self._splits[1:]):
            room, opened = self._room[lo:hi], self._opened[lo:hi]
            tree = []
            for _ in range(depth, self.N):
                parent, label, room, opened = self._grow(room, opened)
                tree.append((parent, label))
            block = np.empty((room.shape[0], self.N), dtype=np.int64)
            row = np.arange(room.shape[0])
            for i in range(self.N - 1, depth - 1, -1):
                parent, label = tree[i - depth]
                block[:, i] = label[row]
                row = parent[row]
            block[:, :depth] = self._prefix[lo + row]
            block += 1
            yield block

    def log_weights(self, labels):
        """Each row's log orbit size (0 without orbits)."""
        return self._log_w[labels.max(axis=1)]


def enumerate_configs(N, kappa, counts=None):
    """All label vectors in {1..kappa}^N, optionally with fixed state counts:
    an (n_conf, N) array in lexicographic order, the concatenation of
    ConfigBlocks."""
    blocks = ConfigBlocks(N, kappa, counts)
    configs = np.empty((blocks.size, N), dtype=np.int64)
    lo = 0
    for block in blocks:
        configs[lo : lo + block.shape[0]] = block
        lo += block.shape[0]
    return configs


def _grid_levels(mats, n, n_mats):
    """The n_mats (n, n) matrices side by side as G = levels[0] + levels[1] + ...,
    each level (n, n_mats n).

    A matrix's part in level l lies on a power-of-two grid q_l so coarse that
    n^2 max|part| <= 2^53 q_l, and its remainder is below q_l / 2, so it
    takes the next level (2 or 3 levels for Gaussian couplings; zeros for a
    matrix that needs fewer).  x_k^T G_l x_k sums each entry at most once
    over k, so every partial sum of it is an exact multiple of q_l: a draw's
    energies do not depend on the order in which a BLAS kernel adds, which
    differs with the shape of the product.  mats are consumed one at a time
    and overwritten.
    """
    bits = (n * n - 1).bit_length()  # 2**bits >= n^2
    levels = [np.zeros((n, n_mats * n))]
    for d, rest in enumerate(mats):
        cols = slice(d * n, (d + 1) * n)
        top, level = max(rest.max(), -rest.min()), 0  # no |rest| temporary
        while top > 0.0:
            if level == len(levels):
                levels.append(np.zeros((n, n_mats * n)))
            q = max(ldexp(1.0, frexp(top)[1] + bits - 52), ldexp(1.0, -1074))
            part = levels[level][:, cols]
            np.divide(rest, q, out=part)
            np.round(part, out=part)
            np.multiply(part, q, out=part)
            rest -= part
            top, level = max(rest.max(), -rest.min()), level + 1
    return levels


def _block_energies(labels, levels, kappa):
    """(rows, D) values sum_k x_k^T G x_k of the one-hot label rows x_k under
    the D draws stacked in levels (_grid_levels of g / sqrt N): per level and
    label one GEMM (rows, N) x (N, D N), whose per-draw slices are contracted
    with x_k.  Each level's sum is exact, and the levels are added in order."""
    rows, n = labels.shape
    one_hot = [(labels == k).astype(float) for k in range(1, kappa + 1)]
    total = None
    for level in levels:
        part = None
        for x in one_hot:
            term = np.matmul((x @ level).reshape(rows, -1, n), x[:, :, None])[..., 0]
            part = term if part is None else np.add(part, term, out=part)
        total = part if total is None else np.add(total, part, out=total)
    return total


def config_energies(configs, g):
    """Hamiltonian values of a configuration array under the couplings g: the
    one-draw case of the stacked block energies, ENUM_CELLS // N rows at a
    time."""
    n_conf, n = configs.shape
    levels = _grid_levels([np.asarray(g, dtype=float) / np.sqrt(n)], n, 1)
    kappa = int(configs.max(initial=1))
    rows = max(1, ENUM_CELLS // max(n, 1))
    out = np.empty(n_conf)
    for lo in range(0, n_conf, rows):
        out[lo : lo + rows] = _block_energies(configs[lo : lo + rows], levels, kappa)[:, 0]
    return out


def mean_energy(g, kappa, counts=None):
    """Mean of H over {1..kappa}^N or the type class of counts:
    sum_ij g_ij P(sigma_i = sigma_j) / sqrt N, with P = 1 on the diagonal and
    1/kappa or sum_k n_k (n_k - 1) / (N (N - 1)) off it.  E_g H_sigma = 0, so
    subtracting beta * mean_energy / N per draw keeps (1/N) E log Z and removes
    the sigma-independent disorder mode, the bulk of the per-draw spread."""
    n = g.shape[0]
    diag = float(np.trace(g))
    if counts is None:
        same = 1.0 / kappa
    else:
        c = np.asarray(counts, dtype=float)
        same = float(np.sum(c * (c - 1.0))) / max(n * (n - 1), 1)
    return (diag + same * (float(g.sum()) - diag)) / np.sqrt(n)


def _log_partition(blocks, beta, seed, draws, counts):
    """log sum over the rows of exp(beta (H - mean_energy) + log w) for each
    of the draws, stacked in one group, folded block by block with a running
    max and sum; also returns the number of rows."""
    n, kappa = blocks.N, blocks.kappa
    centre = np.empty(len(draws))

    def scaled():
        for j, i in enumerate(draws):
            g = DisorderInstance(n, seed, draw=i).g
            centre[j] = mean_energy(g, kappa, counts)
            g = g / np.sqrt(n)  # the draw's own matrix is released here
            yield g

    levels = _grid_levels(scaled(), n, len(draws))
    top = np.full(len(draws), -np.inf)
    total = np.zeros(len(draws))
    n_rows = 0
    for labels in blocks:
        a = beta * (_block_energies(labels, levels, kappa) - centre)
        a += blocks.log_weights(labels)[:, None]
        new_top = np.maximum(top, a.max(axis=0))
        total = total * np.exp(top - new_top) + np.exp(a - new_top).sum(axis=0)
        top = new_top
        n_rows += labels.shape[0]
    return top + np.log(total), n_rows


def enumerate_free_energy(N, kappa, beta, n_disorder=200, seed=0, constraint=None, threads=1):
    """Exact per-draw (1/N) log Z of the centred H - mean_energy, averaged.

    Z sums over one row per label orbit (ConfigBlocks with orbits), each with
    its orbit size as weight, since H depends only on which sites share a
    label.  The draws are stacked in groups of ENUM_CELLS // N^2 (at least
    one), and the blocks have ENUM_CELLS // (group N) rows, so memory is
    bounded by the group, not by the class or the number of draws.  A draw's
    energies are exact per grid level (_grid_levels), so they are the same
    bits in any group; only the fold's last bits follow the block size.
    ``threads`` is accepted and not read.  ``n_configurations`` is the class
    size and ``n_orbits`` the rows summed.
    """
    if N < 1:
        raise ValidationError("N must be at least 1")
    if n_disorder < 2:
        raise ValidationError("need at least 2 disorder draws")
    counts = constraint.counts(N) if constraint is not None else None
    group = min(n_disorder, max(1, ENUM_CELLS // (N * N)))
    blocks = ConfigBlocks(N, kappa, counts, rows=max(1, ENUM_CELLS // (group * N)), orbits=True)
    log_z = np.empty(n_disorder)
    for lo in range(0, n_disorder, group):
        draws = range(lo, min(lo + group, n_disorder))
        log_z[lo : lo + group], n_orbits = _log_partition(blocks, beta, seed, draws, counts)
    values = log_z / N
    return EvalResult(
        float(values.mean()),
        jackknife_se(values),
        "enumeration",
        {
            "n_disorder": n_disorder,
            "n_configurations": blocks.size,
            "n_orbits": n_orbits,
            "constrained": constraint is not None,
        },
    )


def _log_multinomial(counts):
    counts = np.asarray(counts, dtype=int)
    return lgamma(counts.sum() + 1) - sum(lgamma(c + 1) for c in counts)


@dataclass(frozen=True)
class _Ladders:
    """State and tallies of the tempered chains after a kernel run, indexed
    by (draw, rung): labels in 0..kappa-1, local fields, energies, the mean
    energy over the kept sweeps, and the Metropolis and exchange acceptance
    rates over all sweeps."""

    labels: np.ndarray  # (D, R, N)
    fields: np.ndarray  # (D, R, kappa, N)
    energy: np.ndarray  # (D, R)
    mean_energy: np.ndarray  # (D, R)
    move_rate: np.ndarray  # (D, R)
    exchange_rate: np.ndarray  # (D, R - 1)


def _tempered_ladders(s_sum, counts, beta_grid, sweeps, burn, rngs):
    """Pair-swap Metropolis with parallel tempering, every (draw, rung) chain
    advanced at once.

    s_sum is the (D, N, N) stack of g + g^T and rngs holds one generator per
    draw.  The local fields F[c, k, i] = sum_l s_sum[i, l] 1{sigma_l = k} make
    the energy change of swapping the labels a, b of sites i, j O(1):
    sqrt(N) dH = F[b, i] - F[a, i] + F[a, j] - F[b, j] + s_ii + s_jj - 2 s_ij.
    An accepted swap moves row j - row i of s_sum between F[a] and F[b].  Each
    sweep, every draw takes its proposals (N, 2, R), Metropolis uniforms
    (N, R) and exchange uniforms (R - 1,) from its own generator, so a draw
    evolves as it would alone.  A move is accepted when
    u < exp(min(beta dH, 0)), that is u < exp(beta dH) since u < 1; then
    neighbouring rungs exchange configurations by the same rule with
    (beta_{r+1} - beta_r)(H_r - H_{r+1}).

    Configurations stay in their slots and rungs trade slots (Hukushima &
    Nemoto 1996): slot[r, d] is the slot whose labels and fields sit at rung
    r of draw d, and an exchange swaps two rungs' slots and energies, not
    their configurations.  A sweep turns its proposals into flat positions
    through the slots once.  A step then reads the labels at sites
    (j, i, i, j), which are (b, a, a, b), in one gather and the four fields of
    dH in a second, and updates labels and field rows of the accepted moves
    through 1-D indices.  Energy changes are kept per step and added to the
    energies in step order at the end of the sweep, which is where the
    exchanges first read them.
    """
    n_draw, n, _ = s_sum.shape
    kappa, n_rung = counts.size, beta_grid.size
    n_chain = n_draw * n_rung
    sqrt_n = np.sqrt(n)
    start = np.repeat(np.arange(kappa), counts)
    labels = np.concatenate([rng.permuted(np.tile(start, (n_rung, 1)), axis=1) for rng in rngs])
    one_hot = (labels[:, None, :] == np.arange(kappa)[:, None]).astype(float)
    # einsum, not a BLAS matmul: the first gemm call maps OpenBLAS's work
    # buffer, about 0.4 MB of resident memory for this one product
    fields = np.einsum("drkm,dmn->drkn", one_hot.reshape(n_draw, n_rung, kappa, n), s_sum)
    fields = fields.reshape(n_chain, kappa, n)
    energy = np.take_along_axis(fields, labels[:, None, :], axis=1).sum(axis=(1, 2)) / (2.0 * sqrt_n)
    # slot d R + r starts with rung r of draw d.  Flat views: label k at
    # site i of slot c is held as k N at flat_labels[c N + i], so that
    # fields[c, k, i] is flat_fields[c kappa N + k N + i], in row c kappa + k
    # of field_rows; s_sum[d, i, j] is s_rows[d N + i, j]
    flat_labels = (labels * n).reshape(-1)
    flat_fields, field_rows = fields.reshape(-1), fields.reshape(n_chain * kappa, n)
    flat_s, s_rows = s_sum.reshape(-1), s_sum.reshape(n_draw * n, n)
    s_diag = np.diagonal(s_sum, axis1=1, axis2=2).ravel()
    row_of = np.repeat(np.arange(n_chain * kappa), n)  # a flat field position's row
    # rung-major from here: a step's chain c is rung c // D of draw c % D,
    # and slot[r, d] the slot of rung r of draw d
    slot = np.arange(n_chain).reshape(n_draw, n_rung).T.copy()
    rung_energy = energy.reshape(n_draw, n_rung).T.copy()
    beta = np.repeat(beta_grid, n_draw)
    s_start = np.tile(np.arange(n_draw) * n, 2 * n_rung)
    d_beta = beta_grid[1:] - beta_grid[:-1]
    total = np.zeros((n_rung, n_draw))
    moves = np.zeros(n_chain, dtype=np.int64)
    exchanges = np.zeros((n_rung - 1, n_draw), dtype=np.int64)
    swapped = np.empty((n_rung - 1, n_draw), dtype=bool)
    energy_at, slot_at = list(rung_energy), list(slot)
    # a sweep's per-step rows: the acceptances twice over, which select both
    # halves of the (b, a) labels and (i, j) positions, and the energy
    # changes, after the energies at the start of the sweep (-0.0 where a
    # move was refused adds nothing to any energy)
    accepted = np.empty((n, 2 * n_chain), dtype=bool)
    accept = accepted[:, :n_chain]
    gains = np.empty((n + 1, n_chain))
    step_rows = list(zip(accepted, accept, accepted[:, n_chain:], gains[1:]))
    q0, q1, q2, q3 = (slice(q * n_chain, (q + 1) * n_chain) for q in range(4))
    with np.errstate(over="ignore"):  # exp(x) = inf for a large x still accepts
        for sweep in range(burn + sweeps):
            drawn = [(rng.integers(0, n, size=(n, 2, n_rung)), rng.random((n, n_rung)),
                      rng.random(n_rung - 1)) for rng in rngs]
            sites = np.stack([p for p, _, _ in drawn], axis=3).reshape(n, 2 * n_chain)
            uniforms = np.stack([u for _, u, _ in drawn], axis=2).reshape(n, n_chain)
            exchange_u = np.stack([x for _, _, x in drawn], axis=1)
            slots = slot.reshape(-1)
            put = sites + np.tile(slots * n, 2)  # label positions (i | j)
            field_base = slots * (kappa * n)
            field_i, field_j = sites[:, q0] + field_base, sites[:, q1] + field_base
            look = np.concatenate((put[:, q1], put[:, q0], put), axis=1)
            field_at = np.concatenate((field_i, field_i, field_j, field_j), axis=1)
            row = sites + s_start
            row_i, row_j = row[:, q0], row[:, q1]
            s_at = np.concatenate((row_j, row_i), axis=1)
            own = s_diag[row_i] + s_diag[row_j] - 2.0 * flat_s[row_i * n + sites[:, q1]]
            steps = zip(look, field_at, own, uniforms, put, s_at, step_rows)
            for look_t, field_t, own_t, u_t, put_t, s_t, (both, move, again, dh) in steps:
                seen = flat_labels[look_t]
                where = seen + field_t
                four = flat_fields[where]
                np.subtract(four[q0], four[q1], out=dh)
                dh += four[q2]
                dh -= four[q3]
                dh += own_t
                dh /= sqrt_n
                np.less(u_t, np.exp(beta * dh), out=move)
                move &= seen[q0] != seen[q1]
                again[...] = move
                sel = both.nonzero()[0]
                if sel.size:
                    m = sel.size >> 1
                    flat_labels[put_t[sel]] = seen[sel]
                    s = s_rows.take(s_t[sel], axis=0)
                    delta = s[:m] - s[m:]
                    field_sel = row_of[where[sel]]
                    f = field_rows.take(field_sel, axis=0)
                    f[:m] -= delta
                    f[m:] += delta
                    field_rows[field_sel] = f
            moves += accept.sum(axis=0)
            np.copyto(gains[1:], -0.0, where=~accept)
            gains[0] = rung_energy.reshape(-1)
            np.add.accumulate(gains, axis=0, out=gains)
            rung_energy[...] = gains[-1].reshape(n_rung, n_draw)
            for r, (u, swap) in enumerate(zip(exchange_u, swapped)):
                np.less(u, np.exp(d_beta[r] * (energy_at[r] - energy_at[r + 1])), out=swap)
                w = swap.nonzero()[0]
                if w.size:
                    for rows in (energy_at, slot_at):
                        lo, hi = rows[r], rows[r + 1]
                        held = lo[w]
                        lo[w] = hi[w]
                        hi[w] = held
            exchanges += swapped
            if sweep >= burn:
                total += rung_energy
    n_sweep = burn + sweeps
    slots = slot.T.reshape(-1)
    return _Ladders(
        labels=(flat_labels.reshape(n_chain, n)[slots] // n).reshape(n_draw, n_rung, n),
        fields=fields[slots].reshape(n_draw, n_rung, kappa, n),
        energy=rung_energy.T.copy(),
        mean_energy=total.T.copy() / sweeps,
        move_rate=moves.reshape(n_rung, n_draw).T.copy() / (n_sweep * n),
        exchange_rate=exchanges.T.copy() / n_sweep,
    )


def mcmc_free_energy(
    N,
    kappa,
    beta,
    d,
    n_disorder=8,
    n_beta=9,
    sweeps=300,
    burn=150,
    seed=0,
    threads=1,
):
    """Constrained free energy by pair-swap Metropolis with parallel tempering
    and thermodynamic integration from the exact zero-temperature-side entropy.

    Every draw's ladder runs in one batched kernel (``_tempered_ladders``),
    each from its own stream (seed, 0x3C3C, N, draw), so the report does not
    depend on ``threads``, which is accepted and not read.  Each draw's value
    is the entropy term plus the trapezoid integral over the rungs of its
    centred mean energy <H - mean_energy> / N; ``ti_simpson_gap`` is the
    trapezoid minus the Simpson integral of the draw-averaged rung energies
    (over N, on the first 2 floor((R - 1) / 2) + 1 rungs), a gauge of the
    quadrature error.  ``metropolis_acceptance`` (per rung) and
    ``exchange_acceptance`` (per rung pair) are draw averages over all burn-in
    and kept sweeps, and ``swap_acceptance`` is the mean of the latter.
    ``energy_drift`` is the largest gap between a chain's tracked energy and
    its Hamiltonian recomputed after the last sweep; above 1e-8 it is a
    warning.  More than DRAW_BUDGET cells of couplings and local fields raise
    BudgetError before any draw.
    """
    if kappa != d.kappa:
        raise ValidationError(f"d has {d.kappa} states but kappa is {kappa}")
    if n_disorder < 2:
        raise ValidationError("need at least 2 disorder draws")
    if sweeps < 1:
        raise ValidationError("sweeps must be at least 1")
    if burn < 0:
        raise ValidationError("burn must be nonnegative")
    if n_beta < 2:
        raise ValidationError("need at least 2 tempering rungs")
    cells = n_disorder * N * (N + n_beta * kappa)
    if cells > DRAW_BUDGET:
        raise BudgetError(
            f"{n_disorder} draws of {N} sites on {n_beta} rungs hold {cells} cells, above the "
            f"budget of {DRAW_BUDGET}"
        )
    counts = d.counts(N)
    beta_grid = np.linspace(0.0, beta, n_beta)
    draws = [DisorderInstance(N, seed, draw=i) for i in range(n_disorder)]
    rngs = [stream(seed, 0x3C3C, N, i) for i in range(n_disorder)]
    run = _tempered_ladders(
        np.stack([g.g + g.g.T for g in draws]), counts, beta_grid, sweeps, burn, rngs
    )
    drift = max(
        abs(run.energy[i, r] - hamiltonian(g, run.labels[i, r] + 1))
        for i, g in enumerate(draws)
        for r in range(beta_grid.size)
    )
    centre = np.array([mean_energy(g.g, kappa, counts) for g in draws])
    mean_h = run.mean_energy - centre[:, None]
    entropy = _log_multinomial(counts) / N
    values = entropy + np.trapezoid(mean_h, beta_grid, axis=1) / N
    grid_means = mean_h.mean(axis=0)
    # on an odd uniform grid Simpson is (4 T_h - T_2h) / 3, so the trapezoid
    # minus Simpson is (T_2h - T_h) / 3; an even ladder drops its last rung
    odd = beta_grid.size - 1 + beta_grid.size % 2
    y, x = grid_means[:odd], beta_grid[:odd]
    simpson_gap = (np.trapezoid(y[::2], x[::2]) - np.trapezoid(y, x)) / (3.0 * N)
    swap_rate = float(run.exchange_rate.mean())
    warnings = []
    if beta > 0 and swap_rate < 0.01:
        warnings.append(f"tempering swap acceptance {swap_rate:.4f} below 1%")
    if drift > 1e-8:
        warnings.append(f"tracked energies drifted {drift:.2e} from the Hamiltonian")
    return EvalResult(
        float(values.mean()),
        jackknife_se(values),
        "mcmc",
        {
            "n_disorder": n_disorder,
            "beta_grid": [float(b) for b in beta_grid],
            "grid_mean_energy": [float(v) for v in grid_means],
            "swap_acceptance": swap_rate,
            "metropolis_acceptance": [float(v) for v in run.move_rate.mean(axis=0)],
            "exchange_acceptance": [float(v) for v in run.exchange_rate.mean(axis=0)],
            "ti_simpson_gap": float(simpson_gap),
            "energy_drift": float(drift),
            "warnings": warnings,
            "entropy_term": entropy,
        },
    )


@dataclass(frozen=True)
class PerturbationSpec:
    """Parameters of one perturbation covariance: Hadamard power p, powers
    n_1..n_m, and direction vectors lambda^1..lambda^m in [-1, 1]^kappa."""

    p: int
    n: tuple
    lambdas: np.ndarray

    def __post_init__(self):
        if self.p < 1:
            raise ValidationError("p must be at least 1")
        n = tuple(int(v) for v in self.n)
        if len(n) < 1 or any(v < 1 for v in n):
            raise ValidationError("each n_j must be at least 1")
        lams = np.asarray(self.lambdas, dtype=float)
        if lams.ndim != 2 or lams.shape[0] != len(n):
            raise ValidationError("need one lambda vector per n_j")
        if np.max(np.abs(lams)) > 1.0 + 1e-12:
            raise ValidationError("lambda entries must lie in [-1, 1]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lambdas", freeze(lams))


def quadratic_forms(spec, R):
    """The m quadratic forms (lambda_j^T R^{hadamard p} lambda_j)."""
    hp = np.asarray(R, dtype=float) ** spec.p
    return np.array([float(lam @ hp @ lam) for lam in spec.lambdas])


def perturbation_covariance(spec, R):
    """Product over j of (lambda_j^T R^{hadamard p} lambda_j)^{n_j}."""
    return float(np.prod(quadratic_forms(spec, R) ** np.array(spec.n)))


def ass_covariance_check(N, M, kappa, n_pairs=3, n_draws=10_000, seed=0):
    """Empirical check of the cavity decomposition covariances.

    For sampled configuration pairs, verifies over fresh disorder that the
    local-field covariance is (2N/(N+M)) R, the correction-field covariance is
    (N/(N+M)) sum R^2, and the split H' + sqrt(M) Y reproduces the covariance
    of the original Hamiltonian exactly.  More than DRAW_BUDGET coupling
    samples (n_draws x N^2) raise BudgetError before any draw.
    """
    if n_draws < 100:
        raise ValidationError("need at least 100 disorder draws")
    if n_draws * N * N > DRAW_BUDGET:
        raise BudgetError(
            f"{n_draws} draws of {N} x {N} couplings exceed the budget of {DRAW_BUDGET} cells"
        )
    rng = stream(seed, 0xA55)
    pairs = [(np.ones(N, dtype=np.int64), np.ones(N, dtype=np.int64))]
    while len(pairs) < n_pairs:
        pairs.append(
            (rng.integers(1, kappa + 1, size=N), rng.integers(1, kappa + 1, size=N))
        )
    checks = []
    for idx, (s1, s2) in enumerate(pairs):
        r = overlap(s1, s2, kappa)
        draws = stream(seed, 0xA55, 1, idx)
        pair_report = {"pair": idx, "sigma1": s1.tolist(), "sigma2": s2.tolist()}
        if M > 0:
            # local fields at cavity site 1, shared couplings across replicas
            c = draws.standard_normal((n_draws, N)) + draws.standard_normal((n_draws, N))
            z1 = c @ _one_hot(s1, kappa) / np.sqrt(N + M)
            z2 = c @ _one_hot(s2, kappa) / np.sqrt(N + M)
            # (kappa, kappa, draws), contiguous: each entry's mean sums as a 1-d sample does
            prod = np.ascontiguousarray(z1.T[:, None] * z2.T[None])
            z_err = prod.mean(axis=-1) - 2.0 * N / (N + M) * r
            z_se = jackknife_se(prod)
            pair_report["z_max_error"] = float(np.max(np.abs(z_err)))
            pair_report["z_passed"] = bool(np.all(np.abs(z_err) <= 3.0 * z_se + 1e-12))
        gp = draws.standard_normal((n_draws, N * N))
        mask1 = (s1[:, None] == s1[None, :]).astype(float).ravel()
        mask2 = (s2[:, None] == s2[None, :]).astype(float).ravel()
        y1 = gp @ mask1 / np.sqrt(N * (N + M))
        y2 = gp @ mask2 / np.sqrt(N * (N + M))
        prod = y1 * y2
        y_est, y_se = float(prod.mean()), jackknife_se(prod)
        target_y = N / (N + M) * float(np.sum(r**2))
        pair_report["y_estimate"] = y_est
        pair_report["y_target"] = target_y
        pair_report["y_passed"] = bool(abs(y_est - target_y) <= 3.0 * y_se + 1e-12)
        # exact covariance identity of the split: N sum R^2 on both sides
        lhs = N * float(np.sum(r**2))
        rhs = N**2 / (N + M) * float(np.sum(r**2)) + M * target_y
        pair_report["split_identity_residual"] = abs(lhs - rhs)
        checks.append(pair_report)
    passed = all(
        c.get("z_passed", True) and c["y_passed"] and c["split_identity_residual"] <= 1e-10
        for c in checks
    )
    return {"N": N, "M": M, "kappa": kappa, "n_draws": n_draws, "pairs": checks, "passed": passed}

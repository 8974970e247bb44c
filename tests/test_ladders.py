"""The tempered Metropolis kernel against the one it replaced.

``oracle_tempered_ladders`` is the former ``model._tempered_ladders``,
kept verbatim: it moves configurations between rungs on exchange and
updates labels, fields and energies step by step.  The kernel in use keeps
configurations in slots and does the same floating-point operations in the
same order, so every ``_Ladders`` field must come out bit for bit equal, in
the same dtype and memory layout (the draw averages of ``mcmc_free_energy``
reduce over the draw axis, whose summation order follows the layout).
"""

import numpy as np
import pytest

from pottsglass.model import DisorderInstance, _Ladders, _tempered_ladders
from pottsglass.util import stream


def oracle_tempered_ladders(s_sum, counts, beta_grid, sweeps, burn, rngs):
    """The kernel as it was before configurations stayed in slots: every
    exchange copies labels, fields and energies between rungs, and each
    step indexes its fields with eight 1-D sums and gathers."""
    n_draw, n, _ = s_sum.shape
    kappa, n_rung = counts.size, beta_grid.size
    n_chain = n_draw * n_rung
    chain = np.arange(n_chain)
    draw = chain // n_rung
    beta = np.tile(beta_grid, n_draw)
    sqrt_n = np.sqrt(n)
    start = np.repeat(np.arange(kappa), counts)
    labels = np.concatenate([rng.permuted(np.tile(start, (n_rung, 1)), axis=1) for rng in rngs])
    one_hot = (labels[:, None, :] == np.arange(kappa)[:, None]).astype(float)
    # einsum, not a BLAS matmul: the first gemm call maps OpenBLAS's work
    # buffer, about 0.4 MB of resident memory for this one product
    fields = np.einsum("drkm,dmn->drkn", one_hot.reshape(n_draw, n_rung, kappa, n), s_sum)
    fields = fields.reshape(n_chain, kappa, n)
    energy = np.take_along_axis(fields, labels[:, None, :], axis=1).sum(axis=(1, 2)) / (2.0 * sqrt_n)
    # flat views: labels[c, i] is flat_labels[c N + i], fields[c, k, i] is
    # flat_fields[c kappa N + k N + i] = field_rows[c kappa + k, i], and
    # s_sum[d, i, j] is s_rows[d N + i, j]
    flat_labels, flat_fields = labels.reshape(-1), fields.reshape(-1)
    field_rows, s_rows = fields.reshape(n_chain * kappa, n), s_sum.reshape(n_draw * n, n)
    label_start, field_start, s_start = chain * n, chain * (kappa * n), draw * n
    label_offset = np.arange(kappa) * n
    s_diag = np.diagonal(s_sum, axis1=1, axis2=2).ravel()
    rung_labels = labels.reshape(n_draw, n_rung, n)
    rung_fields = fields.reshape(n_draw, n_rung, kappa, n)
    rung_energy = energy.reshape(n_draw, n_rung)
    total = np.zeros((n_draw, n_rung))
    moves = np.zeros(n_chain, dtype=np.int64)
    exchanges = np.zeros((n_draw, n_rung - 1), dtype=np.int64)
    for sweep in range(burn + sweeps):
        drawn = [(rng.integers(0, n, size=(n, 2, n_rung)), rng.random((n, n_rung)),
                  rng.random(n_rung - 1)) for rng in rngs]
        pairs = np.stack([p for p, _, _ in drawn], axis=2).reshape(n, 2, n_chain)
        uniforms = np.stack([u for _, u, _ in drawn], axis=1).reshape(n, n_chain)
        exchange_u = np.stack([x for _, _, x in drawn])
        site_i, site_j = pairs[:, 0], pairs[:, 1]
        at_i, at_j = label_start + site_i, label_start + site_j
        field_i, field_j = field_start + site_i, field_start + site_j
        row_i, row_j = s_start + site_i, s_start + site_j
        own = s_diag[row_i] + s_diag[row_j] - 2.0 * s_rows[row_i, site_j]
        for t in range(n):
            a, b = flat_labels[at_i[t]], flat_labels[at_j[t]]
            an, bn = label_offset[a], label_offset[b]
            fi, fj = field_i[t], field_j[t]
            dh = (flat_fields[fi + bn] - flat_fields[fi + an] + flat_fields[fj + an]
                  - flat_fields[fj + bn] + own[t]) / sqrt_n
            move = (uniforms[t] < np.exp(np.minimum(beta * dh, 0.0))) & (a != b)
            moves += move
            c = move.nonzero()[0]
            if c.size:
                ac, bc = a[c], b[c]
                flat_labels[at_i[t][c]] = bc
                flat_labels[at_j[t][c]] = ac
                delta = s_rows[row_j[t][c]] - s_rows[row_i[t][c]]
                field_rows[c * kappa + ac] += delta
                field_rows[c * kappa + bc] -= delta
                energy[c] += dh[c]
        for r in range(n_rung - 1):
            log_acc = (beta_grid[r + 1] - beta_grid[r]) * (rung_energy[:, r] - rung_energy[:, r + 1])
            swap = exchange_u[:, r] < np.exp(np.minimum(log_acc, 0.0))
            exchanges[:, r] += swap
            for arr in (rung_labels, rung_fields, rung_energy):
                neighbours = arr[:, r : r + 2]
                neighbours[swap] = neighbours[swap, ::-1]
        if sweep >= burn:
            total += rung_energy
    n_sweep = burn + sweeps
    return _Ladders(
        labels=rung_labels,
        fields=rung_fields,
        energy=rung_energy,
        mean_energy=total / sweeps,
        move_rate=moves.reshape(n_draw, n_rung) / (n_sweep * n),
        exchange_rate=exchanges / n_sweep,
    )


FIELDS = ("labels", "fields", "energy", "mean_energy", "move_rate", "exchange_rate")
# (kappa, counts): kappa = 2 and 3, and a type class whose middle label is empty
CLASSES = [(2, (4, 3)), (3, (4, 3, 3)), (3, (5, 0, 4))]


def run(kernel, counts, n_rung, burn, draws, seed=11, beta=1.3, sweeps=6):
    """A kernel on the draws of (seed, N) with the streams mcmc_free_energy
    gives them, over the beta grid from 0 to beta."""
    n = sum(counts)
    g = np.stack([DisorderInstance(n, seed, draw=i).g for i in draws])
    rngs = [stream(seed, 0x3C3C, n, i) for i in draws]
    return kernel(g + g.transpose(0, 2, 1), np.asarray(counts), np.linspace(0.0, beta, n_rung),
                  sweeps, burn, rngs)


@pytest.mark.parametrize("draws", [range(1), range(3)], ids=["1-draw", "3-draws"])
@pytest.mark.parametrize("burn", [0, 5])
@pytest.mark.parametrize("n_rung", [2, 4, 9])
@pytest.mark.parametrize("kappa,counts", CLASSES, ids=["k2", "k3", "k3-empty-label"])
def test_ladders_are_the_oracle_bit_for_bit(kappa, counts, n_rung, burn, draws):
    new = run(_tempered_ladders, counts, n_rung, burn, draws)
    old = run(oracle_tempered_ladders, counts, n_rung, burn, draws)
    for name in FIELDS:
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.flags.c_contiguous == b.flags.c_contiguous, name
        assert np.array_equal(a, b), name
        assert a.tobytes() == b.tobytes(), name
    # moves and exchanges were both accepted and refused, so the comparison
    # covered every branch
    assert np.any(new.move_rate > 0) and np.any(new.move_rate < 1)
    assert np.any(new.exchange_rate > 0) and np.any(new.exchange_rate < 1)

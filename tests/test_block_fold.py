"""The block fold of the deepest cascade level against an in-memory fold.

The reference below folds every level from whole arrays, as the package did
before the deepest level was streamed.  The block fold must give the same
bits for any block size: blocks of a single parent, blocks that do not
divide the K**(r-1) parents, and blocks whose leaves are not a multiple of
8 (so BLAS rounds the edge columns of a per-block `factor @ z` as it rounds
them in one whole product, or the test fails).  The leaf budget and the
memory bound of a replicate are checked here too.
"""

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from conftest import lone_replicate_streams, random_path, rng_state, seeded
from pottsglass import cascade
from pottsglass.cascade import (
    CascadeSpec,
    _pd_weights,
    cascade_values,
    config_field_sum,
    level_factors,
    level_field_source,
    sample_cascade,
    sample_level_fields,
)
from pottsglass.cli import main
from pottsglass.core import MonotonePath, StateDistribution
from pottsglass.diagnostics import interpolation_curve
from pottsglass.functional import eval_phi_cascade_mc
from pottsglass.util import BudgetError, logsumexp, stack_streams, stream

LEVELS = {1: (0.4,), 2: (0.3, 0.7), 3: (0.2, 0.5, 0.8)}
# parents per block: one, two shapes that divide neither 7**(r-1) nor
# 13**(r-1), and one block for the whole level
STEPS = (1, 3, 5, 10_000)


def reference_fold(log_atoms, terms):
    """Entry q is (..., K**q): per depth-q node, the log-sum-exp over the
    leaves below it of the atoms and terms, every level from whole arrays."""
    sums = [None] * len(log_atoms)
    for p in range(len(log_atoms) - 1, -1, -1):
        log_w = t = log_atoms[p]
        if p + 1 < len(sums):
            t = sums[p + 1].reshape(sums[p + 1].shape[:-1] + log_w.shape) + t
        if terms[p] is not None:
            t = terms[p].reshape(terms[p].shape[:-1] + log_w.shape) + t
        top = t.max(axis=-1, keepdims=True)
        shifted = t - top
        sums[p] = np.log(np.exp(shifted, out=shifted).sum(axis=-1)) + top[..., 0]
    return sums


def reference_log_mean_exp(sample, terms):
    """The normalized fold of a stack of one, for terms with no replicate axis."""
    atoms = [log_w[0] for log_w in sample.log_atoms]
    log_norm = reference_fold(atoms, [None] * sample.r)[0][0]
    return reference_fold(atoms, terms)[0][..., 0] - log_norm


def reference_replicate(rng, spec, cov_inc, configs, lam_term, beta):
    sample = sample_cascade(spec, rng)
    fields = sample_level_fields(sample, level_factors(cov_inc), rng, n_copies=configs.shape[1])
    per_conf = reference_log_mean_exp(sample, [beta * config_field_sum(g[0], configs) for g in fields])
    return float(logsumexp(lam_term + per_conf) / configs.shape[1])


def set_step(monkeypatch, step, rows, k):
    """Blocks of `step` parents for terms with `rows` leading cells."""
    monkeypatch.setattr(cascade, "FOLD_BLOCK_CELLS", step * rows * k)


def covariances(rng, kappa, r):
    return [a @ a.T for a in (0.5 * rng.standard_normal((r, kappa, kappa)))]


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("kappa", [2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_replicate_is_bitwise_the_in_memory_fold(r, kappa, m, step, monkeypatch):
    k = 7 if r == 3 else 13
    rng = seeded(51, r, kappa, m)
    spec = CascadeSpec(LEVELS[r], atoms_per_level=k)
    cov_inc = covariances(rng, kappa, r)
    configs = np.array(list(itertools.product(range(kappa), repeat=m)))
    lam_term = rng.uniform(-1.0, 1.0, size=configs.shape[0])
    set_step(monkeypatch, step, configs.shape[0], k)
    blocked = lone_replicate_streams(monkeypatch)
    values = cascade_values(0xB10C, configs, lam_term, level_factors(cov_inc), 1.3, spec, 2, 51, 1)
    for i in range(2):
        whole = stream(51, 0xB10C, k, i)
        assert values[i] == reference_replicate(whole, spec, cov_inc, configs, lam_term, 1.3)
        assert rng_state(blocked[i]) == rng_state(whole)


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_scalar_y_path_is_bitwise_the_in_memory_fold(r, step, monkeypatch):
    d = StateDistribution(np.array([0.5, 0.3, 0.2]))
    path = random_path(seeded(52, r), d, r)
    k, reps, scale_n, beta = 6, 3, 5, 1.2
    set_step(monkeypatch, step, 1, k)
    spec = CascadeSpec(tuple(path.inner_x), k)
    var_inc = path.hs_increments()[:, None, None]
    values = []
    for i in range(reps):
        rng = stream(8, 0x11D, k, i)
        sample = sample_cascade(spec, rng)
        y = sample_level_fields(sample, level_factors(var_inc), rng)
        terms = [beta * np.sqrt(scale_n) * g[0, 0, 0] for g in y]
        values.append(float(reference_log_mean_exp(sample, terms) / scale_n))
    est, _ = cascade._y_estimate(path, beta, scale_n, reps, k, 8, 1)
    assert est == np.asarray(values).mean()


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("r", [2, 3])
def test_array_terms_and_masses_are_bitwise_the_in_memory_fold(r, step, monkeypatch):
    k = 7
    rng = seeded(53, r)
    sample = sample_cascade(CascadeSpec(LEVELS[r], atoms_per_level=k), rng)
    terms = [rng.normal(0.0, 3.0, size=(1, 2, 3, k ** (p + 1))) for p in range(r)]
    set_step(monkeypatch, step, 6, k)
    got = sample.log_mean_exp(terms)
    assert np.array_equal(got[0], reference_log_mean_exp(sample, [t[0] for t in terms]))
    # a second fold in the sample's buffers gives the same bits
    assert np.array_equal(sample.log_mean_exp(terms), got)
    fresh = sample_cascade(CascadeSpec(LEVELS[r], atoms_per_level=k), seeded(53, r))
    atoms = [log_w[0] for log_w in fresh.log_atoms]
    mass = reference_fold(atoms, [None] * r) + [None]
    subtree_sq = [1.0]
    for q in range(1, r + 1):
        doubled = [2.0 * log_w for log_w in atoms[:q]]
        bottom = None if mass[q] is None else 2.0 * mass[q]
        folded = reference_fold(doubled, [None] * (q - 1) + [bottom])[0][0]
        subtree_sq.append(float(np.exp(folded - 2.0 * mass[0][0])))
    a = np.asarray(subtree_sq)
    assert np.array_equal(fresh.pair_coincidence_masses()[0], np.append(-np.diff(a), a[-1]))


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("stack", [1, 2, 7])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_sample_masses_are_bitwise_the_in_memory_fold(r, stack, step, monkeypatch):
    # blocks of `step` parents for the stack, of `stack` times as many alone
    k = 7 if r == 3 else 13
    spec = CascadeSpec(LEVELS[r], atoms_per_level=k)
    set_step(monkeypatch, step, stack, k)
    sample = sample_cascade(spec, stack_streams(range(stack), 58, r))
    assert len(sample.log_mass) == r
    for j in range(stack):
        atoms = [log_w[j] for log_w in sample.log_atoms]
        alone = sample_cascade(spec, stack_streams([j], 58, r))
        for q, expected in enumerate(reference_fold(atoms, [None] * r)):
            assert np.array_equal(sample.log_mass[q][j], expected)
            assert np.array_equal(alone.log_mass[q][0], expected)


def test_interpolation_curve_does_not_depend_on_the_block(monkeypatch):
    d = StateDistribution(np.array([0.5, 0.5]))
    path = random_path(seeded(54, 0), d, 2)
    args = (4, 2, d, 1.1, path, [0.0, 0.4, 1.0])
    reports = []
    for cells in (1, 10**9):
        monkeypatch.setattr(cascade, "FOLD_BLOCK_CELLS", cells)
        reports.append(interpolation_curve(*args, reps=3, atoms_per_level=9, seed=6))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("dim", [1, 3])
def test_field_blocks_equal_one_whole_draw(dim, m):
    # K = 400, r = 2: the whole level is one 3 x 160,000 product per copy,
    # past the size where OpenBLAS leaves its small-matrix kernels
    k = 400
    sample = sample_cascade(CascadeSpec(LEVELS[2], atoms_per_level=k), seeded(55, 0))
    covs = covariances(seeded(55, 1), dim, 2)
    whole_rng, blocked_rng = seeded(55, 2, dim, m), seeded(55, 2, dim, m)
    whole = sample_level_fields(sample, level_factors(covs), whole_rng, n_copies=m)
    upper, deepest = level_field_source(sample, level_factors(covs), blocked_rng, n_copies=m)
    assert np.array_equal(upper[0], whole[0])
    edges = [0, 1, 4, 11, 50, 123, 300, k]
    blocks = [deepest(lo, hi) for lo, hi in zip(edges, edges[1:])]
    assert np.array_equal(np.concatenate(blocks, axis=-1), whole[1])
    assert rng_state(blocked_rng) == rng_state(whole_rng)
    plain = seeded(55, 3)
    draws = plain.standard_normal(10_007)
    chunked = seeded(55, 3)
    parts = [chunked.standard_normal(n) for n in (1, 8, 999, 4096, 4903)]
    assert np.array_equal(np.concatenate(parts), draws)
    assert rng_state(chunked) == rng_state(plain)


@pytest.mark.parametrize("zeta", [0.02, 0.5, 0.97])
def test_atoms_built_in_place_are_bitwise_the_formula(zeta):
    got = _pd_weights(seeded(56, 0), zeta, 5, 300)
    gamma = np.cumsum(seeded(56, 0).standard_exponential(size=(5, 300)), axis=1)
    log_w = -np.log(gamma) / zeta
    assert np.array_equal(got, log_w - log_w.max())


class TestLeafBudget:
    def test_r3_at_k200_is_allowed(self):
        assert CascadeSpec(LEVELS[3], atoms_per_level=200).r == 3

    def test_too_many_leaves_raise(self):
        with pytest.raises(BudgetError, match="cascade leaves"):
            CascadeSpec(LEVELS[2], atoms_per_level=20_000)
        with pytest.raises(BudgetError):
            CascadeSpec(tuple(np.linspace(0.1, 0.9, 24)), atoms_per_level=2)

    def test_cli_exits_3_before_any_draw(self, capsys):
        # a 20,000 x 20,000 level of atoms would take 3.2 GB
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code = main(["cascade-verify", "--atoms", "20000"])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "cascade leaves" in capsys.readouterr().err
        assert peak < 4 * 2**20
        assert elapsed < 5.0

    def test_the_2k_pass_is_checked_before_the_first(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew a cascade")

        monkeypatch.setattr(cascade, "sample_cascade", refuse)
        path = MonotonePath.one_step(StateDistribution.uniform(2), 0.5)
        with pytest.raises(BudgetError):
            cascade.verify_y_identity(path, 1.0, atoms_per_level=cascade.MAX_LEAVES // 2 + 1)


def test_replicate_memory_is_bounded():
    # one r = 3, K = 100 replicate held its 1M-leaf fields, terms and fold
    # temporaries at once (a 101 MB traced peak); the block fold keeps the
    # deepest atoms (8 MB) and one block
    d = StateDistribution.uniform(3)
    path = random_path(seeded(57, 0), d, 3)
    tracemalloc.start()
    try:
        res = eval_phi_cascade_mc([0.1, -0.2], path, 1.0, reps=3, atoms_per_level=100, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(res.value)
    assert peak <= 20 * 2**20

"""The tree fold against the explicit leaf-array formula it replaced.

The oracle builds every (K**r, copies, dim) leaf field with np.repeat and
the normalized leaf weights, then takes one log-sum-exp over all leaves.
The fold must give the same values to rounding, with no nan or inf even
when x is small and the atoms span a huge range, and it must leave the
generator where the oracle leaves it: the same draws in the same order.
"""

import itertools

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import lone_replicate_streams, random_path, rng_state, seeded
from pottsglass import cascade
from pottsglass.cascade import CascadeSpec, cascade_values, level_factors, sample_cascade
from pottsglass.core import MonotonePath, StateDistribution, psd_factor
from pottsglass.diagnostics import interpolation_curve
from pottsglass.model import DisorderInstance, config_energies, enumerate_configs, mean_energy
from pottsglass.util import jackknife_se, stream

LEVELS = {1: [(0.02,), (0.5,)], 2: [(0.02, 0.05), (0.3, 0.7)], 3: [(0.02, 0.3, 0.9), (0.2, 0.5, 0.8)]}
CASES = [(x, kappa, m) for r in (1, 2, 3) for x in LEVELS[r] for kappa in (1, 2, 3) for m in (1, 3)]


def oracle_log_leaf_weights(spec, rng):
    """Atoms level by level, then the log of the normalized leaf products."""
    k = spec.atoms_per_level
    log_leaf = np.zeros(1)
    for p in range(spec.r):
        gamma = np.cumsum(rng.standard_exponential(size=(k**p, k)), axis=1)
        log_w = -np.log(gamma) / spec.x[p]
        log_leaf = (log_leaf[:, None] + log_w - log_w.max()).reshape(-1)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(log_leaf - logsumexp(log_leaf)))


def oracle_leaf_fields(spec, covs, rng, n_copies):
    """(K**r, n_copies, dim) leaf fields: each level's draws repeated down."""
    k, r = spec.atoms_per_level, spec.r
    dim = np.asarray(covs[0]).shape[0]
    total = np.zeros((k**r, n_copies, dim))
    for p in range(1, r + 1):
        _, factor = psd_factor(np.asarray(covs[p - 1], dtype=float))
        g = rng.standard_normal((k**p, n_copies, dim)) @ factor.T
        total += np.repeat(g, k ** (r - p), axis=0)
    return total


def oracle_replicate(rng, spec, covs, configs, lam_term, beta):
    log_v = oracle_log_leaf_weights(spec, rng)
    m = configs.shape[1]
    z = oracle_leaf_fields(spec, covs, rng, m)
    fields = sum(z[:, i, configs[:, i]] for i in range(m))
    return logsumexp(log_v[:, None] + beta * fields + lam_term[None, :]) / m


def random_covariances(rng, kappa, r):
    covs = []
    for _ in range(r):
        a = rng.standard_normal((kappa, kappa)) * 0.5
        covs.append(a @ a.T)
    return covs


@pytest.mark.parametrize("x,kappa,m", CASES)
def test_replicate_matches_leaf_arrays(x, kappa, m, monkeypatch):
    rng = seeded(41, len(x), kappa, m)
    spec = CascadeSpec(x, atoms_per_level=7)
    covs = random_covariances(rng, kappa, len(x))
    configs = np.array(list(itertools.product(range(kappa), repeat=m)))
    lam_term = rng.uniform(-1.0, 1.0, size=configs.shape[0])
    folded = lone_replicate_streams(monkeypatch)
    values = cascade_values(0xF01D, configs, lam_term, level_factors(covs), 1.3, spec, 3, 41, 1)
    for i, value in enumerate(values):
        oracle_rng = stream(41, 0xF01D, spec.atoms_per_level, i)
        expected = oracle_replicate(oracle_rng, spec, covs, configs, lam_term, 1.3)
        assert np.isfinite(value)
        assert value == pytest.approx(expected, rel=1e-12)
        assert rng_state(folded[i]) == rng_state(oracle_rng)


@pytest.mark.parametrize("x", [x for r in (1, 2, 3) for x in LEVELS[r]])
def test_log_mean_exp_matches_leaf_arrays(x):
    # arbitrary per-level terms with two leading rows, against the leaf sums
    k, r = 5, len(x)
    spec = CascadeSpec(x, atoms_per_level=k)
    rng = seeded(42, r, int(100 * x[0]))
    sample = sample_cascade(spec, rng)
    terms = [rng.normal(0.0, 3.0, size=(2, k ** (p + 1))) for p in range(r)]
    leaf_terms = sum(np.repeat(t, k ** (r - 1 - p), axis=1) for p, t in enumerate(terms))
    log_v = oracle_log_leaf_weights(spec, seeded(42, r, int(100 * x[0])))
    expected = logsumexp(log_v + leaf_terms, axis=1)
    got = sample.log_mean_exp(terms)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("x", [x for r in (1, 2, 3) for x in LEVELS[r]])
def test_coincidence_masses_match_leaf_weights(x):
    k, r = 6, len(x)
    spec = CascadeSpec(x, atoms_per_level=k)
    sample = sample_cascade(spec, seeded(43, r, int(100 * x[0])))
    w = np.exp(oracle_log_leaf_weights(spec, seeded(43, r, int(100 * x[0]))))
    subtree_sq = [float(np.sum(w.reshape(k**p, -1).sum(axis=1) ** 2)) for p in range(r + 1)]
    expected = np.append(-np.diff(subtree_sq), subtree_sq[-1])
    masses = sample.pair_coincidence_masses()[0]
    assert np.all(np.isfinite(masses))
    np.testing.assert_allclose(masses, expected, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("x0", [0.02, 0.4])
def test_y_estimate_matches_leaf_arrays(x0):
    d = StateDistribution(np.array([0.6, 0.4]))
    path = MonotonePath.one_step(d, x0)
    var_inc = path.hs_increments()[:, None, None]
    spec = CascadeSpec(tuple(path.inner_x), 9)
    values = []
    for i in range(4):
        rng = stream(3, 0x11D, 9, i)
        log_v = oracle_log_leaf_weights(spec, rng)
        y = oracle_leaf_fields(spec, var_inc, rng, 1)[:, 0, 0]
        values.append(logsumexp(log_v + 1.2 * np.sqrt(5) * y) / 5)
    est, se = cascade._y_estimate(path, 1.2, 5, 4, 9, 3, 1)
    assert est == pytest.approx(np.mean(values), rel=1e-12)
    assert se == pytest.approx(jackknife_se(values), rel=1e-9)


def test_interpolation_curve_matches_leaf_arrays():
    n, kappa, beta, reps, k = 4, 2, 1.1, 3, 8
    d = StateDistribution(np.array([0.5, 0.5]))
    path = random_path(seeded(44, 0), d, 2)
    t_grid = [0.0, 0.4, 1.0]
    report = interpolation_curve(n, kappa, d, beta, path, t_grid, reps=reps, atoms_per_level=k, seed=6)
    counts = d.counts(n)
    configs = enumerate_configs(n, kappa, counts)
    spec = CascadeSpec(tuple(path.inner_x), k)
    rows = []
    for i in range(reps):
        g = DisorderInstance(n, 6, draw=i)
        draws = stream(6, 0x17E, i)
        log_v = oracle_log_leaf_weights(spec, draws)
        z = oracle_leaf_fields(spec, path.increment_covariances(), draws, n)
        y = oracle_leaf_fields(spec, path.hs_increments()[:, None, None], draws, 1)[:, 0, 0]
        h = config_energies(configs, g.g) - mean_energy(g.g, kappa, counts)
        zterm = sum(z[:, j, configs[:, j] - 1] for j in range(n))
        rows.append([
            logsumexp(log_v[:, None] + beta * (
                np.sqrt(t) * h[None, :] + np.sqrt(1.0 - t) * zterm + np.sqrt(t) * np.sqrt(n) * y[:, None]
            )) / n
            for t in t_grid
        ])
    np.testing.assert_allclose(report["estimates"], np.mean(rows, axis=0), rtol=1e-12)

"""Replicate groups and leaves drawn down the tree.

A replicate's value must be the same bits whether it runs alone or stacked
with others, in groups of 2, 7 or all replicates, and on one thread or two:
each replicate reads only its own keyed stream, and every reduction runs
over one replicate's row.  The leaves that sample_overlap_array draws by
inverse CDF down the tree must be the leaves rng.choice draws from the
explicit K**r leaf weights, from the same uniforms.
"""

import itertools

import numpy as np
import pytest

from conftest import random_path, rng_state, seeded
from test_fold import LEVELS, oracle_log_leaf_weights
from pottsglass import cascade, diagnostics, functional, util
from pottsglass.cascade import CascadeSpec, cascade_values, level_factors, sample_cascade, sample_overlap_array
from pottsglass.core import StateDistribution, hs_increments

REPS = 9
# all replicates in one stack, then stacks of 7, 2 and 1; the last on the pool
# of two threads, which runs only replicates that are not stacked
GROUPINGS = [(REPS, 1), (7, 1), (2, 1), (1, 1), (1, 2)]
ATOMS = {1: 11, 2: 6, 3: 4}


def per_replicate(monkeypatch, module, call):
    """Each grouping's per-replicate values of call(), which runs one
    map_groups of `module`, with the stack size forced."""
    out = []
    for stack, threads in GROUPINGS:
        seen = []

        def forced(fn, n, _threads=1, _stack=1, stack=stack, threads=threads):
            values = util.map_groups(fn, n, threads, stack)
            seen.append(np.asarray(values))
            return values

        monkeypatch.setattr(module, "map_groups", forced)
        call()
        (values,) = seen
        assert values.shape[0] == REPS
        out.append(values)
    return out


def assert_same_bits(tables):
    for table in tables[1:]:
        assert table.tobytes() == tables[0].tobytes()


def path_of(r, kappa=2):
    d = StateDistribution(np.array([0.6, 0.4]) if kappa == 2 else np.array([0.5, 0.3, 0.2]))
    return random_path(seeded(71, r, kappa), d, r)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 3])
def test_cascade_average_replicates_do_not_depend_on_the_group(r, m, monkeypatch):
    path = path_of(r, kappa=3)
    # 27 rows at m = 3: a reduction over them that does not add each row
    # as it would alone shows in the last bits
    configs = np.array(list(itertools.product([1, 2, 3], repeat=m)))
    tables = per_replicate(monkeypatch, cascade, lambda: functional.eval_f1_restricted(
        configs, [0.2, -0.1], path, 0.9, reps=REPS, atoms_per_level=ATOMS[r], seed=4,
    ))
    assert_same_bits(tables)
    assert np.all(np.isfinite(tables[0]))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_y_estimate_replicates_do_not_depend_on_the_group(r, monkeypatch):
    path = path_of(r)
    tables = per_replicate(
        monkeypatch, cascade, lambda: cascade._y_estimate(path, 1.1, 3, REPS, ATOMS[r], 5, 1)
    )
    assert_same_bits(tables)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_y_identity_replicates_are_the_one_site_kernel(r, monkeypatch):
    # the Y field's average is the one-site f^1 average: configs [[0]], no
    # lambda-term, the scalar HS increments and beta sqrt(N), divided by N
    path, beta, n, k = path_of(r), 1.1, 3, ATOMS[r]
    seen = []

    def recorded(fn, reps, threads, stack):
        values = util.map_groups(fn, reps, threads, stack)
        seen.append(np.asarray(values))
        return values

    monkeypatch.setattr(cascade, "map_groups", recorded)
    report = cascade.verify_y_identity(path, beta, scale_N=n, reps=REPS, atoms_per_level=k, seed=5)
    monkeypatch.undo()
    assert len(seen) == 2  # the K pass, then the 2K pass
    factors = level_factors(hs_increments(path.gammas)[:, None, None])
    for atoms, values, name in zip((k, 2 * k), seen, ("", "_2k")):
        scalar = cascade_values(
            0x11D, np.zeros((1, 1), dtype=np.int64), 0.0, factors, beta * np.sqrt(n),
            CascadeSpec(tuple(path.inner_x), atoms), REPS, 5, 1,
        )
        assert values.tobytes() == scalar.tobytes()
        assert report["estimate" + name] == float(np.mean(scalar / n))
        assert report["std_error" + name] == util.jackknife_se(scalar / n)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_coincidence_masses_do_not_depend_on_the_group(r, monkeypatch):
    spec = CascadeSpec(LEVELS[r][1], ATOMS[r])
    tables = per_replicate(monkeypatch, cascade, lambda: cascade.coincidence_masses(spec, REPS, seed=6))
    assert_same_bits(tables)
    assert tables[0].shape == (REPS, r + 1)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_interpolation_rows_do_not_depend_on_the_group(r, monkeypatch):
    d = StateDistribution(np.array([0.5, 0.5]))
    path = random_path(seeded(72, r), d, r)
    tables = per_replicate(monkeypatch, diagnostics, lambda: diagnostics.interpolation_curve(
        4, 2, d, 1.1, path, [0.0, 0.5, 1.0], reps=REPS, atoms_per_level=ATOMS[r], seed=7,
    ))
    assert_same_bits(tables)
    assert tables[0].shape == (REPS, 4)


@pytest.mark.parametrize("x", [x for r in (1, 2, 3) for x in LEVELS[r]])
def test_leaves_down_the_tree_are_the_choice_leaves(x):
    r = len(x)
    k = {1: 40, 2: 9, 3: 5}[r]
    spec = CascadeSpec(x, atoms_per_level=k)
    for c in range(200):
        sample = sample_cascade(spec, seeded(73, r, c))
        weights = np.exp(oracle_log_leaf_weights(spec, seeded(73, r, c)))
        ours, theirs = seeded(74, c), seeded(74, c)
        leaves = sample.draw_leaves(ours.random(6))
        np.testing.assert_array_equal(leaves, theirs.choice(k**r, size=6, p=weights))
        assert rng_state(ours) == rng_state(theirs)


def test_overlap_array_reads_the_choice_leaves():
    spec = CascadeSpec((0.3, 0.6), atoms_per_level=10)
    q = np.array([0.0, 0.25, 0.5])
    for c in range(20):
        sample = sample_cascade(spec, seeded(75, c))
        ours, theirs = seeded(76, c), seeded(76, c)
        arr = sample_overlap_array(sample, q, lambda t: t * np.eye(2), 5, ours)
        weights = np.exp(oracle_log_leaf_weights(spec, seeded(75, c)))
        leaves = theirs.choice(100, size=5, p=weights)
        np.testing.assert_array_equal(arr.traces, q[sample.common_depth(leaves)])
        assert rng_state(ours) == rng_state(theirs)

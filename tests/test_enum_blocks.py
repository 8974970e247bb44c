"""Streamed exact enumeration: configuration blocks, label orbits, stacked
one-hot energies and the memory they hold.

ConfigBlocks grows the configurations of a class in blocks, optionally one
row per label orbit with its orbit size as weight; enumerate_free_energy
folds log Z block by block over groups of stacked draws.  The checks here
are against independent oracles: itertools for the class, canonical
relabellings for the orbits, and config_energies over the whole class for
log Z.
"""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from pottsglass import model
from pottsglass.core import StateDistribution
from pottsglass.model import (
    ENUM_CELLS,
    ConfigBlocks,
    DisorderInstance,
    _block_energies,
    _grid_levels,
    config_energies,
    enumerate_configs,
    enumerate_free_energy,
    hamiltonian,
    mean_energy,
)
from pottsglass.util import BudgetError, logsumexp

# (N, kappa, counts): the cases of test_constrained_matches_filtered_product,
# a free set, a single site and a type class with empty states
CLASSES = [
    (4, 2, [2, 2]), (9, 3, [3, 3, 3]), (12, 2, [6, 6]), (6, 3, [1, 2, 3]),
    (5, 3, None), (1, 2, None), (1, 3, [0, 1, 0]), (5, 4, [0, 2, 0, 3]),
]
CLASS_IDS = ["4-22", "9-333", "12-66", "6-123", "5-free3", "1-free2", "1-010", "5-0203"]


def product_rows(N, kappa, counts):
    """Every label vector of the class, in itertools.product order."""
    rows = itertools.product(range(1, kappa + 1), repeat=N)
    if counts is not None:
        rows = (c for c in rows if all(c.count(k + 1) == counts[k] for k in range(kappa)))
    return np.asarray(list(rows), dtype=np.int64).reshape(-1, N)


def canonical(row, kappa, counts):
    """The orbit representative of a label row: within each set of
    interchangeable states (all states for the free set, states of equal
    positive count otherwise) the states take that set's labels in the order
    in which they first appear."""
    if counts is None:
        tied = [list(range(1, kappa + 1))]
    else:
        tied = [[k + 1 for k in range(kappa) if counts[k] == c] for c in sorted(set(counts) - {0})]
    relabel = {}
    for states in tied:
        seen = list(dict.fromkeys(v for v in row if v in states))
        relabel.update(zip(seen, states))
    return tuple(relabel.get(v, v) for v in row)


def dist(counts):
    c = np.asarray(counts, dtype=float)
    return StateDistribution(c / c.sum())


class TestBlocks:
    @pytest.mark.parametrize("rows", [1, 7, None], ids=["rows1", "rows7", "default"])
    @pytest.mark.parametrize("N,kappa,counts", CLASSES, ids=CLASS_IDS)
    def test_blocks_concatenate_to_the_class(self, N, kappa, counts, rows):
        blocks = ConfigBlocks(N, kappa, counts, rows=rows)
        parts = list(blocks)
        assert all(1 <= b.shape[0] <= blocks.rows for b in parts)
        assert all(b.dtype == np.int64 for b in parts)
        whole = np.concatenate(parts)
        assert np.array_equal(whole, product_rows(N, kappa, counts))
        assert np.array_equal(whole, enumerate_configs(N, kappa, counts))
        assert blocks.size == whole.shape[0]
        # a second pass yields the same blocks
        assert all(np.array_equal(a, b) for a, b in zip(parts, blocks))

    def test_default_rows_follow_the_cell_budget(self):
        assert ConfigBlocks(12, 3, [4, 4, 4]).rows == ENUM_CELLS // 12

    def test_deep_split_grows_the_prefixes_once(self):
        # (1000, [999, 1]) splits at depth 1000 - rows: growing the prefixes
        # again for each candidate depth would take minutes, not seconds
        start = time.perf_counter()
        blocks = ConfigBlocks(1000, 2, [999, 1], rows=32)
        rows = sum(b.shape[0] for b in blocks)
        assert rows == 1000
        assert time.perf_counter() - start < 10.0


class TestOrbits:
    @pytest.mark.parametrize("rows", [1, 7, None], ids=["rows1", "rows7", "default"])
    @pytest.mark.parametrize(
        "N,kappa,counts",
        CLASSES + [(7, 3, [2, 2, 3]), (6, 4, [2, 2, 1, 1]), (6, 4, None), (5, 3, [2, 0, 3])],
        ids=CLASS_IDS + ["7-223", "6-2211", "6-free4", "5-203"],
    )
    def test_one_row_per_orbit_weighted_by_its_size(self, N, kappa, counts, rows):
        blocks = ConfigBlocks(N, kappa, counts, rows=rows, orbits=True)
        orbit_rows = np.concatenate(list(blocks))
        weights = np.exp(np.concatenate([blocks.log_weights(b) for b in blocks]))
        sizes = {}
        for row in product_rows(N, kappa, counts):
            key = canonical(tuple(row), kappa, counts)
            sizes[key] = sizes.get(key, 0) + 1
        # the rows are the canonical forms, in lexicographic order
        assert [tuple(r) for r in orbit_rows] == sorted(sizes)
        np.testing.assert_allclose(weights, [sizes[tuple(r)] for r in orbit_rows], rtol=1e-13)
        assert math.isclose(weights.sum(), blocks.size, rel_tol=1e-13)

    @pytest.mark.parametrize(
        "N,kappa,counts",
        [
            (8, 2, None), (6, 3, None), (5, 4, None),
            (8, 2, [4, 4]), (6, 3, [2, 2, 2]), (8, 4, [2, 2, 2, 2]),
            (5, 3, [2, 2, 1]), (5, 3, [3, 0, 2]), (6, 4, [2, 2, 0, 2]),
        ],
        ids=["free2", "free3", "free4", "44", "222", "2222", "221", "302", "2202"],
    )
    def test_log_z_matches_the_full_enumeration(self, N, kappa, counts):
        beta, seed, n_draws = 1.3, 12, 3
        constraint = None if counts is None else dist(counts)
        res = enumerate_free_energy(N, kappa, beta, n_disorder=n_draws, seed=seed, constraint=constraint)
        configs = enumerate_configs(N, kappa, counts)
        values = []
        for i in range(n_draws):
            g = DisorderInstance(N, seed, draw=i).g
            h = config_energies(configs, g) - mean_energy(g, kappa, counts)
            values.append(float(logsumexp(beta * h)) / N)
        assert res.value == pytest.approx(np.mean(values), rel=1e-12)
        assert res.diagnostics["n_configurations"] == configs.shape[0]
        orbits = ConfigBlocks(N, kappa, counts, orbits=True)
        assert res.diagnostics["n_orbits"] == sum(b.shape[0] for b in orbits)
        # only tied states (and every state of the free set) are interchangeable
        tied = counts is None or len(set(counts) - {0}) < np.count_nonzero(counts)
        assert (res.diagnostics["n_orbits"] < configs.shape[0]) == tied


class TestStackedEnergies:
    @pytest.mark.parametrize("rows", [1, 7, None], ids=["rows1", "rows7", "default"])
    @pytest.mark.parametrize(
        "N,kappa,counts",
        [(22, 2, [20, 2]), (9, 3, [3, 3, 3]), (10, 2, None), (200, 2, [199, 1])],
        ids=["22-202", "9-333", "10-free", "200-1991"],
    )
    def test_a_draw_is_bitwise_the_same_alone_or_stacked(self, N, kappa, counts, rows):
        # OpenBLAS adds a product's terms in an order that depends on its
        # shape, so plain float products would differ in the last bits
        # between one draw and a stack of eight; the grid levels are exact
        draws = [DisorderInstance(N, seed=21, draw=i).g for i in range(8)]
        levels = _grid_levels((g / np.sqrt(N) for g in draws), N, 8)
        blocks = ConfigBlocks(N, kappa, counts, rows=rows)
        stacked = np.concatenate([_block_energies(b, levels, kappa) for b in blocks])
        configs = enumerate_configs(N, kappa, counts)
        for d in range(8):
            assert np.array_equal(stacked[:, d], config_energies(configs, draws[d]))

    def test_energies_match_the_hamiltonian(self):
        configs = enumerate_configs(9, 3, [3, 3, 3])
        g = DisorderInstance(9, seed=2)
        h = config_energies(configs, g.g)
        for row in (0, 17, 1679):
            assert h[row] == pytest.approx(hamiltonian(g, configs[row]), rel=1e-13, abs=1e-13)

    def test_grid_levels_sum_to_the_matrix(self):
        g = DisorderInstance(30, seed=5).g
        levels = _grid_levels([g / np.sqrt(30)], 30, 1)
        assert 2 <= len(levels) <= 3
        assert np.array_equal(sum(levels[1:], levels[0]), g / np.sqrt(30))

    def test_groups_of_draws_and_small_blocks(self, monkeypatch):
        # the energies are the same bits; only the fold's rounding moves
        d = dist([3, 3, 2])
        whole = enumerate_free_energy(8, 3, 1.1, n_disorder=10, seed=4, constraint=d)
        # 2 draws per group and blocks of 4 rows
        monkeypatch.setattr(model, "ENUM_CELLS", 128)
        grouped = enumerate_free_energy(8, 3, 1.1, n_disorder=10, seed=4, constraint=d)
        assert grouped.value == pytest.approx(whole.value, rel=1e-14)
        assert grouped.std_error == pytest.approx(whole.std_error, rel=1e-11)
        assert grouped.diagnostics == whole.diagnostics


class TestBudget:
    @pytest.mark.parametrize(
        "N,kappa,counts",
        [(16, 3, None), (13, 3, None), (24, 3, [8, 8, 8]), (5000, 2, [4999, 1]), (300, 2, [297, 3])],
        ids=["16-free", "13-free", "24-888", "5000-minority", "300-2973"],
    )
    def test_budget_raises_before_any_draw(self, N, kappa, counts, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a disorder draw was made")

        monkeypatch.setattr(model, "DisorderInstance", no_draw)
        constraint = None if counts is None else dist(counts)
        with pytest.raises(BudgetError):
            enumerate_free_energy(N, kappa, 1.0, n_disorder=2, constraint=constraint)
        with pytest.raises(BudgetError):
            ConfigBlocks(N, kappa, counts, orbits=True)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    # ceilings: the first three are bounds of the streamed design; the last
    # two are the peaks of the whole-class enumeration it replaced
    @pytest.mark.parametrize(
        "N,kappa,counts,n_draws,ceiling_mb",
        [
            (12, 3, [4, 4, 4], 8, 3.0),
            (22, 2, [11, 11], 2, 16.0),
            (10, 2, None, 200, 1.0),
            (1000, 2, [999, 1], 2, 40.8),
            (200, 2, [199, 1], 50, 19.5),
        ],
        ids=["12-444x8", "22-uniform-x2", "10-free-x200", "1000-minority-x2", "200-minority-x50"],
    )
    def test_traced_peak(self, N, kappa, counts, n_draws, ceiling_mb):
        constraint = None if counts is None else dist(counts)
        peak = traced_peak(
            lambda: enumerate_free_energy(N, kappa, 1.0, n_disorder=n_draws, seed=3, constraint=constraint)
        )
        assert peak <= ceiling_mb * 2**20

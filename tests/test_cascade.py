import itertools

import numpy as np
import pytest

from conftest import seeded
from test_fold import oracle_log_leaf_weights
from pottsglass.cascade import (
    CascadeSample,
    CascadeSpec,
    OverlapArray,
    coincidence_masses,
    level_factors,
    sample_cascade,
    sample_level_fields,
    sample_overlap_array,
    verify_y_identity,
)
from pottsglass import core
from pottsglass.core import MonotonePath, StateDistribution
from pottsglass.util import ValidationError


class TestCascadeSpec:
    def test_rejects_nonincreasing_levels(self):
        with pytest.raises(ValidationError):
            CascadeSpec((0.5, 0.3))

    def test_rejects_boundary_levels(self):
        with pytest.raises(ValidationError):
            CascadeSpec((0.0, 0.5))
        with pytest.raises(ValidationError):
            CascadeSpec((0.5, 1.0))

    def test_rejects_tiny_truncation(self):
        with pytest.raises(ValidationError):
            CascadeSpec((0.5,), atoms_per_level=1)

    def test_r(self):
        assert CascadeSpec((0.2, 0.5, 0.8)).r == 3


class TestSampleCascade:
    def test_shapes_and_normalization(self):
        spec = CascadeSpec((0.3, 0.6), atoms_per_level=5)
        s = sample_cascade(spec, seeded(1, 0))
        assert s.n_leaves == 25
        w = np.exp(oracle_log_leaf_weights(spec, seeded(1, 0)))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.min(w) >= 0.0
        # a lone Generator draws a stack of one
        assert s.log_atoms[0].shape == (1, 1, 5)
        assert s.log_atoms[1].shape == (1, 5, 5)
        # each level is shifted by its largest atom
        assert [level.max() for level in s.log_atoms] == [0.0, 0.0]
        assert np.all(np.isfinite(s.log_atoms[1]))

    def test_rows_sorted_descending(self):
        spec = CascadeSpec((0.4,), atoms_per_level=16)
        s = sample_cascade(spec, seeded(2, 0))
        w = s.log_atoms[0][0, 0]
        assert np.all(np.diff(w) <= 0.0)

    def test_seed_reproducibility(self):
        spec = CascadeSpec((0.4,), atoms_per_level=8)
        a = sample_cascade(spec, seeded(7, 0))
        b = sample_cascade(spec, seeded(7, 0))
        for la, lb in zip(a.log_atoms, b.log_atoms):
            np.testing.assert_array_equal(la, lb)

    def test_leaf_weights_are_the_atom_products(self):
        spec = CascadeSpec((0.3, 0.6), atoms_per_level=4)
        s = sample_cascade(spec, seeded(1, 1))
        u = [np.exp(level[0]) for level in s.log_atoms]
        products = (u[0].reshape(-1, 1) * u[1]).reshape(-1)
        w = np.exp(oracle_log_leaf_weights(spec, seeded(1, 1)))
        np.testing.assert_allclose(w, products / products.sum(), rtol=1e-13)
        # the atoms-only fold is the log of the same normalization
        assert s.log_mass[0][0, 0] == pytest.approx(np.log(products.sum()), rel=1e-13)


def leaf_digits(leaf, k, r):
    """Base-K digit path (depth-major) of a flat leaf index."""
    digits = []
    for _ in range(r):
        leaf, digit = divmod(leaf, k)
        digits.append(digit)
    return digits[::-1]


class TestLeafStructure:
    def test_common_depth_matches_digit_oracle(self):
        assert [leaf_digits(i, 3, 2) for i in (0, 1, 3, 8)] == [[0, 0], [0, 1], [1, 0], [2, 2]]
        rng = seeded(3, 1)
        for r, k in itertools.product((1, 2, 3), (2, 7)):
            s = sample_cascade(CascadeSpec((0.2, 0.5, 0.8)[:r], atoms_per_level=k), rng)
            leaves = rng.integers(0, k**r, size=12)
            digits = [leaf_digits(int(i), k, r) for i in leaves]
            expected = [
                [next((q for q in range(r) if a[q] != b[q]), r) for b in digits] for a in digits
            ]
            np.testing.assert_array_equal(s.common_depth(leaves), expected)

    def test_common_depth(self):
        spec = CascadeSpec((0.3, 0.6), atoms_per_level=3)
        s = sample_cascade(spec, seeded(3, 0))
        depth = s.common_depth(np.array([0, 1, 3]))
        # leaf 0 = (0,0), leaf 1 = (0,1), leaf 3 = (1,0)
        assert depth[0, 0] == 2
        assert depth[0, 1] == 1
        assert depth[0, 2] == 0
        np.testing.assert_array_equal(depth, depth.T)

    def test_pair_coincidence_masses_sum_to_one(self):
        spec = CascadeSpec((0.25, 0.7), atoms_per_level=20)
        s = sample_cascade(spec, seeded(4, 0))
        masses = s.pair_coincidence_masses()[0]
        assert masses.size == 3
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.min(masses) >= 0.0

    def test_pair_coincidence_masses_one_level_oracle(self):
        spec = CascadeSpec((0.5,), atoms_per_level=30)
        s = sample_cascade(spec, seeded(5, 0))
        w = np.exp(oracle_log_leaf_weights(spec, seeded(5, 0)))
        masses = s.pair_coincidence_masses()[0]
        assert masses[1] == pytest.approx(float(np.sum(w**2)), abs=1e-12)
        assert masses[0] == pytest.approx(1.0 - float(np.sum(w**2)), abs=1e-12)


class TestCoincidenceMasses:
    def test_matches_level_parameters(self):
        # mean mass at meet depth p is x_p - x_{p-1} (with x_r = 1)
        spec = CascadeSpec((0.3, 0.6), atoms_per_level=150)
        est, se = coincidence_masses(spec, 400, seed=0)
        targets = np.array([0.3, 0.3, 0.4])
        assert np.all(np.abs(est - targets) <= 4.0 * se + 0.01)

    def test_rejects_single_sample(self):
        with pytest.raises(ValidationError):
            coincidence_masses(CascadeSpec((0.5,)), 1)


def leaf_fields(fields, k):
    """Per-leaf fields (n_copies, dim, K**r): each leaf sums its ancestors'."""
    r = len(fields)
    return sum(np.repeat(g, k ** (r - 1 - p), axis=-1) for p, g in enumerate(fields))


class TestLeafFields:
    def test_covariance_matches_meet_increments(self):
        spec = CascadeSpec((0.3, 0.6), atoms_per_level=2)
        s = sample_cascade(spec, seeded(6, 0))
        c1 = np.array([[0.5, 0.2], [0.2, 0.4]])
        c2 = np.array([[0.3, -0.1], [-0.1, 0.6]])
        fields = sample_level_fields(s, level_factors([c1, c2]), seeded(6, 1), n_copies=40_000)
        z = leaf_fields([g[0] for g in fields], 2)
        # leaves 0=(0,0), 1=(0,1): meet depth 1 -> covariance c1
        cov01 = np.einsum("ck,cl->kl", z[:, :, 0], z[:, :, 1]) / z.shape[0]
        np.testing.assert_allclose(cov01, c1, atol=0.03)
        # leaves 0 and 3=(1,1): meet depth 0 -> zero covariance
        cov03 = np.einsum("ck,cl->kl", z[:, :, 0], z[:, :, 3]) / z.shape[0]
        np.testing.assert_allclose(cov03, 0.0, atol=0.03)
        # self covariance is the full sum
        cov00 = np.einsum("ck,cl->kl", z[:, :, 0], z[:, :, 0]) / z.shape[0]
        np.testing.assert_allclose(cov00, c1 + c2, atol=0.03)

    def test_default_is_one_copy(self):
        s = sample_cascade(CascadeSpec((0.3, 0.6), atoms_per_level=3), seeded(6, 4))
        fields = sample_level_fields(s, level_factors([np.eye(2), np.eye(2)]), seeded(6, 5))
        assert [g.shape for g in fields] == [(1, 1, 2, 3), (1, 1, 2, 9)]

    def test_wrong_increment_count_raises(self):
        s = sample_cascade(CascadeSpec((0.5,), atoms_per_level=2), seeded(6, 2))
        with pytest.raises(ValidationError):
            sample_level_fields(s, level_factors([np.eye(2), np.eye(2)]), seeded(6, 3))

    def test_scalar_fields_variance_structure(self):
        # a scalar field is the 1 x 1 case of the sampler
        spec = CascadeSpec((0.4,), atoms_per_level=3)
        s = sample_cascade(spec, seeded(7, 0))
        (g,) = sample_level_fields(s, level_factors([[[0.8]]]), seeded(7, 1), n_copies=20_000)
        draws = g[0, :, 0, :]
        var = draws.var(axis=0)
        np.testing.assert_allclose(var, 0.8, atol=0.04)
        # distinct leaves at meet depth 0 are independent
        cov = np.mean(draws[:, 0] * draws[:, 1])
        assert abs(cov) <= 0.03

    def test_scalar_fields_scale_the_level_draws(self):
        # per level: sqrt(v) times the standard normal draws, bit for bit
        spec = CascadeSpec((0.3, 0.6), atoms_per_level=4)
        s = sample_cascade(spec, seeded(7, 2))
        var = np.array([0.3, 0.45])
        fields = sample_level_fields(s, level_factors(var[:, None, None]), seeded(7, 3))
        rng = seeded(7, 3)
        for p, g in enumerate(fields):
            np.testing.assert_array_equal(
                g[0, 0, 0], np.sqrt(var[p]) * rng.standard_normal(4 ** (p + 1))
            )


class TestOverlapArray:
    def _array(self):
        spec = CascadeSpec((0.3, 0.6), atoms_per_level=10)
        s = sample_cascade(spec, seeded(8, 0))
        q = np.array([0.0, 0.25, 0.5])
        phi = lambda t: t * np.eye(2) / 0.5 * 0.25
        return sample_overlap_array(s, q, phi, 5, seeded(8, 1))

    def test_shapes_and_symmetry(self):
        arr = self._array()
        assert arr.n == 5 and arr.kappa == 2
        np.testing.assert_array_equal(arr.traces, arr.traces.T)
        np.testing.assert_array_equal(np.diag(arr.traces), 0.5)

    def test_ultrametric_traces(self):
        arr = self._array()
        t = arr.traces
        for i in range(arr.n):
            for j in range(arr.n):
                for k in range(arr.n):
                    assert t[i, k] >= min(t[i, j], t[j, k]) - 1e-12

    def test_off_diagonal_blocks_count(self):
        arr = self._array()
        blocks, traces = arr.off_diagonal_blocks()
        assert blocks.shape == (10, 2, 2) and traces.shape == (10,)

    def test_bad_q_raises(self):
        spec = CascadeSpec((0.5,), atoms_per_level=4)
        s = sample_cascade(spec, seeded(8, 2))
        with pytest.raises(ValidationError):
            sample_overlap_array(s, [0.0, 0.3, 0.5], lambda t: np.eye(2), 3, seeded(8, 4))
        with pytest.raises(ValidationError):
            sample_overlap_array(s, [0.5, 0.2], lambda t: np.eye(2), 3, seeded(8, 4))

    def test_needs_two_replicas(self):
        s = sample_cascade(CascadeSpec((0.5,), atoms_per_level=4), seeded(8, 3))
        with pytest.raises(ValidationError):
            sample_overlap_array(s, [0.0, 0.5], lambda t: np.eye(2), 1, seeded(8, 4))

    def test_type_lives_in_core(self):
        assert OverlapArray is core.OverlapArray


class TestYIdentity:
    def test_one_step_path_passes(self):
        d = StateDistribution(np.array([0.6, 0.4]))
        path = MonotonePath.one_step(d, 0.3)
        report = verify_y_identity(path, 1.0, reps=150, atoms_per_level=100, seed=0)
        assert report["passed"]
        expected = 0.5 * 0.3 * float(np.sum(d.d**2))
        assert report["closed_form"] == pytest.approx(expected, abs=1e-12)

    def test_degenerate_level_rejected(self):
        d = StateDistribution(np.array([1.0]))
        path = MonotonePath(d, np.array([0.0, 0.0, 0.5, 1.0]),
                            np.array([[[0.0]], [[0.3]], [[1.0]]]))
        with pytest.raises(ValidationError):
            verify_y_identity(path, 1.0, reps=4)

    def test_scale_validation(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            verify_y_identity(MonotonePath.one_step(d, 0.5), 1.0, scale_N=0)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_path, seeded
from pottsglass.core import (
    MonotonePath,
    StateDistribution,
    as_multipliers,
    check_paths,
    hs_increments,
    hs_sq_integral,
    hs_telescoped,
    increment_covariances,
    path_delta,
    psd_factor,
    round_distribution,
)
from pottsglass.util import ValidationError


class TestStateDistribution:
    def test_uniform(self):
        d = StateDistribution.uniform(3)
        assert d.kappa == 3
        np.testing.assert_allclose(d.d, 1 / 3)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            StateDistribution(np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            StateDistribution(np.array([-0.1, 1.1]))

    def test_counts_and_representability(self):
        d = StateDistribution(np.array([0.25, 0.75]))
        assert d.is_representable(4)
        assert not d.is_representable(3)
        np.testing.assert_array_equal(d.counts(8), [2, 6])
        with pytest.raises(ValidationError):
            d.counts(3)


class TestRoundDistribution:
    def test_largest_remainder(self):
        d = StateDistribution.uniform(3)
        out = round_distribution(d, 4)
        # equal remainders: the extra count goes to the lowest index
        np.testing.assert_allclose(out.d, np.array([2, 1, 1]) / 4)

    def test_zero_entries_stay_zero(self):
        d = StateDistribution(np.array([0.5, 0.5, 0.0]))
        out = round_distribution(d, 3)
        np.testing.assert_allclose(out.d, np.array([2, 1, 0]) / 3)

    def test_already_representable_is_fixed_point(self):
        d = StateDistribution(np.array([0.25, 0.75]))
        np.testing.assert_allclose(round_distribution(d, 4).d, d.d)


class TestMultipliers:
    def test_scalar_broadcast(self):
        lam = as_multipliers(0.3, 3)
        np.testing.assert_allclose(lam, [0.3, 0.3])

    def test_kappa_one_is_empty(self):
        assert as_multipliers(0.0, 1).size == 0

    def test_wrong_size_raises(self):
        with pytest.raises(ValidationError):
            as_multipliers([0.1, 0.2], 2)


class TestCheckPaths:
    def test_names_the_first_defect_in_a_stack(self):
        rng = seeded(31)
        d = StateDistribution(np.array([0.5, 0.3, 0.2]))
        paths = [random_path(rng, d, 2) for _ in range(3)]
        ds = np.array([d.d] * 3)
        xs = np.array([p.xs for p in paths])
        gammas = np.array([p.gammas for p in paths])
        check_paths(ds, xs, gammas)
        bad = gammas.copy()
        bad[1, 1] = 2.0 * np.diag(d.d)  # increment 2 is then diag(d) minus this
        with pytest.raises(ValidationError, match="increment 2 is not PSD"):
            check_paths(ds, xs, bad)
        bad[1, 1, 0, 1] += 1e-6
        with pytest.raises(ValidationError, match="increment 1 is not symmetric"):
            check_paths(ds, xs, bad)
        late = xs.copy()
        late[2, -1] = 0.9
        with pytest.raises(ValidationError, match="endpoints"):
            check_paths(ds, late, gammas)


class TestMonotonePath:
    def test_one_step_structure(self):
        d = StateDistribution(np.array([0.6, 0.4]))
        p = MonotonePath.one_step(d, 0.3)
        assert p.r == 1
        np.testing.assert_array_equal(p.xs, [0.0, 0.3, 1.0])
        np.testing.assert_array_equal(p.gammas[-1], np.diag(d.d))

    def test_value_at_cells(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        p = MonotonePath.one_step(d, 0.3)
        assert np.all(p.value_at(0.0) == 0.0)
        assert np.all(p.value_at(0.3) == 0.0)  # cell (0, x0] carries gamma_0
        np.testing.assert_array_equal(p.value_at(0.31), np.diag(d.d))
        np.testing.assert_array_equal(p.value_at(1.0), np.diag(d.d))

    def test_endpoint_must_be_exact(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        gammas = np.array([np.zeros((2, 2)), np.diag(d.d) + 1e-13])
        with pytest.raises(ValidationError):
            MonotonePath(d, np.array([0.0, 0.5, 1.0]), gammas)

    def test_non_psd_increment_rejected(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        high = np.diag([0.6, 0.4])  # not below diag(d): increment to diag(d) has a negative direction
        with pytest.raises(ValidationError):
            MonotonePath(
                d,
                np.array([0.0, 0.3, 0.6, 1.0]),
                np.array([np.zeros((2, 2)), high, np.diag(d.d)]),
            )

    def test_from_increments_count_check(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            MonotonePath.from_increments(d, [0.2, 0.5], [])

    def test_hs_integral_one_step(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        p = MonotonePath.one_step(d, 0.25)
        assert hs_sq_integral(p.xs, p.gammas) == pytest.approx(0.75 * 0.5, abs=1e-15)

    def test_hs_telescoped_matches_integral_form(self):
        rng = seeded(24, 1)
        d = StateDistribution(np.array([0.5, 0.3, 0.2]))
        for r in (1, 2, 3):
            p = random_path(rng, d, r)
            expected = float(np.sum(d.d**2)) - hs_sq_integral(p.xs, p.gammas)
            assert float(hs_telescoped(p.xs, p.gammas)) == pytest.approx(expected, abs=1e-14)
            assert hs_increments(p.gammas).sum() == pytest.approx(float(np.sum(d.d**2)), abs=1e-14)

    def test_json_round_trip(self):
        rng = seeded(4, 2)
        d = StateDistribution(np.array([0.5, 0.5]))
        p = random_path(rng, d, 2)
        again = MonotonePath.from_json_dict(p.to_json_dict())
        assert path_delta(p, again) == 0.0


class TestIncrementCovariance:
    def test_value(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        p = MonotonePath.one_step(d, 0.4)
        np.testing.assert_allclose(increment_covariances(p.gammas)[0], 2.0 * np.diag(d.d))

    def test_one_per_level(self):
        rng = seeded(4, 3)
        d = StateDistribution(np.array([0.6, 0.4]))
        p = random_path(rng, d, 3)
        covs = increment_covariances(p.gammas)
        assert covs.shape == (3, 2, 2)
        for k in range(3):
            np.testing.assert_array_equal(covs[k], 2.0 * (p.gammas[k + 1] - p.gammas[k]))
        np.testing.assert_allclose(covs.sum(axis=0), 2.0 * np.diag(d.d), atol=1e-15)


class TestPsdFactor:
    def test_factor_reproduces_psd_matrix(self):
        a = seeded(4, 4).standard_normal((3, 3))
        cov = a @ a.T
        lam, factor = psd_factor(cov)
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(cov))
        np.testing.assert_allclose(factor @ factor.T, cov, atol=1e-12)

    def test_projects_the_symmetric_part(self):
        # symmetric part [[2, 0.5], [0.5, -1]]: the negative direction is dropped
        lam, factor = psd_factor(np.array([[2.0, 1.0], [0.0, -1.0]]))
        sym = np.array([[2.0, 0.5], [0.5, -1.0]])
        w, u = np.linalg.eigh(sym)
        np.testing.assert_allclose(lam, w)
        np.testing.assert_allclose(factor @ factor.T, w[1] * np.outer(u[:, 1], u[:, 1]), atol=1e-15)


class TestPathDelta:
    def test_one_step_closed_form(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        a = MonotonePath.one_step(d, 0.2)
        b = MonotonePath.one_step(d, 0.7)
        # the paths differ by diag(d) on (0.2, 0.7]
        assert path_delta(a, b) == pytest.approx(0.5 * 1.0, abs=1e-15)

    def test_kappa_mismatch(self):
        a = MonotonePath.one_step(StateDistribution.uniform(2), 0.5)
        b = MonotonePath.one_step(StateDistribution.uniform(3), 0.5)
        with pytest.raises(ValidationError):
            path_delta(a, b)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 2), st.integers(1, 2), st.integers(1, 2))
    def test_metric_axioms(self, seed, r1, r2, r3):
        rng = seeded(seed, 7)
        d = StateDistribution(np.array([0.55, 0.45]))
        a, b, c = (random_path(rng, d, r) for r in (r1, r2, r3))
        assert path_delta(a, a) == 0.0
        assert path_delta(a, b) == pytest.approx(path_delta(b, a), abs=1e-14)
        assert path_delta(a, c) <= path_delta(a, b) + path_delta(b, c) + 1e-12

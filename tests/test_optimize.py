import numpy as np
import pytest

from conftest import seeded
from pottsglass import optimize
from pottsglass.core import MonotonePath, StateDistribution
from pottsglass.functional import QuadratureSpec, eval_parisi
from pottsglass.optimize import (
    OptimizerReport,
    PathParametrization,
    inner_minimize,
    outer_maximize,
    simplex_grid,
)
from pottsglass.util import ValidationError

LIGHT = {"starts": 4, "maxiter": 150}


class TestPathParametrization:
    def test_dim(self):
        assert PathParametrization(StateDistribution.uniform(2), 1).dim == 1 + 1
        assert PathParametrization(StateDistribution.uniform(2), 2).dim == 1 + 2 + 3
        assert PathParametrization(StateDistribution.uniform(3), 2).dim == 2 + 2 + 6

    def test_r_floor(self):
        with pytest.raises(ValidationError):
            PathParametrization(StateDistribution.uniform(2), 0)

    def test_default_start_decodes_feasibly(self):
        param = PathParametrization(StateDistribution.uniform(2), 2)
        lam, path, penalty = param.decode(param.default_start())
        assert penalty == 0.0
        assert path is not None and path.r == 2
        np.testing.assert_array_equal(path.gammas[-1], np.diag([0.5, 0.5]))

    def test_infeasible_decode_penalized(self):
        param = PathParametrization(StateDistribution.uniform(2), 2)
        theta = param.default_start()
        theta[-3:] = [2.0, 0.0, 2.0]  # increment larger than diag(d)
        lam, path, penalty = param.decode(theta)
        assert path is None and penalty > 0.0

    def test_wrong_size_rejected(self):
        param = PathParametrization(StateDistribution.uniform(2), 1)
        with pytest.raises(ValidationError):
            param.decode(np.zeros(5))


class TestSimplexGrid:
    def test_count_and_normalization(self):
        grid = simplex_grid(2, mesh=8)
        assert len(grid) == 9
        grid3 = simplex_grid(3, mesh=4)
        assert len(grid3) == 15
        for d in grid3:
            assert d.d.sum() == pytest.approx(1.0)

    def test_mesh_one_gives_corners(self):
        grid = simplex_grid(3, mesh=1)
        assert len(grid) == 3
        assert all(np.max(d.d) == 1.0 for d in grid)

    def test_mesh_floor(self):
        with pytest.raises(ValidationError):
            simplex_grid(2, mesh=0)


class TestInnerMinimize:
    def test_beta_zero_uniform_is_log_kappa(self):
        report = inner_minimize(StateDistribution.uniform(2), 1, 0.0, LIGHT, seed=0)
        assert report.value == pytest.approx(np.log(2), abs=1e-5)

    def test_beta_zero_general_d_is_entropy(self):
        d = StateDistribution(np.array([0.75, 0.25]))
        report = inner_minimize(d, 1, 0.0, LIGHT, seed=0)
        entropy = -float(np.sum(d.d * np.log(d.d)))
        assert report.value == pytest.approx(entropy, abs=1e-4)

    def test_single_state_drives_to_zero(self):
        d = StateDistribution(np.array([1.0]))
        report = inner_minimize(d, 1, 1.0, LIGHT, seed=0)
        assert -1e-6 <= report.value <= 1e-3

    def test_deeper_never_worse(self):
        d = StateDistribution.uniform(2)
        config = dict(LIGHT)
        r1 = inner_minimize(d, 1, 1.0, config, seed=0)
        r2 = inner_minimize(d, 2, 1.0, config, seed=0)
        assert r2.value <= r1.value + 1e-9

    def test_reproducible(self):
        d = StateDistribution.uniform(2)
        a = inner_minimize(d, 1, 0.8, LIGHT, seed=5)
        b = inner_minimize(d, 1, 0.8, LIGHT, seed=5)
        assert a.value == pytest.approx(b.value, abs=1e-12)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_more_starts_never_worse(self):
        d = StateDistribution.uniform(2)
        few = inner_minimize(d, 1, 1.0, {"starts": 2, "maxiter": 150}, seed=0)
        many = inner_minimize(d, 1, 1.0, {"starts": 6, "maxiter": 150}, seed=0)
        assert many.value <= few.value + 1e-12

    def test_matches_dense_scan(self):
        # brute-force the (lambda, x0) plane at r = 1 and compare
        d = StateDistribution.uniform(2)
        beta = 0.2
        quad = QuadratureSpec(nodes_per_dim=9)
        best = np.inf
        for lam in np.linspace(-0.6, 0.6, 25):
            for x0 in np.linspace(0.05, 0.95, 19):
                path = MonotonePath.one_step(d, x0)
                best = min(best, eval_parisi([lam], d, path, beta, quad).value)
        report = inner_minimize(d, 1, beta, LIGHT, seed=0)
        assert report.value <= best + 1e-3

    def test_start_floor(self):
        with pytest.raises(ValidationError):
            inner_minimize(StateDistribution.uniform(2), 1, 1.0, {"starts": 0})

    def test_report_json(self):
        report = inner_minimize(StateDistribution.uniform(2), 1, 0.5, LIGHT, seed=0)
        obj = report.to_json_dict()
        assert set(obj) >= {"value", "lambda", "path", "d", "beta", "r"}


def stub_inner(evaluated, value_of):
    """An inner_minimize that records each d and returns value_of(d)."""

    def inner(d, r, beta, config=None, seed=0):
        evaluated.append(tuple(d.d))
        return OptimizerReport(
            value_of(d), np.zeros(d.kappa - 1), MonotonePath.one_step(d, 0.5), d, beta, r, 0,
            (), np.zeros(1),
        )

    return inner


def entropy(d):
    p = d.d[d.d > 0]
    return float(-np.sum(p * np.log(p)))


class TestOuterMaximize:
    @pytest.mark.parametrize("kappa,mesh,count", [(2, 10, 6), (3, 7, 8), (3, 4, 4)])
    def test_evaluates_each_sorted_type_once(self, kappa, mesh, count, monkeypatch):
        evaluated = []
        monkeypatch.setattr(optimize, "inner_minimize", stub_inner(evaluated, entropy))
        report = outer_maximize(kappa, 1.0, 1, {"grid_mesh": mesh}, seed=0)
        assert len(evaluated) == count
        sorted_types = {tuple(sorted(d.d, reverse=True)) for d in simplex_grid(kappa, mesh)}
        assert set(evaluated) == sorted_types
        assert report.extra["types"] == [list(t) for t in evaluated]
        assert report.extra["type_values"] == [
            entropy(StateDistribution(np.array(t))) for t in evaluated
        ]
        assert report.value == max(report.extra["type_values"])

    def test_ties_go_to_the_first_type(self, monkeypatch):
        evaluated = []
        monkeypatch.setattr(optimize, "inner_minimize", stub_inner(evaluated, lambda d: 1.0))
        report = outer_maximize(3, 1.0, 1, {"grid_mesh": 7}, seed=0)
        assert tuple(report.d.d) == evaluated[0]

    def test_beta_zero_picks_uniform(self):
        config = {"grid_mesh": 4, "starts": 2, "maxiter": 100}
        report = outer_maximize(2, 0.0, 1, config, seed=0)
        assert report.value == pytest.approx(np.log(2), abs=1e-4)
        np.testing.assert_allclose(report.d.d, 0.5, atol=1e-6)
        assert report.extra["types"] == [[0.5, 0.5], [0.75, 0.25], [1.0, 0.0]]
        assert len(report.extra["type_values"]) == 3

    def test_small_beta_prefers_uniform(self):
        config = {"grid_mesh": 4, "starts": 2, "maxiter": 100}
        report = outer_maximize(2, 0.3, 1, config, seed=0)
        assert abs(report.d.d[0] - 0.5) <= 0.15

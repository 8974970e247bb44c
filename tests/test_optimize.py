import itertools

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

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
    """A minimize_types that records each d and returns value_of(d)."""

    def inner(types, r, beta, config=None, seed=0):
        reports = []
        for d in types:
            evaluated.append(tuple(d.d))
            reports.append(OptimizerReport(
                value_of(d), np.zeros(d.kappa - 1), MonotonePath.one_step(d, 0.5), d, beta, r, 0,
                (), np.zeros(1),
            ))
        return reports

    return inner


def entropy(d):
    p = d.d[d.d > 0]
    return float(-np.sum(p * np.log(p)))


class TestOuterMaximize:
    @pytest.mark.parametrize("kappa,mesh,count", [(2, 10, 6), (3, 7, 8), (3, 4, 4)])
    def test_evaluates_each_sorted_type_once(self, kappa, mesh, count, monkeypatch):
        evaluated = []
        monkeypatch.setattr(optimize, "minimize_types", stub_inner(evaluated, entropy))
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
        monkeypatch.setattr(optimize, "minimize_types", stub_inner(evaluated, lambda d: 1.0))
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


def drive(run, fn):
    """Run a nelder_mead generator to the end, evaluating its points one by one."""
    values = None
    try:
        while True:
            points = run.send(values)
            values = np.array([fn(p) for p in points])
    except StopIteration as stop:
        return stop.value


def single_objective(d, r, beta):
    return lambda theta: optimize._objective_rows(d.d[None], r, beta, theta[None])[0][0]


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def infeasible_start(d, r):
    param = PathParametrization(d, r)
    theta = param.default_start()
    theta[-param.n_tri :] = 2.0  # an increment larger than diag(d)
    assert param.decode(theta)[1] is None
    return theta


class TestNelderMead:
    """scipy.optimize.minimize is the oracle: the port takes its steps."""

    def assert_matches_scipy(self, fn, x0, maxiter):
        res = minimize(
            fn, x0, method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": optimize.XATOL, "fatol": optimize.FATOL},
        )
        x, fun, nit, nfev, converged = drive(optimize.nelder_mead(x0, maxiter), fn)
        assert x.tobytes() == res.x.tobytes()
        assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes()
        assert (nit, nfev, converged) == (res.nit, res.nfev, res.success)

    @pytest.mark.parametrize("kappa,r,beta", [(2, 1, 1.0), (3, 1, 1.5), (2, 2, 0.8)])
    def test_real_objective(self, kappa, r, beta):
        d = StateDistribution(np.array([0.6, 0.4]) if kappa == 2 else np.array([0.5, 0.3, 0.2]))
        param = PathParametrization(d, r)
        fn = single_objective(d, r, beta)
        starts = [param.default_start(), param.random_start(seeded(5, kappa, r))]
        if r > 1:
            starts.append(infeasible_start(d, r))
        for x0 in starts:
            self.assert_matches_scipy(fn, x0, 120)

    def test_rosenbrock(self):
        for x0, maxiter in [(np.array([-1.2, 1.0]), 400), (np.array([0.0, 0.0, 0.0]), 60)]:
            self.assert_matches_scipy(rosenbrock, x0, maxiter)

    def test_converged_flag(self):
        fn = lambda x: float(np.sum((x - 0.3) ** 2))  # noqa: E731
        assert drive(optimize.nelder_mead(np.zeros(2), 500), fn)[4]
        assert not drive(optimize.nelder_mead(np.zeros(2), 5), fn)[4]

    def test_expit_matches_scipy(self):
        points = np.concatenate([
            [37.0, -37.0, 745.0, -745.0, 1e-300, -1e-300, -709.78, -709.79, 0.0],
            seeded(6).standard_normal(2000) * 30.0,
        ])
        for v in points:
            assert np.float64(optimize._expit(float(v))).tobytes() == expit(v).tobytes()


def mixed_rows():
    """(d, r, theta) rows: several d including (1, 0), the r = 2 default
    start (a rank-0 first level) and infeasible rows."""
    rng = seeded(7)
    ds = [StateDistribution(np.array(v)) for v in ([0.5, 0.5], [1.0, 0.0], [0.7, 0.3])]
    rows = []
    for d in ds:
        for r in (1, 2):
            param = PathParametrization(d, r)
            rows.append((d, r, param.default_start()))
            rows.append((d, r, param.random_start(rng)))
            if r == 2:
                rows.append((d, r, infeasible_start(d, r)))
    return rows


class TestBatchInvariance:
    def test_objective_rows_equal_single_calls(self):
        rows = mixed_rows()
        for r, beta in itertools.product((1, 2), (0.3, 1.3)):
            batch = [(d, theta) for d, rr, theta in rows if rr == r]
            d_rows = np.array([d.d for d, _ in batch])
            values, infeasible = optimize._objective_rows(
                d_rows, r, beta, np.array([theta for _, theta in batch])
            )
            assert infeasible.any() == (r == 2) and not infeasible.all()
            for (d, theta), value, bad in zip(batch, values, infeasible):
                alone = optimize._objective_rows(d.d[None], r, beta, theta[None])[0][0]
                assert value.tobytes() == alone.tobytes()
                lam, path, _ = PathParametrization(d, r).decode(theta)
                assert (path is None) == bad
                if path is not None:
                    assert value == eval_parisi(lam, d, path, beta).value

    def test_objective_rows_equal_single_calls_at_kappa_3_r_2(self):
        # full-rank levels at kappa = 3, r = 2 pass the node budget, so the
        # first increment keeps 0, 1 or 2 columns of its factor: the batch
        # mixes rank signatures, a zero state and infeasible rows
        rng = seeded(8)
        cols = np.tril_indices(3)[1]
        batch = []
        for d in ([1 / 3] * 3, [0.5, 0.3, 0.2], [0.6, 0.4, 0.0]):
            d = StateDistribution(np.array(d))
            param = PathParametrization(d, 2)
            for rank in (0, 1, 2, 2):
                theta = param.random_start(rng)
                theta[-param.n_tri :] *= np.where(cols < rank, 0.5, 0.0)
                batch.append((d, theta))
            batch.append((d, infeasible_start(d, 2)))
        d_rows = np.array([d.d for d, _ in batch])
        for beta in (0.3, 1.3):
            values, infeasible = optimize._objective_rows(
                d_rows, 2, beta, np.array([theta for _, theta in batch])
            )
            assert infeasible.any() and not infeasible.all()
            for (d, theta), value in zip(batch, values):
                alone = optimize._objective_rows(d.d[None], 2, beta, theta[None])[0][0]
                assert value.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("kappa,r,mesh", [(2, 1, 6), (2, 2, 2)])
    def test_outer_report_equals_inner_alone(self, kappa, r, mesh):
        config = {"grid_mesh": mesh, "starts": 3, "maxiter": 40}
        report = outer_maximize(kappa, 1.2, r, config, seed=4)
        alone = [
            inner_minimize(StateDistribution(np.array(t)), r, 1.2, config, seed=4)
            for t in report.extra["types"]
        ]
        assert report.extra["type_values"] == [a.value for a in alone]
        chosen = alone[int(np.argmax(report.extra["type_values"]))].to_json_dict()
        assert report.to_json_dict() == dict(chosen, extra=report.extra)


class TestEntropyFloor:
    """No value of the objective lies below H(d); a lower returned value
    means the objective is broken, and the optimizer raises."""

    def low_objective(self, d_rows, r, beta, thetas):
        floor = np.array([entropy(StateDistribution(d)) for d in d_rows])
        return floor - 1e-6, np.zeros(len(thetas), dtype=bool)

    def test_inner_minimize_raises(self, monkeypatch):
        monkeypatch.setattr(optimize, "_objective_rows", self.low_objective)
        d = StateDistribution(np.array([0.75, 0.25]))
        with pytest.raises(RuntimeError, match="below the entropy"):
            inner_minimize(d, 1, 1.0, {"starts": 2, "maxiter": 10})

    def test_lockstep_outer_raises(self, monkeypatch):
        monkeypatch.setattr(optimize, "_objective_rows", self.low_objective)
        with pytest.raises(RuntimeError, match="below the entropy"):
            outer_maximize(2, 1.0, 1, {"grid_mesh": 4, "starts": 2, "maxiter": 10})

    def test_value_at_the_floor_passes(self, monkeypatch):
        def at_floor(d_rows, r, beta, thetas):
            values, bad = self.low_objective(d_rows, r, beta, thetas)
            return values + 1e-6 - 0.5e-9, bad

        monkeypatch.setattr(optimize, "_objective_rows", at_floor)
        d = StateDistribution(np.array([0.75, 0.25]))
        report = inner_minimize(d, 1, 1.0, {"starts": 2, "maxiter": 10})
        assert report.value == pytest.approx(entropy(d), abs=1e-9)


class TestStartStats:
    def test_nfev_and_converged(self):
        report = inner_minimize(StateDistribution.uniform(2), 1, 0.5, LIGHT, seed=0)
        for stat in report.starts:
            assert stat["nfev"] >= stat["iterations"] + 2
            assert stat["converged"] == (stat["iterations"] < LIGHT["maxiter"])

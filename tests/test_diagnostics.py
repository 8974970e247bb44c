import numpy as np
import pytest

from pottsglass import cli, diagnostics, util
from pottsglass.cascade import OverlapArray
from pottsglass.cli import _default_cascade_arrays
from pottsglass.core import MonotonePath, StateDistribution
from pottsglass.diagnostics import (
    gg_polynomial_extension_check,
    gg_residual,
    interpolation_curve,
    legendre_gap,
    sync_fit,
)
from pottsglass.model import (
    PerturbationSpec,
    enumerate_free_energy,
    perturbation_covariance,
)
from pottsglass.util import ValidationError, stream
from test_golden_cli import CALLS, GOLDEN, run


def constant_arrays(n_arrays, n, block, diag_block, kappa=2):
    """Arrays whose off-diagonal blocks are all identical: the moment
    identity is exactly zero for them."""
    arrays = []
    traces = np.full((n, n), float(np.trace(block)))
    np.fill_diagonal(traces, float(np.trace(diag_block)))
    blocks = np.tile(block, (n, n, 1, 1))
    for i in range(n):
        blocks[i, i] = diag_block
    for _ in range(n_arrays):
        arrays.append(OverlapArray(traces.copy(), blocks.copy()))
    return arrays


UNIT_SPEC = PerturbationSpec(p=1, n=(1,), lambdas=np.ones((1, 2)) / 2)


class TestGGResidual:
    def test_constant_blocks_exact_zero(self):
        block = np.array([[0.3, 0.1], [0.1, 0.2]])
        diag = np.diag([0.5, 0.5])
        arrays = constant_arrays(20, 4, block, diag)
        for n in (2, 3):
            res = gg_residual(arrays, lambda a: 1.0, n, UNIT_SPEC, n_boot=10)
            assert res["residual"] <= 1e-14

    def test_polynomial_extension_equals_product_form(self):
        arrays = _default_cascade_arrays(2, [0.3, 0.6], 60, 4, 80, seed=11)
        spec = PerturbationSpec(p=1, n=(2,), lambdas=np.array([[0.8, -0.4]]))
        a = gg_residual(arrays, lambda arr: 1.0, 2, spec, n_boot=20, seed=3)
        b = gg_polynomial_extension_check(
            arrays, lambda forms: float(np.prod(forms**2)), 2, spec, n_boot=20, seed=3
        )
        assert a["residual"] == pytest.approx(b["residual"], abs=1e-14)

    def test_cascade_arrays_near_zero(self):
        arrays = _default_cascade_arrays(2, [0.3, 0.6], 250, 4, 150, seed=4)
        res = gg_residual(arrays, lambda a: float(a.traces[0, 1]), 2, UNIT_SPEC, seed=0)
        assert res["residual"] <= 4.0 * res["std_error"] + 0.02

    def test_unused_replicas_do_not_matter(self):
        # with n = 2 only replicas 1..3 enter; permuting the rest is a no-op
        arrays = _default_cascade_arrays(2, [0.3, 0.6], 40, 5, 60, seed=5)
        perm = [0, 1, 2, 4, 3]
        swapped = [
            OverlapArray(a.traces[np.ix_(perm, perm)], a.blocks[np.ix_(perm, perm)])
            for a in arrays
        ]
        f = lambda a: float(a.traces[0, 1])
        res_a = gg_residual(arrays, f, 2, UNIT_SPEC, n_boot=5, seed=0)
        res_b = gg_residual(swapped, f, 2, UNIT_SPEC, n_boot=5, seed=0)
        assert res_a["residual"] == pytest.approx(res_b["residual"], abs=1e-14)

    def test_std_error_is_the_spread_of_the_signed_residual(self):
        # the bootstrap residuals straddle zero here, so the spread of their
        # absolute values is well below theirs and would bias the error low
        arrays = _default_cascade_arrays(2, [0.3, 0.6], 40, 4, 60, seed=6)
        f = lambda a: float(a.traces[0, 1])
        q = lambda block: perturbation_covariance(UNIT_SPEC, block)
        res = gg_residual(arrays, f, 2, UNIT_SPEC, n_boot=50, seed=2)
        cols = np.array([[f(a), f(a) * q(a.blocks[0, 2]), q(a.blocks[0, 1]), f(a) * q(a.blocks[0, 1])]
                         for a in arrays])
        boot = []
        for b in range(50):
            m = cols[stream(2, 0xB007, b).integers(0, len(cols), size=len(cols))].mean(axis=0)
            boot.append(m[1] - m[0] * m[2] / 2 - m[3] / 2)
        assert res["std_error"] == pytest.approx(np.std(boot, ddof=1), rel=1e-12)
        assert np.std(np.abs(boot), ddof=1) < 0.9 * res["std_error"]

    def test_needs_enough_replicas(self):
        arrays = constant_arrays(5, 3, np.diag([0.2, 0.2]), np.diag([0.5, 0.5]))
        with pytest.raises(ValidationError):
            gg_residual(arrays, lambda a: 1.0, 3, UNIT_SPEC, n_boot=5)


class TestSyncFit:
    def test_constant_generator_zero_residual(self):
        block = np.array([[0.3, 0.0], [0.0, 0.2]])
        arrays = constant_arrays(1, 16, block, np.diag([0.5, 0.5]))
        fit = sync_fit(arrays)
        assert fit.residual == pytest.approx(0.0, abs=1e-14)
        assert fit.grid.size == 1
        assert fit.lipschitz_hat == 0.0

    def test_violation_flagged(self):
        # same trace, two incompatible blocks: no trace function can fit
        n = 16
        traces = np.full((n, n), 0.5)
        np.fill_diagonal(traces, 0.5)
        blocks = np.empty((n, n, 2, 2))
        a = np.array([[0.5, 0.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [0.0, 0.5]])
        for i in range(n):
            for j in range(n):
                blocks[i, j] = a if (i + j) % 2 == 0 else b
        fit = sync_fit([OverlapArray(traces, blocks)])
        assert fit.residual >= 0.4

    def test_monotone_psd_steps(self):
        arrays = _default_cascade_arrays(2, [0.3, 0.6], 30, 8, 100, seed=6)
        fit = sync_fit(arrays, n_bins=10)
        for i in range(1, fit.phi_hat.shape[0]):
            step = fit.phi_hat[i] - fit.phi_hat[i - 1]
            assert np.linalg.eigvalsh(0.5 * (step + step.T))[0] >= -1e-10

    def test_needs_enough_blocks(self):
        arrays = constant_arrays(1, 5, np.diag([0.2, 0.2]), np.diag([0.5, 0.5]))
        with pytest.raises(ValidationError):
            sync_fit(arrays)


class TestInterpolationCurve:
    def test_beta_zero_flat_and_exact(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        path = MonotonePath.one_step(d, 0.3)
        rep = interpolation_curve(4, 2, d, 0.0, path, [0.0, 0.5, 1.0], reps=3,
                                  atoms_per_level=20)
        expected = np.log(6) / 4
        np.testing.assert_allclose(rep["estimates"], expected, atol=1e-12)
        np.testing.assert_allclose(rep["increments"], 0.0, atol=1e-12)
        assert rep["endpoint_minus_y_term"] == pytest.approx(expected, abs=1e-12)

    def test_endpoint_decomposition_is_exact_per_instance(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        path = MonotonePath.one_step(d, 0.3)
        rep = interpolation_curve(4, 2, d, 1.0, path, [0.0, 1.0], reps=40,
                                  atoms_per_level=60, seed=2)
        enum = enumerate_free_energy(4, 2, 1.0, 40, seed=2, constraint=d)
        assert rep["endpoint_minus_y_term"] == pytest.approx(enum.value, abs=1e-10)

    def test_monotone_decreasing_within_noise(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        path = MonotonePath.one_step(d, 0.3)
        rep = interpolation_curve(4, 2, d, 1.0, path, list(np.linspace(0, 1, 6)),
                                  reps=120, atoms_per_level=100, seed=3)
        assert rep["max_positive_increment"] <= 3.0 * rep["max_increment_std_error"] + 1e-3

    def test_grid_validation(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        path = MonotonePath.one_step(d, 0.3)
        with pytest.raises(ValidationError):
            interpolation_curve(4, 2, d, 1.0, path, [0.0, 0.0, 1.0], reps=3)
        with pytest.raises(ValidationError):
            interpolation_curve(4, 2, d, 1.0, path, [0.0, 1.5], reps=3)


class TestLegendreGap:
    def test_beta_zero_exact(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        path = MonotonePath.one_step(d, 0.5)
        grid = [np.array([v]) for v in np.linspace(-1.0, 1.0, 9)]
        rep = legendre_gap(d, path, 0.0, grid, [2, 4], reps=3, atoms_per_level=20)
        assert rep["dual"] == pytest.approx(np.log(2), abs=1e-12)
        gaps = {row["M"]: row["gap"] for row in rep["rows"]}
        assert gaps[2] == pytest.approx(np.log(2) - np.log(2) / 2, abs=1e-12)
        assert gaps[4] == pytest.approx(np.log(2) - np.log(6) / 4, abs=1e-12)
        # gap shrinks with M and stays nonnegative
        assert 0.0 <= gaps[4] <= gaps[2]

    def test_empty_grid_raises(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        path = MonotonePath.one_step(d, 0.5)
        with pytest.raises(ValidationError):
            legendre_gap(d, path, 0.0, [], [2])


def test_diag_gg_residuals_share_one_bootstrap_table(monkeypatch):
    # the three residuals of one diag-gg call resample the same arrays: 200
    # index streams are made, not 3 x 200, and the report keeps its bytes
    made = []

    def counted(*key):
        made.append(key)
        return stream(*key)

    monkeypatch.setattr(diagnostics, "stream", counted)
    out, code = run(CALLS["diag-gg"])
    assert code == 0 and out == (GOLDEN / "diag-gg.out").read_bytes()
    assert len(made) == 200 and {key[1] for key in made} == {0xB007}


def test_repeated_diag_gg_calls_make_the_same_streams(monkeypatch):
    # the table belongs to one call, so a second identical call in the same
    # process draws every stream again: per-call stream counts repeat
    made = []

    def counted(*key):
        made.append(key)
        return stream(*key)

    for module in (util, cli, diagnostics):
        monkeypatch.setattr(module, "stream", counted)
    per_call = []
    for _ in range(2):
        made.clear()
        out, code = run(CALLS["diag-gg"])
        assert code == 0 and out == (GOLDEN / "diag-gg.out").read_bytes()
        per_call.append(sorted(made))
    assert len(per_call[0]) > 200 and per_call[0] == per_call[1]


def test_given_bootstrap_table_equals_the_seeded_one():
    arrays = _default_cascade_arrays(2, [0.5], 12, 3, 10, 4)
    table = diagnostics.bootstrap_indices(4, 30, len(arrays))
    assert table.shape == (30, len(arrays))
    f = lambda a: float(a.traces[0, 1])  # noqa: E731
    seeded = gg_residual(arrays, f, 2, UNIT_SPEC, n_boot=30, seed=4)
    assert gg_residual(arrays, f, 2, UNIT_SPEC, indices=table) == seeded
    with pytest.raises(ValidationError, match="columns"):
        gg_residual(arrays, f, 2, UNIT_SPEC, indices=table[:, :-1])

"""Acceptance battery: one test per headline criterion.

Each criterion test prints a single ``[criterion NN] name: PASS`` line on
success (its pytest PASSED/FAILED line carries the same information under
-v); the entropy-floor test reuses criterion 03's optimizer runs.  Heavy
shared computations (variational optimizer runs, exact enumerations) are
cached at module scope.
"""

import functools
import json

import numpy as np
import pytest

from conftest import random_path, seeded
from pottsglass.cascade import (
    CascadeSpec,
    OverlapArray,
    coincidence_masses,
    sample_cascade,
    sample_overlap_array,
    verify_y_identity,
)
from pottsglass.cli import _default_cascade_arrays
from pottsglass.core import MonotonePath, StateDistribution, path_delta, round_distribution
from pottsglass.diagnostics import (
    gg_polynomial_extension_check,
    gg_residual,
    interpolation_curve,
    legendre_gap,
    sync_fit,
)
from pottsglass.functional import (
    QuadratureSpec,
    eval_lower_bound,
    eval_parisi,
    eval_phi,
    eval_phi_cascade_mc,
)
from pottsglass.model import (
    PerturbationSpec,
    ass_covariance_check,
    enumerate_free_energy,
    mcmc_free_energy,
)
from pottsglass.optimize import inner_minimize, outer_maximize
from pottsglass.util import stream

OPT_CONFIG = {"starts": 4, "maxiter": 150}

SANDWICH_POINTS = [(2, 10, 0.5), (2, 10, 1.0), (3, 7, 1.0)]


def report_line(num, name):
    print(f"[criterion {num:02d}] {name}: PASS")


@functools.lru_cache(maxsize=None)
def cached_outer(kappa, N, beta):
    """The upper value over the N-types, as bound_check takes it."""
    return outer_maximize(kappa, beta, 1, dict(OPT_CONFIG, grid_mesh=N), seed=0)


@functools.lru_cache(maxsize=None)
def cached_enum(N, kappa, beta):
    return enumerate_free_energy(N, kappa, beta, n_disorder=200, seed=0)


def test_criterion_01_beta_zero_exactness():
    for kappa in (1, 2, 3, 4):
        d = StateDistribution.uniform(kappa)
        path = MonotonePath.one_step(d, 0.5)
        value = eval_parisi(np.zeros(kappa - 1), d, path, 0.0).value
        assert value == pytest.approx(np.log(kappa), abs=1e-9)
    res = enumerate_free_energy(4, 3, 0.0, n_disorder=8)
    assert res.value == pytest.approx(np.log(3), abs=1e-12)
    assert res.std_error == 0.0
    report_line(1, "zero-temperature exactness")


def test_criterion_02_single_state_closed_forms():
    d = StateDistribution(np.array([1.0]))
    quad = QuadratureSpec(nodes_per_dim=21)
    for x0 in np.arange(0.1, 0.95, 0.1):
        path = MonotonePath.one_step(d, float(x0))
        for beta in (0.5, 1.0, 2.0):
            phi = eval_phi([], path, beta, quad).value
            assert phi == pytest.approx(x0 * beta**2, abs=1e-8)
            value = eval_parisi([], d, path, beta, quad).value
            assert value == pytest.approx(x0 * beta**2 / 2.0, abs=1e-8)
    opt = inner_minimize(d, 1, 1.0, {"starts": 4, "maxiter": 150}, seed=0)
    assert -1e-6 <= opt.value <= 1e-3
    report_line(2, "single-state closed-form chain")


def test_criterion_03_upper_bound_sandwich():
    for kappa, N, beta in SANDWICH_POINTS:
        mid = cached_enum(N, kappa, beta)
        upper = cached_outer(kappa, N, beta)
        slack = kappa * np.log(N + 1) / N
        assert mid.value <= upper.value + slack + 3.0 * mid.std_error, (kappa, N, beta)
    report_line(3, "finite-size upper bound sandwich")


def test_criterion_04_lower_bound_consistency():
    for kappa, N, beta in SANDWICH_POINTS:
        upper = cached_outer(kappa, N, beta)
        mid = cached_enum(N, kappa, beta)
        delta = round_distribution(upper.d, 8)
        lower = eval_lower_bound(8, delta, upper.path, beta, reps=200, seed=0)
        assert lower.value <= upper.value + 3.0 * lower.std_error, (kappa, beta)
        slack = kappa * np.log(N + 1) / N
        combined = 3.0 * (lower.std_error + mid.std_error)
        assert lower.value <= mid.value + slack + combined, (kappa, beta)
    report_line(4, "restricted-set lower bound consistency")


def test_type_values_above_entropy_floor():
    # Jensen under the uniform measure on a type class: F_N(d) >= H(d) in
    # the limit, so no honest upper value lies below the entropy
    for kappa, N, beta in SANDWICH_POINTS:
        upper = cached_outer(kappa, N, beta)
        for d, value in zip(upper.extra["types"], upper.extra["type_values"]):
            p = np.array([v for v in d if v > 0.0])
            assert value >= -float(np.sum(p * np.log(p))) - 1e-9, (kappa, beta, d, value)


def test_criterion_05_cascade_y_identity():
    rng = seeded(105, 0)
    for trial in range(5):
        kappa = int(rng.integers(1, 4))
        r = int(rng.integers(1, 3))
        w = rng.uniform(0.1, 1.0, size=kappa)
        d = StateDistribution(w / w.sum())
        path = random_path(rng, d, r)
        rep = verify_y_identity(path, 1.0, reps=300, atoms_per_level=200, seed=trial)
        assert rep["passed"], rep
    report_line(5, "cascade log-moment identity for the scalar field")


def test_criterion_06_dual_method_phi():
    rng = seeded(106, 0)
    quad = QuadratureSpec(nodes_per_dim=15)
    for trial in range(10):
        d = StateDistribution(np.array([0.55, 0.45]))
        path = random_path(rng, d, 2)
        lam = [float(rng.uniform(-0.5, 0.5))]
        beta = float(rng.uniform(0.3, 1.2))
        quad_value = eval_phi(lam, path, beta, quad).value
        mc = eval_phi_cascade_mc(lam, path, beta, reps=100, atoms_per_level=200, seed=trial)
        mc2 = eval_phi_cascade_mc(lam, path, beta, reps=100, atoms_per_level=400, seed=trial)
        allowance = abs(mc.value - mc2.value)
        assert abs(mc.value - quad_value) <= 3.0 * mc.std_error + allowance + 1e-12, trial
    report_line(6, "quadrature vs cascade Monte Carlo agreement")


def test_criterion_07_coincidence_masses():
    spec = CascadeSpec((0.2, 0.45), atoms_per_level=200)
    est, se = coincidence_masses(spec, 10_000, seed=0)
    targets = np.array([0.2, 0.25, 0.55])
    assert np.all(np.abs(est - targets) <= 3.0 * se), (est, targets, se)
    report_line(7, "pair-coincidence masses match level parameters")


def test_criterion_08_moment_identities():
    arrays = _default_cascade_arrays(2, [0.3, 0.6], 400, 4, 200, seed=0)
    specs = [
        PerturbationSpec(p=1, n=(1,), lambdas=np.array([[1.0, 0.0]])),
        PerturbationSpec(p=1, n=(1,), lambdas=np.array([[0.5, -0.5]])),
        PerturbationSpec(p=2, n=(1,), lambdas=np.ones((1, 2))),
        PerturbationSpec(p=1, n=(2,), lambdas=np.array([[0.7, 0.2]])),
        PerturbationSpec(p=2, n=(1, 1), lambdas=np.array([[1.0, -1.0], [0.3, 0.9]])),
    ]
    fs = {
        "constant": lambda a: 1.0,
        "polynomial": lambda a: float(np.clip(a.traces[0, 1], 0.0, 1.0) ** 2),
    }
    for spec in specs:
        for f in fs.values():
            for n in (2, 3):
                res = gg_residual(arrays, f, n, spec, seed=1)
                assert res["residual"] <= 3.0 * res["std_error"] + 1e-12, (spec, n)
    # trivial exact zeros: constant off-diagonal blocks, any f and n
    block = np.array([[0.3, 0.1], [0.1, 0.2]])
    traces = np.full((4, 4), float(np.trace(block)))
    np.fill_diagonal(traces, 0.5)
    blocks = np.tile(block, (4, 4, 1, 1))
    for i in range(4):
        blocks[i, i] = np.diag([0.25, 0.25])
    const = [OverlapArray(traces.copy(), blocks.copy()) for _ in range(30)]
    z1 = gg_residual(const, lambda a: 1.0, 2, specs[0], n_boot=10)
    z2 = gg_polynomial_extension_check(
        const, lambda forms: float(np.prod(forms)), 3, specs[0], n_boot=10
    )
    assert z1["residual"] <= 1e-14 and z2["residual"] <= 1e-14
    report_line(8, "replica moment identities on cascade arrays")


def test_criterion_09_synchronization():
    kappa = 2

    def generator(t):
        # L1 Lipschitz constant 1
        return t * np.eye(kappa) / kappa

    spec = CascadeSpec((0.3, 0.6), atoms_per_level=100)
    arrays = []
    for i in range(100):
        rng = stream(0, 0x5C9, i)
        q = np.sort(rng.uniform(0.0, 0.5, size=3))
        q[0] = 0.0
        sample = sample_cascade(spec, rng)
        arrays.append(sample_overlap_array(sample, q, generator, 16, rng))
    n_blocks = sum(a.off_diagonal_blocks()[0].shape[0] for a in arrays)
    assert n_blocks >= 10_000
    fit = sync_fit(arrays, n_bins=25)
    assert fit.residual <= 2.0 * fit.bin_width * 1.0, (fit.residual, fit.bin_width)
    # constructed violation: one trace value carrying two incompatible blocks
    n = 16
    traces = np.full((n, n), 0.5)
    blocks = np.empty((n, n, kappa, kappa))
    a = np.array([[0.5, 0.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [0.0, 0.5]])
    for i in range(n):
        for j in range(n):
            blocks[i, j] = a if (i + j) % 2 == 0 else b
    violation = sync_fit([OverlapArray(traces, blocks)])
    assert violation.residual >= 10.0 * fit.residual
    report_line(9, "block synchronization with the overlap trace")


def test_criterion_10_interpolation_monotonicity():
    d = StateDistribution(np.array([0.5, 0.5]))
    path = MonotonePath.one_step(d, 0.3)
    rep = interpolation_curve(
        4, 2, d, 1.0, path, list(np.linspace(0.0, 1.0, 6)), reps=300,
        atoms_per_level=200, seed=0,
    )
    assert rep["max_positive_increment"] <= 3.0 * rep["max_increment_std_error"]
    enum = enumerate_free_energy(4, 2, 1.0, n_disorder=300, seed=0, constraint=d)
    gap = abs(rep["endpoint_minus_y_term"] - enum.value)
    assert gap <= 3.0 * (rep["endpoint_std_error"] + enum.std_error)
    report_line(10, "interpolation monotone decrease and endpoint split")


def test_criterion_11_legendre_gap():
    d = StateDistribution(np.array([0.5, 0.5]))
    path = MonotonePath.one_step(d, 0.5)
    grid = [np.array([v]) for v in np.linspace(-1.0, 1.0, 9)]
    cold = legendre_gap(d, path, 0.0, grid, [4], reps=3, atoms_per_level=20)
    exact = np.log(2) - np.log(6) / 4
    assert cold["rows"][0]["gap"] == pytest.approx(exact, abs=1e-12)
    warm = legendre_gap(d, path, 1.0, grid, [2, 4, 8], reps=200, seed=0)
    gaps = [row["gap"] for row in warm["rows"]]
    ses = [row["std_error"] for row in warm["rows"]]
    for g, s in zip(gaps, ses):
        assert g >= -3.0 * s
    for i in range(1, len(gaps)):
        assert gaps[i] <= gaps[i - 1] + 3.0 * (ses[i] + ses[i - 1])
    report_line(11, "duality gap: exact cold value, nonnegative shrinking gap")


def test_criterion_12_lipschitz_continuity():
    rng = seeded(112, 0)
    d = StateDistribution(np.array([0.5, 0.5]))
    beta = 1.0
    quad = QuadratureSpec(nodes_per_dim=11)
    checked = 0
    while checked < 100:
        p = random_path(rng, d, int(rng.integers(1, 3)))
        q = random_path(rng, d, int(rng.integers(1, 3)))
        delta = path_delta(p, q)
        if delta < 0.01:
            continue
        fp = eval_phi([0.0], p, beta, quad).value
        fq = eval_phi([0.0], q, beta, quad).value
        assert abs(fp - fq) / delta <= beta**2 + 1e-9
        checked += 1
    report_line(12, "path-metric Lipschitz bound for the recursion value")


def test_criterion_13_cavity_covariances():
    report = ass_covariance_check(4, 2, 2, n_pairs=3, n_draws=10_000, seed=0)
    assert report["passed"], report
    report_line(13, "cavity field covariances and exact split identity")


def test_criterion_14_thread_determinism():
    def runs(threads):
        d = StateDistribution(np.array([0.5, 0.5]))
        path = MonotonePath.one_step(d, 0.3)
        out = {
            "enum": enumerate_free_energy(5, 2, 0.8, 16, seed=3, threads=threads).to_json_dict(),
            "mcmc": mcmc_free_energy(6, 2, 0.5, d, n_disorder=4, sweeps=20, burn=10,
                                     seed=3, threads=threads).to_json_dict(),
            "phi_mc": eval_phi_cascade_mc([0.1], path, 1.0, reps=8, atoms_per_level=50,
                                          seed=3, threads=threads).to_json_dict(),
            "y": verify_y_identity(path, 1.0, reps=8, atoms_per_level=50, seed=3,
                                   threads=threads),
            "interp": interpolation_curve(4, 2, d, 1.0, path, [0.0, 0.5, 1.0], reps=8,
                                          atoms_per_level=50, seed=3, threads=threads),
            "inner": inner_minimize(d, 1, 0.8, {"starts": 4, "maxiter": 60}, seed=3).to_json_dict(),
        }
        return json.dumps(out, sort_keys=True)

    assert runs(1) == runs(8)
    report_line(14, "byte-identical reports across thread counts")

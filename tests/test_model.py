import itertools
import json
import tracemalloc

import numpy as np
import pytest

from conftest import seeded
from pottsglass import model
from pottsglass.core import StateDistribution
from pottsglass.model import (
    DisorderInstance,
    PerturbationSpec,
    _tempered_ladders,
    ass_covariance_check,
    config_energies,
    enumerate_configs,
    enumerate_free_energy,
    hamiltonian,
    mcmc_free_energy,
    _one_hot,
    mean_energy,
    overlap,
    perturbation_covariance,
    quadratic_forms,
)
from pottsglass.util import BudgetError, ValidationError, stream
from test_util import reference_jackknife_se


class TestDisorderInstance:
    def test_reproducible(self):
        a = DisorderInstance(5, seed=3)
        b = DisorderInstance(5, seed=3)
        np.testing.assert_array_equal(a.g, b.g)
        c = DisorderInstance(5, seed=3, draw=1)
        assert not np.array_equal(a.g, c.g)

    def test_drawn_from_its_key_only(self):
        with pytest.raises(TypeError):
            DisorderInstance(2, seed=0, g=np.ones((2, 2)))
        with pytest.raises(ValidationError):
            DisorderInstance(0, seed=0)


class TestHamiltonian:
    def test_single_site(self):
        g = DisorderInstance(1, seed=0)
        assert hamiltonian(g, [1]) == pytest.approx(float(g.g[0, 0]))

    def test_two_sites(self):
        g = DisorderInstance(2, seed=0)
        same = (g.g[0, 0] + g.g[0, 1] + g.g[1, 0] + g.g[1, 1]) / np.sqrt(2)
        diff = (g.g[0, 0] + g.g[1, 1]) / np.sqrt(2)
        assert hamiltonian(g, [1, 1]) == pytest.approx(float(same))
        assert hamiltonian(g, [1, 2]) == pytest.approx(float(diff))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            hamiltonian(DisorderInstance(2, seed=0), [1, 1, 1])

    def test_covariance_identity(self):
        # sum over site pairs of eq1*eq2 equals N * sum R^2 exactly
        rng = seeded(30, 0)
        n, kappa = 9, 3
        for _ in range(10):
            a = rng.integers(1, kappa + 1, size=n)
            b = rng.integers(1, kappa + 1, size=n)
            eq1 = (a[:, None] == a[None, :]).astype(float)
            eq2 = (b[:, None] == b[None, :]).astype(float)
            lhs = float(np.sum(eq1 * eq2)) / n
            r = overlap(a, b, kappa)
            assert lhs == pytest.approx(n * float(np.sum(r**2)), abs=1e-12)


class TestOverlap:
    def test_small_example(self):
        r = overlap([1, 2, 2, 1], [1, 1, 2, 2], kappa=2)
        np.testing.assert_allclose(r, 0.25)
        assert np.trace(r) == pytest.approx(0.5)

    def test_self_overlap_is_diagonal(self):
        r = overlap([1, 1, 2], [1, 1, 2], kappa=2)
        np.testing.assert_allclose(r, np.diag([2 / 3, 1 / 3]))

    def test_unused_states_give_zero_rows(self):
        r = overlap([1, 1], [1, 2], kappa=3)
        np.testing.assert_array_equal(r, [[0.5, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("a", [[0, 1], [1, 3]], ids=["zero", "above-kappa"])
    def test_labels_out_of_range_raise(self, a):
        with pytest.raises(ValidationError):
            overlap(a, [1, 1], kappa=2)


class TestEnumerateConfigs:
    def test_counts_full(self):
        c = enumerate_configs(3, 2)
        assert c.shape == (8, 3)
        assert np.array_equal(c[0], [1, 1, 1]) and np.array_equal(c[-1], [2, 2, 2])

    def test_constrained(self):
        c = enumerate_configs(3, 2, counts=[2, 1])
        assert c.shape == (3, 3)

    def test_empty_constraint_raises(self):
        with pytest.raises(ValidationError):
            enumerate_configs(3, 2, counts=[4, -1])

    def test_budget(self):
        with pytest.raises(BudgetError):
            enumerate_configs(16, 3)

    def test_budget_counts_the_constrained_rows(self):
        # 3^20 candidates exceed the budget, but only 20 * 19 rows meet the counts
        c = enumerate_configs(20, 3, [18, 1, 1])
        assert c.shape == (380, 20)
        assert np.all(np.count_nonzero(c == 1, axis=1) == 18)
        assert np.all(np.diff(c @ 3 ** np.arange(19, -1, -1)) > 0)  # lexicographic
        with pytest.raises(BudgetError):
            enumerate_configs(24, 3, [8, 8, 8])

    def test_budget_counts_the_cells(self):
        # few rows, but rows x N labels exceed the budget
        with pytest.raises(BudgetError):
            enumerate_configs(5000, 2, [4999, 1])
        with pytest.raises(BudgetError):
            enumerate_configs(300, 2, [297, 3])
        with pytest.raises(BudgetError):
            enumerate_configs(13, 3)

    @pytest.mark.parametrize(
        "N,counts",
        [(4, [2, 2]), (9, [3, 3, 3]), (12, [6, 6]), (6, [1, 2, 3])],
        ids=["4-22", "9-333", "12-66", "6-123"],
    )
    def test_constrained_matches_filtered_product(self, N, counts):
        # every label vector with the given counts, in itertools.product order
        kappa = len(counts)
        rows = [
            c
            for c in itertools.product(range(1, kappa + 1), repeat=N)
            if all(c.count(k + 1) == counts[k] for k in range(kappa))
        ]
        c = enumerate_configs(N, kappa, counts)
        assert c.dtype == np.int64
        assert np.array_equal(c, np.asarray(rows, dtype=np.int64))

    @pytest.mark.parametrize(
        "N,kappa,counts",
        [(4, 2, [2, 1]), (4, 2, [2, 1, 1]), (3, 3, [2, 1]), (3, 2, [4, -1])],
        ids=["wrong-sum", "too-long", "too-short", "negative"],
    )
    def test_bad_counts(self, N, kappa, counts):
        with pytest.raises(ValidationError):
            enumerate_configs(N, kappa, counts)


class TestConfigEnergies:
    def test_matches_hamiltonian_in_bounded_chunks(self):
        # 200 rows of 200 sites: one chunk would hold 200 * 200^2 site pairs
        # (a 64 MB float cast); chunks are sized by N^2 instead
        configs = enumerate_configs(200, 2, [199, 1])
        g = DisorderInstance(200, seed=4)
        tracemalloc.start()
        try:
            h = config_energies(configs, g.g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        for row in (0, 77, 199):
            assert h[row] == pytest.approx(hamiltonian(g, configs[row]), rel=1e-12, abs=1e-12)


class TestMeanEnergy:
    @pytest.mark.parametrize("kappa", [2, 3])
    @pytest.mark.parametrize("N", [1, 2, 5, 8])
    @pytest.mark.parametrize("kind", ["free", "balanced", "empty-state"])
    def test_is_the_mean_over_the_configuration_set(self, kind, N, kappa):
        counts = None
        if kind != "free":
            k = kappa - 1 if kind == "empty-state" else kappa
            counts = [N // k + (j < N % k) for j in range(k)] + [0] * (kappa - k)
        g = DisorderInstance(N, seed=11, draw=kappa).g
        energies = config_energies(enumerate_configs(N, kappa, counts), g)
        assert mean_energy(g, kappa, counts) == pytest.approx(energies.mean(), rel=0, abs=1e-12)


class TestEnumerateFreeEnergy:
    def test_large_n_small_minority_is_a_budget_error(self):
        d = StateDistribution(np.array([0.9998, 0.0002]))
        with pytest.raises(BudgetError):
            enumerate_free_energy(5000, 2, 1.0, n_disorder=2, constraint=d)

    def test_beta_zero_exact(self):
        res = enumerate_free_energy(4, 3, 0.0, n_disorder=5)
        assert res.value == pytest.approx(np.log(3), abs=1e-12)
        assert res.std_error == 0.0

    def test_single_site_matches_mean_field(self):
        res = enumerate_free_energy(1, 2, 1.0, n_disorder=600, seed=1)
        assert abs(res.value - np.log(2)) <= 4.0 * res.std_error

    def test_constrained_beta_zero(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        res = enumerate_free_energy(2, 2, 0.0, n_disorder=4, constraint=d)
        assert res.value == pytest.approx(np.log(2) / 2, abs=1e-12)
        assert res.diagnostics["n_configurations"] == 2


def _ladders(n, counts, draws, seed=5):
    """20 sweeps after 5 of burn-in of the tempered kernel on 9 rungs up to
    beta = 1.5, over the given draws of (seed, n), each from the stream
    mcmc_free_energy gives it."""
    g = np.stack([DisorderInstance(n, seed, draw=i).g for i in draws])
    s_sum = g + g.transpose(0, 2, 1)
    rngs = [stream(seed, 0x3C3C, n, i) for i in draws]
    beta_grid = np.linspace(0.0, 1.5, 9)
    return s_sum, _tempered_ladders(s_sum, np.asarray(counts), beta_grid, 20, 5, rngs)


class TestMcmc:
    def test_ladder_bookkeeping(self):
        # kappa = 3, N = 21, 3 draws x 9 rungs: after the sweeps every chain's
        # tracked energy and local fields match a fresh computation, and the
        # swaps kept its type counts
        n, counts = 21, [9, 7, 5]
        s_sum, run = _ladders(n, counts, range(3))
        assert run.labels.shape == (3, 9, n) and run.fields.shape == (3, 9, 3, n)
        assert np.all(run.move_rate > 0) and np.all(run.exchange_rate > 0)
        for d in range(3):
            g = DisorderInstance(n, seed=5, draw=d)
            for r in range(9):
                sigma = run.labels[d, r]
                assert np.array_equal(np.bincount(sigma, minlength=3), counts)
                assert run.energy[d, r] == pytest.approx(hamiltonian(g, sigma + 1), rel=0, abs=1e-10)
                one_hot = (sigma[:, None] == np.arange(3)).astype(float)
                np.testing.assert_allclose(run.fields[d, r], (s_sum[d] @ one_hot).T, rtol=0, atol=1e-10)

    def test_a_draw_runs_as_it_would_alone(self):
        # each draw reads only its own stream and its own chains, so a batch
        # reproduces the lone run bit for bit
        _, batch = _ladders(10, [4, 3, 3], range(3))
        _, alone = _ladders(10, [4, 3, 3], [1])
        np.testing.assert_array_equal(batch.labels[1], alone.labels[0])
        np.testing.assert_array_equal(batch.mean_energy[1], alone.mean_energy[0])
        np.testing.assert_array_equal(batch.move_rate[1], alone.move_rate[0])

    @pytest.mark.parametrize("sweeps,burn", [(0, 5), (5, -1)], ids=["no-sweeps", "negative-burn"])
    def test_sweeps_and_burn_are_checked(self, sweeps, burn):
        d = StateDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            mcmc_free_energy(6, 2, 0.5, d, n_disorder=2, sweeps=sweeps, burn=burn)

    @pytest.mark.parametrize("n_beta", [0, 1])
    def test_fewer_than_two_rungs_rejected(self, n_beta):
        # a ladder needs its beta = 0 end and its target end
        d = StateDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ValidationError, match="2 tempering rungs"):
            mcmc_free_energy(6, 2, 0.5, d, n_disorder=2, n_beta=n_beta, sweeps=5)

    def test_beta_zero_is_entropy(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        res = mcmc_free_energy(6, 2, 0.0, d, n_disorder=2, sweeps=5, burn=2)
        assert res.value == pytest.approx(np.log(20) / 6, abs=1e-12)
        # every exchange between rungs at one temperature is accepted
        assert res.diagnostics["exchange_acceptance"] == [1.0] * 8
        assert res.diagnostics["swap_acceptance"] == 1.0

    @pytest.mark.parametrize("n_beta", [9, 4])
    def test_diagnostics(self, n_beta):
        d = StateDistribution.uniform(3)
        res = mcmc_free_energy(9, 3, 1.2, d, n_disorder=2, n_beta=n_beta, sweeps=40, burn=0, seed=4)
        diag = res.diagnostics
        moves, exchanges = diag["metropolis_acceptance"], diag["exchange_acceptance"]
        assert len(moves) == n_beta and len(exchanges) == n_beta - 1
        assert all(0.0 < v <= 1.0 for v in moves + exchanges)
        assert diag["swap_acceptance"] == pytest.approx(np.mean(exchanges), abs=1e-15)
        assert 0.0 <= diag["energy_drift"] < 1e-12 and diag["warnings"] == []
        # composite trapezoid minus composite Simpson on the odd rung prefix
        # (9 rungs, or 3 of 4)
        m = 9 if n_beta == 9 else 3
        h = 1.2 / (n_beta - 1)
        trapezoid = h * np.array([0.5] + [1.0] * (m - 2) + [0.5])
        simpson = h / 3 * np.array([1] + [4, 2] * ((m - 3) // 2) + [4, 1])
        gap = float((trapezoid - simpson) @ diag["grid_mean_energy"][:m]) / 9
        assert diag["ti_simpson_gap"] == pytest.approx(gap, rel=1e-9, abs=1e-15)

    def test_matches_enumeration(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        res_m = mcmc_free_energy(8, 2, 0.75, d, n_disorder=8, sweeps=250, burn=120, seed=2)
        res_e = enumerate_free_energy(8, 2, 0.75, n_disorder=300, seed=2, constraint=d)
        tol = 4.0 * (res_m.std_error + res_e.std_error) + 0.02
        assert abs(res_m.value - res_e.value) <= tol
        assert res_m.diagnostics["warnings"] == []

    def test_kappa_must_match_d(self):
        with pytest.raises(ValidationError):
            mcmc_free_energy(6, 3, 0.5, StateDistribution.uniform(2), n_disorder=2, sweeps=2, burn=1)

    def test_within_the_annealed_bound_at_n48(self):
        # the two draws of the finite-size benchmark's seed 144, rep 2: both
        # sit high on the sigma-independent disorder mode (beta * mean_energy
        # / N = +0.089 and +0.102).  Uncentred they read 1.2179 (1.2160 with
        # the former per-attempt draws), above the annealed 1.1804; centred
        # they read 1.1224 +- 0.0018
        d = StateDistribution.uniform(3)
        res = mcmc_free_energy(48, 3, 1.0, d, n_disorder=2, seed=1009533187)
        annealed = res.diagnostics["entropy_term"] + 0.5 * float(np.sum(d.d**2))
        assert res.value <= annealed + 3.0 * res.std_error


class TestPerturbationSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            PerturbationSpec(p=0, n=(1,), lambdas=np.ones((1, 2)))
        with pytest.raises(ValidationError):
            PerturbationSpec(p=1, n=(1,), lambdas=2.0 * np.ones((1, 2)))
        with pytest.raises(ValidationError):
            PerturbationSpec(p=1, n=(1, 1), lambdas=np.ones((1, 2)))

    def test_covariance_oracles(self):
        r = overlap([1, 2, 2, 1], [1, 1, 2, 1], kappa=2)
        e1 = PerturbationSpec(p=1, n=(1,), lambdas=np.array([[1.0, 0.0]]))
        assert perturbation_covariance(e1, r) == pytest.approx(float(r[0, 0]))
        ones = PerturbationSpec(p=1, n=(3,), lambdas=np.ones((1, 2)))
        assert perturbation_covariance(ones, r) == pytest.approx(1.0)
        sq = PerturbationSpec(p=2, n=(1,), lambdas=np.ones((1, 2)))
        assert perturbation_covariance(sq, r) == pytest.approx(float(np.sum(r**2)))

    def test_quadratic_forms_consistency(self):
        r = overlap([1, 2, 2, 1], [1, 1, 2, 1], kappa=2)
        spec = PerturbationSpec(
            p=2, n=(2, 1), lambdas=np.array([[0.5, -0.5], [1.0, 0.3]])
        )
        forms = quadratic_forms(spec, r)
        assert perturbation_covariance(spec, r) == pytest.approx(
            float(forms[0] ** 2 * forms[1])
        )

    def test_diagonal_replica_closed_form(self):
        # self-overlap of a configuration with frequencies f: the form with
        # all-ones lambda and Hadamard power p is sum_k f_k^p
        r = overlap([1, 1, 2, 3], [1, 1, 2, 3], kappa=3)
        f = np.array([0.5, 0.25, 0.25])
        for p in (1, 2, 3):
            spec = PerturbationSpec(p=p, n=(1,), lambdas=np.ones((1, 3)))
            assert perturbation_covariance(spec, r) == pytest.approx(float(np.sum(f**p)))


class TestAssCheck:
    def test_passes_at_small_size(self):
        report = ass_covariance_check(4, 2, 2, n_pairs=3, n_draws=8000, seed=0)
        assert report["passed"]
        for pair in report["pairs"]:
            assert pair["split_identity_residual"] <= 1e-10

    def test_m_zero_skips_local_fields(self):
        report = ass_covariance_check(3, 0, 2, n_pairs=2, n_draws=4000, seed=0)
        assert report["passed"]
        assert "z_passed" not in report["pairs"][0]

    def test_draw_floor(self):
        with pytest.raises(ValidationError):
            ass_covariance_check(3, 1, 2, n_draws=10)


def reference_cov_with_se(x, y):
    """The per-entry cross-moment and error that ass_covariance_check took
    before its product array."""
    prod = x * y
    return float(prod.mean()), reference_jackknife_se(prod)


def reference_ass_covariance_check(N, M, kappa, n_pairs, n_draws, seed, z_ses):
    """ass_covariance_check as it was, entry by entry, for N, M > 0; each
    pair's kappa x kappa error table is appended to z_ses."""
    rng = stream(seed, 0xA55)
    pairs = [(np.ones(N, dtype=np.int64), np.ones(N, dtype=np.int64))]
    while len(pairs) < n_pairs:
        pairs.append(
            (rng.integers(1, kappa + 1, size=N), rng.integers(1, kappa + 1, size=N))
        )
    checks = []
    for idx, (s1, s2) in enumerate(pairs):
        r = overlap(s1, s2, kappa)
        draws = stream(seed, 0xA55, 1, idx)
        pair_report = {"pair": idx, "sigma1": s1.tolist(), "sigma2": s2.tolist()}
        c = draws.standard_normal((n_draws, N)) + draws.standard_normal((n_draws, N))
        z1 = c @ _one_hot(s1, kappa) / np.sqrt(N + M)
        z2 = c @ _one_hot(s2, kappa) / np.sqrt(N + M)
        z_err = np.zeros((kappa, kappa))
        z_se = np.zeros((kappa, kappa))
        target_z = 2.0 * N / (N + M) * r
        for k in range(kappa):
            for kp in range(kappa):
                est, se = reference_cov_with_se(z1[:, k], z2[:, kp])
                z_err[k, kp] = est - target_z[k, kp]
                z_se[k, kp] = se
        z_ses.append(z_se)
        pair_report["z_max_error"] = float(np.max(np.abs(z_err)))
        pair_report["z_passed"] = bool(np.all(np.abs(z_err) <= 3.0 * z_se + 1e-12))
        gp = draws.standard_normal((n_draws, N * N))
        mask1 = (s1[:, None] == s1[None, :]).astype(float).ravel()
        mask2 = (s2[:, None] == s2[None, :]).astype(float).ravel()
        y1 = gp @ mask1 / np.sqrt(N * (N + M))
        y2 = gp @ mask2 / np.sqrt(N * (N + M))
        y_est, y_se = reference_cov_with_se(y1, y2)
        target_y = N / (N + M) * float(np.sum(r**2))
        pair_report["y_estimate"] = y_est
        pair_report["y_target"] = target_y
        pair_report["y_passed"] = bool(abs(y_est - target_y) <= 3.0 * y_se + 1e-12)
        lhs = N * float(np.sum(r**2))
        rhs = N**2 / (N + M) * float(np.sum(r**2)) + M * target_y
        pair_report["split_identity_residual"] = abs(lhs - rhs)
        checks.append(pair_report)
    passed = all(
        c.get("z_passed", True) and c["y_passed"] and c["split_identity_residual"] <= 1e-10
        for c in checks
    )
    return {"N": N, "M": M, "kappa": kappa, "n_draws": n_draws, "pairs": checks, "passed": passed}


@pytest.mark.parametrize("kappa", [1, 2, 3])
def test_ass_check_product_array_is_the_per_entry_loop(kappa, monkeypatch):
    # every entry's error bit for bit, and the report byte for byte
    z_ses = []
    expected = reference_ass_covariance_check(5, 2, kappa, 4, 1500, 7, z_ses)
    errors = []
    real = model.jackknife_se

    def recorded(values, axis=-1):
        errors.append(real(values, axis))
        return errors[-1]

    monkeypatch.setattr(model, "jackknife_se", recorded)
    report = ass_covariance_check(5, 2, kappa, n_pairs=4, n_draws=1500, seed=7)
    assert json.dumps(report) == json.dumps(expected)
    tables = [se for se in errors if np.ndim(se) == 2]
    assert len(tables) == len(z_ses) == 4
    for got, want in zip(tables, z_ses):
        assert got.tobytes() == want.tobytes()

import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import seeded
from pottsglass.core import StateDistribution
from pottsglass.model import (
    DisorderInstance,
    PerturbationSpec,
    _pair_swap_sweep,
    ass_covariance_check,
    config_energies,
    enumerate_configs,
    enumerate_free_energy,
    hamiltonian,
    mcmc_free_energy,
    mean_energy,
    overlap,
    perturbation_covariance,
    quadratic_forms,
)
from pottsglass.util import BudgetError, ValidationError


class TestDisorderInstance:
    def test_reproducible(self):
        a = DisorderInstance(5, seed=3)
        b = DisorderInstance(5, seed=3)
        np.testing.assert_array_equal(a.g, b.g)
        c = DisorderInstance(5, seed=3, draw=1)
        assert not np.array_equal(a.g, c.g)

    def test_explicit_matrix_validated(self):
        with pytest.raises(ValidationError):
            DisorderInstance(2, seed=0, g=np.ones((3, 3)))
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


class TestMcmc:
    def test_sweep_energy_bookkeeping(self):
        g = DisorderInstance(10, seed=5)
        rng = seeded(31, 0)
        sigma = np.repeat([1, 2], 5)
        rng.shuffle(sigma)
        h0 = hamiltonian(g, sigma)
        s_sum = g.g + g.g.T
        total = 0.0
        for _ in range(5):
            _, dh = _pair_swap_sweep(sigma, s_sum, 0.8, np.sqrt(10), rng)
            total += dh
        assert hamiltonian(g, sigma) == pytest.approx(h0 + total, abs=1e-10)

    def test_beta_zero_is_entropy(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        res = mcmc_free_energy(6, 2, 0.0, d, n_disorder=2, sweeps=5, burn=2)
        assert res.value == pytest.approx(np.log(20) / 6, abs=1e-12)

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
        # / N = +0.089 and +0.102), and uncentred they read 1.2160
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

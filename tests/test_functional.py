import itertools

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import random_distribution, random_path, seeded
from test_fold import oracle_log_leaf_weights
from pottsglass import functional
from pottsglass.cascade import CascadeSpec, level_factors, sample_cascade, sample_level_fields
from pottsglass.core import EvalResult, MonotonePath, StateDistribution, hs_telescoped, psd_factor
from pottsglass.functional import (
    MAX_NODES_PER_DIM,
    RANK_TOL,
    QuadratureSpec,
    _gh_grid,
    _gh_nodes,
    eval_f1_restricted,
    eval_f2,
    eval_lower_bound,
    eval_parisi,
    eval_parisi_rows,
    eval_phi,
    eval_phi_cascade_mc,
)
from pottsglass.model import enumerate_configs
from pottsglass.util import BudgetError, ValidationError, stream


class TestQuadratureSpec:
    def test_rejects_even_nodes(self):
        with pytest.raises(ValidationError):
            QuadratureSpec(nodes_per_dim=8)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValidationError):
            QuadratureSpec(nodes_per_dim=1)

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValidationError):
            QuadratureSpec(nodes_per_dim=9, budget=4)

    def test_nodes_per_dim_capped(self):
        # a rank-1 level would pass the node budget with any count below it
        QuadratureSpec(nodes_per_dim=MAX_NODES_PER_DIM)
        with pytest.raises(BudgetError):
            QuadratureSpec(nodes_per_dim=MAX_NODES_PER_DIM + 2)


class TestEvalResult:
    def test_quadrature_must_be_deterministic(self):
        with pytest.raises(ValidationError):
            EvalResult(1.0, 0.5, "quadrature")

    def test_json(self):
        r = EvalResult(1.0, 0.1, "cascade-mc", {"reps": 3})
        assert r.to_json_dict()["method"] == "cascade-mc"


class TestEvalPhi:
    def test_beta_zero_is_log_kappa(self):
        for kappa in (1, 2, 3):
            d = StateDistribution.uniform(kappa)
            p = MonotonePath.one_step(d, 0.5)
            assert eval_phi(np.zeros(kappa - 1), p, 0.0).value == pytest.approx(
                np.log(kappa), abs=1e-12
            )

    def test_single_state_closed_form(self):
        # one state, one level: the value is x_0 * beta^2
        d = StateDistribution(np.array([1.0]))
        quad = QuadratureSpec(nodes_per_dim=21)
        for x0 in (0.2, 0.5, 0.8):
            for beta in (0.5, 1.0, 2.0):
                p = MonotonePath.one_step(d, x0)
                assert eval_phi([], p, beta, quad).value == pytest.approx(
                    x0 * beta**2, abs=1e-8
                )

    def test_zero_level_takes_plain_mean(self):
        # x_0 = 0 contributes nothing; only the x_1 = 0.5 level tilts
        d = StateDistribution(np.array([1.0]))
        p = MonotonePath(
            d, np.array([0.0, 0.0, 0.5, 1.0]), np.array([[[0.0]], [[0.3]], [[1.0]]])
        )
        # the second increment has variance 2 * 0.7; its level value is
        # beta*s + x_1 * beta^2 * 0.7, and the plain mean drops the field
        assert eval_phi([], p, 1.0, QuadratureSpec(nodes_per_dim=21)).value == (
            pytest.approx(0.5 * 0.7 * 2.0 / 2.0 * 1.0 * 2.0 * 0.5, abs=1e-8)
        )

    def test_budget_error_names_count(self):
        rng = seeded(21, 0)
        d = StateDistribution(np.array([0.5, 0.5]))
        p = random_path(rng, d, 2)
        with pytest.raises(BudgetError, match="budget"):
            eval_phi([0.0], p, 1.0, QuadratureSpec(nodes_per_dim=9, budget=50))

    def test_budget_checked_before_any_grid(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"hermgauss({n}) called")

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", refuse)
        _gh_grid.cache_clear()
        p = MonotonePath.one_step(StateDistribution.uniform(3), 0.5)
        with pytest.raises(BudgetError, match="1030301 node evaluations"):
            eval_phi([0.0, 0.0], p, 1.0, QuadratureSpec(nodes_per_dim=101))
        _gh_grid.cache_clear()

    @pytest.mark.parametrize("kappa,r", [(2, 1), (2, 2), (3, 1)])
    def test_continuous_as_x0_goes_to_zero(self, kappa, r):
        # the level's value moves by about x_0 Var/2 from its x_0 = 0 mean
        rng = seeded(25, kappa, r)
        for _ in range(3):
            d = random_distribution(rng, kappa)
            path = random_path(rng, d, r)
            lam = rng.uniform(-1.0, 1.0, size=kappa - 1)
            beta = float(rng.uniform(0.5, 2.0))

            def at(x0):
                xs = np.array(path.xs)
                xs[1] = x0
                return eval_phi(lam, MonotonePath(d, xs, path.gammas), beta).value

            zero = at(0.0)
            for x0 in (1e-6, 1e-9, 1e-12, 1e-15, 1e-300):
                assert abs(at(x0) - zero) <= 3.0 * x0 + 1e-13, x0

    def test_negative_beta_rejected(self):
        p = MonotonePath.one_step(StateDistribution.uniform(2), 0.5)
        with pytest.raises(ValidationError):
            eval_phi([0.0], p, -1.0)

    def test_quadrature_matches_cascade_mc(self):
        rng = seeded(22, 0)
        d = StateDistribution(np.array([0.55, 0.45]))
        p = random_path(rng, d, 2)
        quad_value = eval_phi([0.2], p, 1.0, QuadratureSpec(nodes_per_dim=15)).value
        mc = eval_phi_cascade_mc([0.2], p, 1.0, reps=120, atoms_per_level=150, seed=1)
        mc2 = eval_phi_cascade_mc([0.2], p, 1.0, reps=120, atoms_per_level=300, seed=1)
        allowance = abs(mc.value - mc2.value)
        assert abs(mc.value - quad_value) <= 4.0 * mc.std_error + allowance + 1e-3

    def test_cascade_mc_is_the_one_site_average(self):
        # per leaf: log sum_k exp(beta z_k + lambda_k), then over the leaves
        # with the cascade weights, from the same replicate streams
        rng = seeded(22, 1)
        d = StateDistribution(np.array([0.5, 0.3, 0.2]))
        p = random_path(rng, d, 2)
        lam = np.array([0.2, -0.1, 0.0])
        res = eval_phi_cascade_mc(lam[:2], p, 0.8, reps=3, atoms_per_level=30, seed=5)
        spec = CascadeSpec(tuple(p.inner_x), 30)
        values = []
        for i in range(3):
            draws = stream(5, 0xF1, 30, i)
            sample = sample_cascade(spec, draws)
            fields = sample_level_fields(sample, level_factors(p.increment_covariances()), draws)
            # a leaf's field is the sum of its ancestors' node fields
            z = sum(np.repeat(g[0, 0], 30 ** (1 - q), axis=-1) for q, g in enumerate(fields)).T
            per_leaf = logsumexp(0.8 * z + lam, axis=1)
            log_v = oracle_log_leaf_weights(spec, stream(5, 0xF1, 30, i))
            values.append(logsumexp(log_v + per_leaf))
        assert res.value == pytest.approx(np.mean(values), rel=1e-12)
        assert res.diagnostics["leaves"] == 900

    def test_cascade_mc_beta_zero_exact(self):
        p = MonotonePath.one_step(StateDistribution.uniform(3), 0.5)
        res = eval_phi_cascade_mc([0.0, 0.0], p, 0.0, reps=5, atoms_per_level=20)
        assert res.value == pytest.approx(np.log(3), abs=1e-12)
        assert res.std_error <= 1e-12


def kept_factor(cov):
    """The columns of cov's PSD factor in directions above RANK_TOL."""
    lam, factor = psd_factor(cov)
    return factor[:, lam > RANK_TOL]


def per_call_nodes(cov, nodes_per_dim):
    """The quadrature nodes as every call built them before the grid cache."""
    lam, factor = psd_factor(cov)
    keep = lam > RANK_TOL
    rank = int(keep.sum())
    t, w = np.polynomial.hermite.hermgauss(nodes_per_dim)
    grids = np.array(list(itertools.product(t, repeat=rank)))
    logw = np.log(np.array(list(itertools.product(w, repeat=rank)))).sum(axis=1)
    logw -= logsumexp(logw)
    return (np.sqrt(2.0) * grids) @ factor[:, keep].T, logw


class TestGaussHermiteGrid:
    def test_built_once_per_nodes_and_rank(self, monkeypatch):
        calls = []
        hermgauss = np.polynomial.hermite.hermgauss

        def counted(n):
            calls.append(n)
            return hermgauss(n)

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", counted)
        _gh_grid.cache_clear()
        d = StateDistribution.uniform(3)
        path = MonotonePath.one_step(d, 0.4)
        for beta in (0.5, 1.0, 2.0):
            eval_phi([0.1, -0.2], path, beta)
        eval_phi([0.0, 0.0], MonotonePath.one_step(d, 0.7), 1.0)
        assert calls == [9]
        eval_phi([0.0, 0.0], path, 1.0, QuadratureSpec(nodes_per_dim=11))
        assert calls == [9, 11]

    def test_cached_arrays_are_read_only(self):
        cov = np.diag([0.6, 0.4])
        for arr in _gh_grid(9, 2) + _gh_nodes(kept_factor(cov), 9)[1:]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("kappa,rank", [(2, 2), (2, 1), (3, 3), (3, 2), (3, 1)])
    def test_matches_per_call_formula(self, kappa, rank):
        rng = seeded(23, kappa, rank)
        for nodes in (5, 9):
            g = rng.standard_normal((kappa, rank))
            cov = g @ g.T
            nodes_now, logw_now = _gh_nodes(kept_factor(cov), nodes)
            nodes_then, logw_then = per_call_nodes(cov, nodes)
            assert nodes_now.shape == (nodes**rank, kappa)
            assert nodes_now.tobytes() == nodes_then.tobytes()
            assert logw_now.tobytes() == logw_then.tobytes()


class TestEvalParisi:
    def test_forms_agree_and_diagnostics(self):
        rng = seeded(23, 0)
        d = StateDistribution(np.array([0.5, 0.5]))
        p = random_path(rng, d, 2)
        res = eval_parisi([0.1], d, p, 0.7)
        assert res.method == "quadrature"
        assert res.value == pytest.approx(res.diagnostics["rearranged_value"], abs=1e-10)
        assert "phi" in res.diagnostics

    @pytest.mark.parametrize("kappa,r", [(2, 1), (2, 2), (3, 1)])
    def test_invariant_under_relabelling(self, kappa, r):
        # state k of the relabelled problem is state perm[k]: d -> Pd,
        # gamma -> P gamma P^T, and lambda re-gauged so the last state is 0
        rng = seeded(26, kappa, r)
        for beta in (0.5, 1.0, 2.0):
            d = random_distribution(rng, kappa)
            assert len(set(d.d)) == kappa
            path = random_path(rng, d, r)
            lam_full = np.append(rng.uniform(-1.0, 1.0, size=kappa - 1), 0.0)
            value = eval_parisi(lam_full[:-1], d, path, beta).value
            for perm in itertools.permutations(range(kappa)):
                perm = list(perm)
                moved_d = StateDistribution(d.d[perm])
                moved_path = MonotonePath(moved_d, path.xs, path.gammas[:, perm][:, :, perm])
                moved_lam = lam_full[perm][:-1] - lam_full[perm][-1]
                moved = eval_parisi(moved_lam, moved_d, moved_path, beta).value
                assert abs(moved - value) <= 1e-12, (perm, beta)

    def test_rearranged_is_the_integral_form(self):
        rng = seeded(23, 1)
        d = StateDistribution(np.array([0.6, 0.4]))
        p = random_path(rng, d, 2)
        res = eval_parisi([0.3], d, p, 1.2)
        expected = res.diagnostics["phi"] - 0.3 * 0.6 - eval_f2(p, 1.2)
        assert res.diagnostics["rearranged_value"] == expected

    def test_distribution_mismatch_raises(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        other = StateDistribution(np.array([0.6, 0.4]))
        p = MonotonePath.one_step(d, 0.5)
        with pytest.raises(ValidationError):
            eval_parisi([0.0], other, p, 1.0)

    def test_single_state_closed_form(self):
        # value = x_0 beta^2 - (beta^2/2) x_0 = x_0 beta^2 / 2
        d = StateDistribution(np.array([1.0]))
        quad = QuadratureSpec(nodes_per_dim=21)
        p = MonotonePath.one_step(d, 0.6)
        assert eval_parisi([], d, p, 1.5, quad).value == pytest.approx(
            0.6 * 1.5**2 / 2.0, abs=1e-8
        )


def reference_level_value(inner, logw, x_p):
    """One path's level value, inner (m, n): the weighted sum of its near
    rows' expm1 terms is one matrix-vector product."""
    w = np.exp(logw)
    mean = np.sum(w[None, :] * inner, axis=1)
    if x_p == 0.0:
        return mean
    dev = x_p * (inner - mean[:, None])
    near = np.max(np.abs(dev), axis=1) < 1.0
    out = np.empty_like(mean)
    out[near] = mean[near] + np.log1p(np.expm1(dev[near]) @ w) / x_p
    if not near.all():
        out[~near] = logsumexp(logw[None, :] + x_p * inner[~near], axis=1) / x_p
    return out


def reference_phi(lam, path, beta, nodes_per_dim=9):
    """The one-path recursion written level by level, as eval_phi ran before
    it gained a batch axis: the kept directions by a mask on the eigenvalues,
    each level's nodes from per_call_nodes."""
    lam_full = np.append(lam, 0.0)
    levels = [per_call_nodes(cov, nodes_per_dim) for cov in path.increment_covariances()]

    def recurse(p, s):
        if p == path.r:
            return logsumexp(beta * s + lam_full, axis=1)
        nodes, logw = levels[p]
        expanded = (s[:, None, :] + nodes[None, :, :]).reshape(-1, path.kappa)
        inner = recurse(p + 1, expanded).reshape(s.shape[0], nodes.shape[0])
        return reference_level_value(inner, logw, float(path.inner_x[p]))

    return float(recurse(0, np.zeros((1, path.kappa)))[0])


def mixed_paths(rng, kappa, r):
    """Paths at two random d and at d = (1, 0, ...), with full-rank,
    rank-deficient and zero levels; most rank patterns occur twice."""
    corner = StateDistribution(np.eye(kappa)[0])
    out = [random_path(rng, random_distribution(rng, kappa), r) for _ in range(2)]
    for d in (out[0].d, out[1].d, corner):
        x = np.sort(rng.uniform(0.1, 0.9, size=r))
        for scale in (0.0, 0.5):
            inc = scale * np.diag(corner.d) * d.d[0]  # rank 1 and under diag(d)
            out.append(MonotonePath.from_increments(d, x, [inc / max(r - 1, 1)] * (r - 1)))
    return out


class TestEvalParisiRows:
    @pytest.mark.parametrize("kappa,r", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_rows_equal_single_calls_and_reference(self, kappa, r):
        rng = seeded(27, kappa, r)
        paths = mixed_paths(rng, kappa, r)
        lam = rng.uniform(-1.0, 1.0, size=(len(paths), kappa - 1))
        quad = QuadratureSpec(nodes_per_dim=5)
        rows = [np.array([p.d.d for p in paths]), np.array([p.xs for p in paths]),
                np.array([p.gammas for p in paths])]
        # at beta = 0.2 most levels take the expm1 form, at 1.5 the max-shifted one
        for beta in (0.2, 1.5):
            value, phi, rearranged, totals = eval_parisi_rows(lam, *rows, beta, quad)
            for b, path in enumerate(paths):
                alone = eval_parisi(lam[b], path.d, path, beta, quad)
                assert value[b] == alone.value and phi[b] == alone.diagnostics["phi"]
                assert rearranged[b] == alone.diagnostics["rearranged_value"]
                assert totals[b] == alone.diagnostics["node_evaluations"]
                assert phi[b] == reference_phi(lam[b], path, beta, 5)

    def test_chunks_keep_nodes_under_budget_and_bytes(self, monkeypatch):
        rng = seeded(28)
        paths = mixed_paths(rng, 2, 2) * 3
        lam = rng.uniform(-1.0, 1.0, size=(len(paths), 1))
        quad = QuadratureSpec(nodes_per_dim=3, budget=200)
        rows = [np.array([p.d.d for p in paths]), np.array([p.xs for p in paths]),
                np.array([p.gammas for p in paths])]
        chunks = []
        recurse = functional._recurse

        def recorded(levels, x_levels, lam_full, beta):
            chunks.append((len(lam_full), tuple(nodes.shape[1] for nodes, _ in levels)))
            return recurse(levels, x_levels, lam_full, beta)

        monkeypatch.setattr(functional, "_recurse", recorded)
        value, phi, _, _ = eval_parisi_rows(lam, *rows, 1.0, quad)
        assert all(g * np.prod(shape) <= quad.budget for g, shape in chunks)
        assert len(chunks) > len(set(shape for _, shape in chunks))  # some group was split
        for b, path in enumerate(paths):
            alone = eval_parisi(lam[b], path.d, path, 1.0, quad)
            assert value[b].tobytes() == np.float64(alone.value).tobytes()
            assert phi[b].tobytes() == np.float64(alone.diagnostics["phi"]).tobytes()

    def test_endpoint_mismatch_raises(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        path = MonotonePath.one_step(d, 0.5)
        rows = [np.array([[0.5, 0.5], [0.6, 0.4]]), np.array([path.xs] * 2), np.array([path.gammas] * 2)]
        with pytest.raises(ValidationError, match="endpoint"):
            eval_parisi_rows(np.zeros((2, 1)), *rows, 1.0)


class TestStackedProducts:
    """The stacked products of a batch against the per-path products they
    replace, bit for bit."""

    @pytest.mark.parametrize("kappa", [2, 3])
    def test_level_value_with_0_to_m_near_rows(self, kappa):
        rng = seeded(41, kappa)
        m = 4
        _, logw = _gh_grid(9, kappa)
        x = np.append(rng.uniform(0.2, 0.9, size=2 * (m + 1)), 0.0)
        inner = np.empty((len(x), m, logw.size))
        for b, x_b in enumerate(x):
            n_near = b % (m + 1)  # every count 0..m, twice, then a dead path
            spread = np.where(np.arange(m) < n_near, 0.1, 20.0) / max(x_b, 0.2)
            inner[b] = rng.permutation(spread)[:, None] * rng.standard_normal((m, logw.size))
        out = functional._level_value(inner, logw, x)
        for b, x_b in enumerate(x):
            expected = reference_level_value(inner[b], logw, float(x_b))
            assert out[b].tobytes() == expected.tobytes()
        # the batch holds paths with 0, some and all rows near
        dev = x[:, None, None] * (inner - np.sum(np.exp(logw) * inner, axis=-1)[..., None])
        counts = (np.max(np.abs(dev), axis=-1) < 1.0).sum(axis=1)
        assert set(counts[:-1].tolist()) == set(range(m + 1))

    @pytest.mark.parametrize("kappa,r", [(2, 1), (3, 1), (4, 1), (3, 2)])
    def test_lagrange_term_is_the_per_path_dot(self, kappa, r):
        rng = seeded(42, kappa, r)
        paths = mixed_paths(rng, kappa, r) * 8
        lam = rng.uniform(-1.0, 1.0, size=(len(paths), kappa - 1))
        d = np.array([p.d.d for p in paths])
        xs, gammas = np.array([p.xs for p in paths]), np.array([p.gammas for p in paths])
        value, phi, _, _ = eval_parisi_rows(lam, d, xs, gammas, 0.8, QuadratureSpec(nodes_per_dim=5))
        hs = hs_telescoped(xs, gammas)
        for b in range(len(paths)):
            expected = phi[b] - np.dot(lam[b], d[b, : kappa - 1]) - 0.5 * 0.8**2 * hs[b]
            assert value[b].tobytes() == expected.tobytes()


class TestEvalF2:
    def test_one_step_closed_form(self):
        d = StateDistribution(np.array([0.6, 0.4]))
        p = MonotonePath.one_step(d, 0.3)
        expected = 0.5 * 4.0 * 0.3 * float(np.sum(d.d**2))
        assert eval_f2(p, 2.0) == pytest.approx(expected, abs=1e-14)

    def test_equals_telescoped_sum(self):
        rng = seeded(24, 0)
        d = StateDistribution(np.array([0.5, 0.5]))
        for _ in range(5):
            p = random_path(rng, d, 2)
            hs = np.sum(p.gammas**2, axis=(1, 2))
            telescoped = 0.5 * float(np.sum(p.inner_x * np.diff(hs)))
            assert eval_f2(p, 1.0) == pytest.approx(telescoped, abs=1e-12)


class TestF1Restricted:
    def test_beta_zero_is_log_set_size(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        p = MonotonePath.one_step(d, 0.4)
        s = enumerate_configs(4, 2, [2, 2])
        res = eval_f1_restricted(s, [0.0], p, 0.0, reps=4, atoms_per_level=20)
        assert res.value == pytest.approx(np.log(6) / 4, abs=1e-12)
        assert res.std_error <= 1e-12

    def test_validation(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        p = MonotonePath.one_step(d, 0.4)
        with pytest.raises(ValidationError):
            eval_f1_restricted(np.ones((1, 13), dtype=int), [0.0], p, 1.0)
        with pytest.raises(ValidationError):
            eval_f1_restricted(np.array([[0, 1]]), [0.0], p, 1.0)
        with pytest.raises(ValidationError):
            eval_f1_restricted(np.zeros((0, 2), dtype=int), [0.0], p, 1.0)

    def test_lower_bound_beta_zero(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        p = MonotonePath.one_step(d, 0.4)
        res = eval_lower_bound(4, d, p, 0.0, reps=4, atoms_per_level=20)
        assert res.value == pytest.approx(np.log(6) / 4, abs=1e-12)
        assert res.diagnostics["f2"] == 0.0

    def test_lower_bound_m_cap(self):
        d = StateDistribution(np.array([0.5, 0.5]))
        p = MonotonePath.one_step(d, 0.4)
        with pytest.raises(ValidationError):
            eval_lower_bound(14, d, p, 1.0)

"""EM loop: initializer, surrogate E-step, guarded M-step, fit, assign."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gamma, random_params, random_unit_rows
from spheremix.errors import TooFewPointsError
from spheremix.geometry import KAPPA_MAX, normalize, sample_vmf
from spheremix.inference import (
    FitConfig,
    FitResult,
    assign,
    e_step,
    fit,
    init_spherical_kmeans,
    m_step_kappa,
    m_step_mu,
)
from spheremix.objective import (
    MixtureParams,
    empirical_mass,
    log_component_scores,
    posterior,
    surrogate_from_scores,
    surrogate_value,
)
from spheremix.synth import mixture_means, sample_mixture


def separated_instance(n=300, k=3, d=8, kappa=50.0, seed=0):
    means = mixture_means(k, d, seed, arrangement="orthogonal")
    X, labels = sample_mixture(n, means, np.full(k, kappa), np.full(k, 1.0 / k), seed)
    return X, labels, means


class TestFitConfig:
    def test_defaults(self):
        cfg = FitConfig()
        assert cfg.k == 24 and cfg.lam == 5000.0 and cfg.max_iters == 200

    def test_resolved_tol_scales_with_n(self):
        assert FitConfig().resolved_tol(2000) == pytest.approx(0.2)
        assert FitConfig(stop_tol=1e-7).resolved_tol(2000) == 1e-7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"lam": -1.0},
            {"max_iters": 0},
            {"stop_tol": 0.0},
            {"k": -3},
            {"max_iters": -1},
            {"stop_tol": -1e-3},
            {"stop_tol": float("nan")},
            {"lam": float("nan")},
            {"lam": float("inf")},
        ],
    )
    def test_validate_rejects(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs).validate()

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            FitConfig(k=10).validate(n=5)


class TestInitSphericalKmeans:
    def test_orthogonal_points_fixed_point(self):
        X = np.eye(4)
        theta = init_spherical_kmeans(X, 4, seed=0)
        # centroids must be a permutation of the points themselves
        match = np.abs(theta.means @ X.T)
        assert np.allclose(np.sort(match.max(axis=1)), 1.0, atol=1e-9)
        assert np.allclose(match.sum(), 4.0, atol=1e-9)
        np.testing.assert_array_equal(theta.kappas, 1.0)

    def test_antipodal_caps(self):
        pole = np.array([0.0, 0.0, 1.0])
        top = sample_vmf(pole, 200.0, 100, seed=1)
        bot = sample_vmf(-pole, 200.0, 100, seed=2)
        X = np.vstack([top, bot])
        theta = init_spherical_kmeans(X, 2, seed=3)
        dots = theta.means @ pole
        # one centroid per cap, each within 0.1 rad of its cap center
        assert np.min(np.abs(dots)) >= math.cos(0.1)
        assert dots.min() < 0 < dots.max()

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = random_unit_rows(rng, 120, 6)
        a = init_spherical_kmeans(X, 5, seed=11)
        b = init_spherical_kmeans(X, 5, seed=11)
        np.testing.assert_array_equal(a.means, b.means)

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            init_spherical_kmeans(np.eye(3), 4, seed=0)


class TestEStep:
    def test_lam_zero_returns_posterior(self):
        rng = np.random.default_rng(0)
        X = random_unit_rows(rng, 40, 6)
        theta = random_params(rng, 3, 6)
        gamma0 = random_gamma(rng, 40, 3)
        cfg = FitConfig(k=3, lam=0.0)
        out = e_step(log_component_scores(X, theta), gamma0, cfg)
        np.testing.assert_allclose(out, posterior(theta, X), atol=1e-12)

    def test_lam_zero_posterior_is_global_max(self):
        rng = np.random.default_rng(1)
        X = random_unit_rows(rng, 25, 5)
        theta = random_params(rng, 3, 5)
        anchor = random_gamma(rng, 25, 3)
        pi_t = empirical_mass(anchor)
        best = surrogate_value(theta, posterior(theta, X), pi_t, X, 0.0)
        for _ in range(50):
            probe = random_gamma(rng, 25, 3)
            assert surrogate_value(theta, probe, pi_t, X, 0.0) <= best + 1e-8

    def test_single_point_single_cluster_unchanged(self):
        theta = MixtureParams(means=np.eye(3)[:1], kappas=np.array([2.0]))
        gamma = np.ones((1, 1))
        scores = log_component_scores(normalize(np.ones((1, 3))), theta)
        out = e_step(scores, gamma, FitConfig(k=1, lam=10.0))
        np.testing.assert_array_equal(out, gamma)

    def test_beats_grid_oracle(self):
        # N=4, K=2, lam=10: exhaustive 10^4-point grid over the product of
        # per-row simplices.
        rng = np.random.default_rng(2)
        X = random_unit_rows(rng, 4, 3)
        theta = random_params(rng, 2, 3)
        anchor = np.full((4, 2), 0.5)
        pi_t = empirical_mass(anchor)
        cfg = FitConfig(k=2, lam=10.0)
        scores = log_component_scores(X, theta)
        got = surrogate_value(theta, e_step(scores, anchor, cfg), pi_t, X, 10.0)

        grid = np.linspace(0.0, 1.0, 10)
        best = -np.inf
        for combo in itertools.product(grid, repeat=4):
            g = np.column_stack([combo, 1.0 - np.asarray(combo)])
            best = max(best, surrogate_from_scores(scores, g, pi_t, 10.0))
        assert got >= best - 1e-3

    def test_never_decreases_surrogate(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n, k, d = int(rng.integers(2, 60)), int(rng.integers(2, 6)), int(rng.integers(2, 8))
            X = random_unit_rows(rng, n, d)
            theta = random_params(rng, k, d)
            gamma = random_gamma(rng, n, k)
            lam = float(rng.choice([0.0, 10.0, 5000.0, 1e8]))
            cfg = FitConfig(k=k, lam=lam)
            pi_t = empirical_mass(gamma)
            before = surrogate_value(theta, gamma, pi_t, X, lam)
            after = surrogate_value(
                theta, e_step(log_component_scores(X, theta), gamma, cfg), pi_t, X, lam
            )
            assert after >= before - 1e-9 * max(1.0, abs(before))

    def test_matches_reference_sweeps(self):
        # Independently written: three sweeps of softmax(s - lam (pi(cur) -
        # u) / n) from the input, keeping the first best iterate by the
        # surrogate anchored at the input's mass. lam / n ranges far above
        # 1, where the sweeps overshoot and the input itself may win.
        rng = np.random.default_rng(6)
        for _ in range(200):
            n, k, d = int(rng.integers(1, 81)), int(rng.integers(1, 7)), 5
            X = random_unit_rows(rng, n, d)
            theta = random_params(rng, k, d)
            gamma = random_gamma(rng, n, k)
            lam = float(rng.choice([0.0, 10.0, 5000.0, 1e8]))
            pi_t = gamma.mean(axis=0)
            best, best_val = gamma, surrogate_value(theta, gamma, pi_t, X, lam)
            cur = gamma
            for _ in range(3):
                logits = log_component_scores(X, theta) - lam * (cur.mean(axis=0) - 1.0 / k) / n
                cur = np.exp(logits - logits.max(axis=1, keepdims=True))
                cur /= cur.sum(axis=1, keepdims=True)
                val = surrogate_value(theta, cur, pi_t, X, lam)
                if val > best_val:
                    best, best_val = cur, val
            got = e_step(log_component_scores(X, theta), gamma, FitConfig(k=k, lam=lam))
            np.testing.assert_allclose(got, best, rtol=0.0, atol=1e-12)

    @given(st.integers(2, 20), st.integers(2, 4), st.integers(0, 500))
    @settings(max_examples=25)
    def test_rows_stay_on_simplex(self, n, k, seed):
        rng = np.random.default_rng(seed)
        X = random_unit_rows(rng, n, 4)
        theta = random_params(rng, k, 4)
        gamma = random_gamma(rng, n, k)
        out = e_step(log_component_scores(X, theta), gamma, FitConfig(k=k, lam=5000.0))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out >= 0)


class TestMStep:
    def test_single_point_full_weight(self):
        x = normalize(np.array([[1.0, 2.0, -2.0]]))
        np.testing.assert_allclose(m_step_mu(np.ones((1, 1)).T @ x)[0], x[0], atol=1e-8)

    def test_equal_weight_two_basis_points(self):
        X = np.eye(3)[:2]
        mu = m_step_mu(np.ones((2, 1)).T @ X)[0]
        np.testing.assert_allclose(mu, np.array([1.0, 1.0, 0.0]) / math.sqrt(2), atol=1e-9)

    def test_mu_matches_hand_normalized_resultants(self):
        rng = np.random.default_rng(5)
        X = random_unit_rows(rng, 200, 12)
        gamma = random_gamma(rng, 200, 4)
        got = m_step_mu(gamma.T @ X)
        for k in range(4):
            r = (gamma[:, k][:, None] * X).sum(axis=0)
            np.testing.assert_allclose(got[k], r / np.linalg.norm(r), atol=1e-9)

    def test_zero_column_gives_zero_row(self):
        gamma = np.array([[1.0, 0.0], [1.0, 0.0]])
        out = m_step_mu(gamma.T @ np.eye(2))
        assert float(np.linalg.norm(out[1])) < 1e-6

    def test_kappa_zero_resultant(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert m_step_kappa(X.sum(axis=0)[None, :], np.array([2.0]))[0] == 0.0

    def test_kappa_hand_value_d4(self):
        # two unit vectors at 120 degrees: rbar = 1/2, d = 4 -> kappa = 2.5
        X = np.array([[1.0, 0.0, 0.0, 0.0], [-0.5, math.sqrt(3) / 2, 0.0, 0.0]])
        kap = m_step_kappa(X.sum(axis=0)[None, :], np.array([2.0]))[0]
        assert abs(kap - 2.5) <= 1e-6

    def test_kappa_clamped_at_max(self):
        X = np.tile(normalize(np.ones(4)), (3, 1))
        kap = m_step_kappa(X.sum(axis=0)[None, :], np.array([3.0]))[0]
        assert kap <= 1e6

    def test_kappa_soft_gamma_matches_hand_loop(self):
        # Soft responsibilities, so every mass n_k sits well below n.
        rng = np.random.default_rng(15)
        n, k, d, eps = 150, 4, 7, 1e-8
        X = sample_vmf(np.eye(d)[0], 20.0, n, seed=15)
        gamma = random_gamma(rng, n, k)
        got = m_step_kappa(gamma.T @ X, gamma.sum(axis=0))
        for j in range(k):
            r = sum(gamma[i, j] * X[i] for i in range(n))
            n_j = sum(gamma[i, j] for i in range(n))
            assert n_j < 0.5 * n
            rbar = min(max(float(np.linalg.norm(r)) / (n_j + eps), 0.0), 1.0 - 1e-6)
            kap = min(max((rbar * d - rbar**3) / (1.0 - rbar**2), 0.0), KAPPA_MAX)
            assert got[j] == pytest.approx(kap, rel=1e-9)

    def test_kappa_round_trip(self):
        X = sample_vmf(np.eye(16)[0], 50.0, 100_000, seed=6)
        kap = m_step_kappa(X.sum(axis=0)[None, :], np.array([float(X.shape[0])]))[0]
        assert abs(kap - 50.0) / 50.0 <= 0.05


class TestFit:
    def test_recovers_separated_components(self):
        from spheremix.baselines import HardPartition, hungarian_match, nmi

        X, labels, _ = separated_instance(n=3000, k=3, d=16, kappa=100.0, seed=7)
        res = fit(X, FitConfig(k=3, lam=5000.0, seed=7))
        pred = HardPartition(labels=res.hard_labels, k=3)
        truth = HardPartition(labels=labels, k=3)
        _, acc = hungarian_match(pred, truth)
        assert acc >= 0.95
        assert nmi(pred, truth) >= 0.85

    def test_trace_monotone(self):
        rng = np.random.default_rng(8)
        for lam in (0.0, 10.0, 5000.0):
            X = random_unit_rows(rng, 400, 8)
            res = fit(X, FitConfig(k=5, lam=lam, max_iters=40, seed=1))
            diffs = np.diff(res.objective_trace)
            assert np.all(diffs >= -1e-6), lam

    def test_huge_lam_flattens_mass(self):
        from spheremix.synth import collapse_stress_corpus

        X, _ = collapse_stress_corpus(400, 4, 8, seed=9)
        free = fit(X, FitConfig(k=4, lam=0.0, seed=2))
        forced = fit(X, FitConfig(k=4, lam=1e8, seed=2))
        u = 0.25
        gap_free = float(np.linalg.norm(empirical_mass(free.gamma) - u))
        gap_forced = float(np.linalg.norm(empirical_mass(forced.gamma) - u))
        assert gap_forced < gap_free

    def test_single_cluster(self):
        rng = np.random.default_rng(10)
        X = random_unit_rows(rng, 50, 4)
        res = fit(X, FitConfig(k=1, lam=5000.0, seed=0))
        np.testing.assert_array_equal(res.gamma, 1.0)
        r = X.sum(axis=0)
        np.testing.assert_allclose(res.theta.means[0], r / np.linalg.norm(r), atol=1e-8)
        assert res.iters_run <= 2

    def test_bit_reproducible(self):
        rng = np.random.default_rng(11)
        X = random_unit_rows(rng, 150, 6)
        cfg = FitConfig(k=4, lam=500.0, seed=5)
        a, b = fit(X, cfg), fit(X, cfg)
        np.testing.assert_array_equal(a.gamma, b.gamma)
        np.testing.assert_array_equal(a.theta.means, b.theta.means)
        np.testing.assert_array_equal(a.theta.kappas, b.theta.kappas)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)

    def test_lam_zero_matches_plain_movmf_em(self):
        # Side-by-side against an independently written movMF EM loop: the
        # exact posterior E-step, the closed-form mean/concentration
        # updates, and the same per-component accept-or-retain rule (the
        # concentration formula is approximate, so near a fixed point the
        # proposal can lose likelihood and must be rejected in both).
        # With lam = 0 every balance term vanishes and the traces must
        # agree to float noise while both loops run.
        from spheremix.geometry import vmf_log_density
        from spheremix.objective import entropy_total

        X, _, _ = separated_instance(n=300, k=3, d=8, kappa=50.0, seed=12)
        cfg = FitConfig(k=3, lam=0.0, max_iters=30, stop_tol=1e-300, seed=3)
        res = fit(X, cfg)
        assert res.iters_run >= 5

        def loglik_piece(gamma_col, mu, kap):
            return float(gamma_col @ vmf_log_density(X, mu, kap))

        theta = init_spherical_kmeans(X, 3, seed=3)
        ref_trace = []
        for _ in range(res.iters_run):
            gamma = posterior(theta, X)
            r = gamma.T @ X
            mu_new = m_step_mu(r)
            kap_new = m_step_kappa(r, gamma.sum(axis=0))
            means, kappas = theta.means.copy(), theta.kappas.copy()
            for j in range(3):
                if loglik_piece(gamma[:, j], mu_new[j], kap_new[j]) >= loglik_piece(
                    gamma[:, j], means[j], kappas[j]
                ):
                    means[j], kappas[j] = mu_new[j], kap_new[j]
            theta = MixtureParams(means=means, kappas=kappas)
            value = sum(
                loglik_piece(gamma[:, j], means[j], kappas[j]) for j in range(3)
            )
            ref_trace.append(value - X.shape[0] * math.log(3.0) + entropy_total(gamma))
        np.testing.assert_allclose(res.objective_trace, ref_trace, rtol=0, atol=1e-8)

    def test_lam_sweep_flattens_monotonically(self):
        from spheremix.synth import collapse_stress_corpus

        for seed in (0, 1, 2):
            X, _ = collapse_stress_corpus(300, 8, 16, seed=seed)
            gaps = []
            for lam in (0.0, 1e2, 1e4, 1e6):
                res = fit(X, FitConfig(k=8, lam=lam, seed=seed))
                u = 1.0 / 8.0
                gaps.append(float(np.linalg.norm(empirical_mass(res.gamma) - u)))
            for a, b in zip(gaps, gaps[1:]):
                assert b <= a + 1e-3, (seed, gaps)

    def test_more_clusters_than_structure(self):
        # forces the empty-cluster reseed path; trace must stay monotone
        pole = np.array([0.0, 0.0, 0.0, 1.0])
        X = np.vstack(
            [sample_vmf(pole, 300.0, 20, seed=0), sample_vmf(-pole, 300.0, 20, seed=1)]
        )
        res = fit(X, FitConfig(k=8, lam=0.0, max_iters=30, seed=0))
        assert np.all(np.diff(res.objective_trace) >= -1e-6)
        assert np.all(res.theta.kappas <= 1e6)
        np.testing.assert_allclose(np.linalg.norm(res.theta.means, axis=1), 1.0, atol=1e-6)

    def test_gamma_is_the_last_e_step_iterate(self):
        # gamma is the balance-shifted E-step iterate, not posterior(theta):
        # the last trace entry is the objective at exactly (theta, gamma).
        from spheremix.objective import objective_from_scores

        X, _, _ = separated_instance(n=300, k=3, d=8, seed=16)
        res = fit(X, FitConfig(k=3, lam=5000.0, seed=1))
        scores = log_component_scores(X, res.theta)
        assert objective_from_scores(scores, res.gamma, 5000.0) == res.objective_trace[-1]

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            fit(np.eye(3), FitConfig(k=5))

    def test_result_shapes_and_flags(self):
        X, _, _ = separated_instance(n=200, k=3, d=8, seed=13)
        res = fit(X, FitConfig(k=3, lam=10.0, seed=4))
        assert isinstance(res, FitResult)
        assert res.gamma.shape == (200, 3)
        assert res.theta.means.shape == (3, 8)
        assert res.iters_run == len(res.objective_trace)
        assert res.converged
        assert res.hard_labels.shape == (200,)


class TestAssign:
    def test_dominant_component(self):
        means = np.eye(8)[:2]
        theta = MixtureParams(means=means, kappas=np.array([100.0, 5.0]))
        probs, idx = assign(theta, means[0])
        assert idx == 0 and probs[0] > 0.99

    def test_identical_components_tie_to_zero(self):
        mu = normalize(np.ones(4))
        theta = MixtureParams(means=np.stack([mu, mu, mu]), kappas=np.full(3, 9.0))
        probs, idx = assign(theta, normalize(np.arange(1.0, 5.0)))
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-12)
        assert idx == 0

    def test_single_component(self):
        theta = MixtureParams(means=np.eye(5)[:1], kappas=np.array([3.0]))
        probs, idx = assign(theta, np.eye(5)[4])
        np.testing.assert_allclose(probs, [1.0])
        assert idx == 0

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(14)
        theta = random_params(rng, 6, 10)
        x = normalize(rng.standard_normal(10))
        probs, _ = assign(theta, x)
        assert abs(probs.sum() - 1.0) <= 1e-12

"""EM loop: initializer, surrogate E-step, exact M-step, fit, and the
one-point posterior that assign labels by."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gamma, random_params, random_unit_rows, traced_peak
import spheremix.geometry as geometry
from spheremix.errors import TooFewPointsError
from spheremix.geometry import (
    KAPPA_MAX,
    log_vmf_norm_consts,
    mean_resultant_length,
    normalize,
    sample_vmf,
)
import spheremix.inference as inference
from spheremix.inference import (
    FitConfig,
    FitResult,
    _m_step,
    e_step,
    fit,
    init_spherical_kmeans,
    m_step_kappa,
    m_step_mu,
)
from spheremix.objective import (
    MixtureParams,
    _anchored,
    _softmax_lse,
    empirical_mass,
    log_component_scores,
    posterior,
    softmax_rows,
    surrogate_from_scores,
    surrogate_value,
    sweep_from_scores,
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

    def test_greedy_seeding_keeps_the_lowest_potential_candidate(self, monkeypatch):
        # Each seeding step scores 2 + floor(ln k) D^2 draws as one block and
        # keeps the draw whose addition leaves the least total spread.
        X = random_unit_rows(np.random.default_rng(8), 300, 5)
        k = 8
        spread, closeness, own, centroid = inference._SPHERICAL
        blocks, seeds = [], []

        def record_spread(X, C):
            blocks.append(np.array(C, copy=True))
            return spread(X, C)

        def record_closeness(X, C):
            if not seeds:  # the first assignment sees the seeds, before Lloyd
                seeds.append(np.array(C, copy=True))
            return closeness(X, C)

        monkeypatch.setattr(
            inference, "_SPHERICAL", (record_spread, record_closeness, own, centroid)
        )
        init_spherical_kmeans(X, k, seed=5)
        (centers,) = seeds
        assert len(blocks) == k
        np.testing.assert_array_equal(blocks[0], centers[0])
        d2 = spread(X, centers[0])
        for j in range(1, k):
            assert blocks[j].shape == (2 + int(math.log(k)), X.shape[1])
            pots = [float(np.minimum(d2, spread(X, c)).sum()) for c in blocks[j]]
            chosen = [i for i, c in enumerate(blocks[j]) if np.array_equal(c, centers[j])]
            assert chosen, j
            assert pots[chosen[0]] <= min(pots) * (1.0 + 1e-12), (j, pots)
            d2 = np.minimum(d2, spread(X, centers[j]))

    def test_lloyd_stops_once_labels_settle(self, monkeypatch):
        # Work guard: Lloyd stops once at most 0.1% of labels move, where the
        # plain k-means++/until-equal loop took 153 rounds over these 8 init
        # seeds (at most 36 on one).
        X, _ = sample_mixture(
            10000, mixture_means(24, 32, 3, "random"), np.full(24, 100.0), None, seed=3
        )
        spread, closeness, own, centroid = inference._SPHERICAL
        calls = [0]

        def counted(X, C):
            calls[0] += 1
            return closeness(X, C)

        monkeypatch.setattr(inference, "_SPHERICAL", (spread, counted, own, centroid))
        rounds = []
        for seed in range(8):
            calls[0] = 0
            init_spherical_kmeans(X, 24, seed)
            rounds.append(calls[0] - 1)  # one assignment precedes the rounds
        assert sum(rounds) <= 80, rounds


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

    def test_sweep_value_is_the_surrogate_of_its_iterate(self):
        # A sweep is scored from its softmax's row log-normalizers:
        # sum gamma.s + H(gamma) = sum_i lse(s_i + shift) - n pi(gamma).shift.
        rng = np.random.default_rng(9)
        for _ in range(200):
            n, k, d = int(rng.integers(1, 120)), int(rng.integers(1, 8)), 6
            X = random_unit_rows(rng, n, d)
            scores = log_component_scores(X, random_params(rng, k, d, kappa_hi=500.0))
            shift = rng.normal(scale=float(rng.choice([0.0, 0.1, 10.0])), size=k)
            pi_t = random_gamma(rng, n, k).mean(axis=0)
            lam = float(rng.choice([0.0, 10.0, 5000.0, 1e8]))
            pi, val = sweep_from_scores(scores, shift, pi_t, lam)
            gamma = softmax_rows(scores + shift)
            np.testing.assert_array_equal(pi, gamma.mean(axis=0))
            ref = surrogate_from_scores(scores, gamma, pi_t, lam)
            assert abs(val - ref) <= 1e-12 * abs(ref), (val, ref)

    @pytest.mark.parametrize("block_entries", [1 << 17, 7, 64])
    def test_blocked_sweep_matches_the_formed_softmax(self, monkeypatch, block_entries):
        # The sweep with its softmax formed whole, scored from the same
        # normalizers. Row blocks change neither pi nor the value: a row's
        # softmax does not depend on the block, the log-normalizers are
        # summed once, and the carry row keeps the column sums in row order.
        monkeypatch.setattr(geometry, "BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(10)
        for _ in range(100):
            n, k = int(rng.integers(1, 400)), int(rng.integers(1, 9))
            X = random_unit_rows(rng, n, 6)
            scores = log_component_scores(X, random_params(rng, k, 6, kappa_hi=500.0))
            shift = rng.normal(scale=float(rng.choice([0.1, 10.0])), size=k)
            pi_t = random_gamma(rng, n, k).mean(axis=0)
            lam = float(rng.choice([10.0, 5000.0]))
            gamma, lse = _softmax_lse(scores + shift)
            pi_ref = gamma.mean(axis=0)
            val_ref = _anchored(float(lse.sum()) - n * float(pi_ref @ shift), pi_ref, pi_t, lam)
            pi, val = sweep_from_scores(scores, shift, pi_t, lam)
            np.testing.assert_array_equal(pi, pi_ref)
            assert val == val_ref

    def test_out_receives_the_winning_sweep(self):
        # e_step(..., out=g) returns g holding exactly what e_step(...)
        # returns; when the input wins, it is returned and g is untouched.
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(200):
            n, k = int(rng.integers(2, 60)), int(rng.integers(2, 6))
            X = random_unit_rows(rng, n, 5)
            scores = log_component_scores(X, random_params(rng, k, 5))
            gamma = random_gamma(rng, n, k)
            cfg = FitConfig(k=k, lam=float(rng.choice([10.0, 1e8])))
            want = e_step(scores, gamma, cfg)
            g = np.full((n, k), np.nan)
            got = e_step(scores, gamma, cfg, out=g)
            np.testing.assert_array_equal(got, want)
            if want is gamma:
                assert got is gamma and np.all(np.isnan(g))
            else:
                assert got is g
            seen.add(want is gamma)
        assert seen == {True, False}

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
        # two unit vectors at 120 degrees, each of weight w: rbar = 1/2 at
        # every w, d = 4. kappa is the root of A_4(kappa) = 1/2 (the
        # approximation gives 2.5).
        X = np.array([[1.0, 0.0, 0.0, 0.0], [-0.5, math.sqrt(3) / 2, 0.0, 0.0]])
        for w in (1.0, 2.0**30):
            kap = m_step_kappa(w * X.sum(axis=0)[None, :], np.array([2.0 * w]))[0]
            assert kap == pytest.approx(2.4469183112890462, rel=1e-10)

    def test_kappa_clamped_at_max(self):
        X = np.tile(normalize(np.ones(4)), (3, 1))
        kap = m_step_kappa(X.sum(axis=0)[None, :], np.array([3.0]))[0]
        assert kap <= 1e6

    def test_kappa_soft_gamma_matches_hand_loop(self):
        # Soft responsibilities, so every mass n_k sits well below n.
        rng = np.random.default_rng(15)
        n, k, d = 150, 4, 7
        X = sample_vmf(np.eye(d)[0], 20.0, n, seed=15)
        gamma = random_gamma(rng, n, k)
        got = m_step_kappa(gamma.T @ X, gamma.sum(axis=0))
        for j in range(k):
            r = sum(gamma[i, j] * X[i] for i in range(n))
            n_j = sum(gamma[i, j] for i in range(n))
            assert n_j < 0.5 * n
            rbar = min(max(float(np.linalg.norm(r)) / n_j, 0.0), 1.0 - 1e-6)
            assert mean_resultant_length(d, got[j]) == pytest.approx(rbar, rel=1e-10)

    def test_kappa_solves_mean_resultant_equation(self):
        # kappa is the root of A_d(kappa) = R, or KAPPA_MAX when the root lies
        # beyond it. Masses of 2^30 absorb the 1e-8 division guard exactly,
        # so R = ||r|| / n_k.
        rng = np.random.default_rng(19)
        mass = 2.0**30
        for d in (2, 3, 4, 16, 64, 768):
            rbar = np.concatenate(
                [10.0 ** rng.uniform(-6, 0, 40), 1.0 - 10.0 ** rng.uniform(-5, 0, 40)]
            )
            rbar = np.clip(np.append(rbar, [1e-6, 1.0 - 1e-5]), 1e-6, 1.0 - 1e-5)
            r = np.zeros((rbar.size, d))
            r[:, 0] = rbar * mass
            got = m_step_kappa(r, np.full(rbar.size, mass))
            a_max = mean_resultant_length(d, KAPPA_MAX)
            for rb, kap in zip(rbar, got):
                if kap < KAPPA_MAX:
                    err = abs(mean_resultant_length(d, kap) - rb)
                    assert err <= 1e-10 * rb and err <= 1e-9 * (1.0 - rb), (d, rb, kap)
                if a_max <= rb:
                    assert kap == KAPPA_MAX, (d, rb, kap)

    def test_m_step_maximizes_every_live_component(self):
        # Over a few fit iterations at k = 10, each live component with a
        # non-degenerate resultant takes mu = r / ||r||, and its complete-data
        # likelihood n_k log C_d(kappa) + kappa mu.r never falls below the
        # old (mu, kappa)'s on the same statistics.
        X, _ = sample_mixture(
            4000, mixture_means(10, 16, 19), np.full(10, 30.0), np.full(10, 0.1), 19
        )
        n, d = X.shape
        cfg = FitConfig(k=10, lam=5000.0, seed=19)
        theta = init_spherical_kmeans(X, cfg.k, cfg.seed)
        gamma = np.full((n, cfg.k), 1.0 / cfg.k)
        for _ in range(8):
            scores = log_component_scores(X, theta)
            gamma = e_step(scores, gamma, cfg)
            new = _m_step(theta, gamma, X, scores)
            r, n_k = gamma.T @ X, gamma.sum(axis=0)
            norms = np.linalg.norm(r, axis=1)
            live = (n_k >= 1e-7 * n) & (norms > 0.0)
            assert np.any(live)
            np.testing.assert_allclose(
                new.means[live], r[live] / norms[live, None], rtol=0, atol=1e-12
            )

            def loglik(t):
                dots = np.einsum("kd,kd->k", t.means, r)
                return n_k * log_vmf_norm_consts(d, t.kappas) + t.kappas * dots

            ll_new, ll_old = loglik(new)[live], loglik(theta)[live]
            assert np.all(ll_new >= ll_old - 1e-9 * np.abs(ll_old))
            theta = new

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
        # exact posterior E-step, then the mean/concentration updates taken
        # unconditionally. With lam = 0 every balance term vanishes and the
        # traces must agree to float noise while both loops run.
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
            means = m_step_mu(r)
            kappas = m_step_kappa(r, gamma.sum(axis=0))
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

    def test_peak_memory_is_the_scores_and_gamma(self, monkeypatch):
        # Above X, fit holds the (n, k) scores and gamma plus row blocks:
        # each E-step sweep is scored block by block and only the winner is
        # formed, into gamma. An empty-cluster reseed takes scipy's
        # logsumexp over the scores, with temporaries of that size, so the
        # corpus must not reseed.
        monkeypatch.setattr(inference, "logsumexp", lambda *a, **kw: pytest.fail("reseeded"))
        n, k = 50_000, 24
        means = mixture_means(k, 16, 0, arrangement="random")
        X, _ = sample_mixture(n, means, np.full(k, 100.0), None, seed=1)
        _, peak = traced_peak(fit, X, FitConfig(k=k, max_iters=3, seed=0))
        assert peak <= 2.5 * 8 * n * k, peak / (8 * n * k)

    def test_reseed_is_formed_by_row_blocks(self, monkeypatch):
        # Clusters below 4% of the mass count as empty, so every M-step
        # reseeds. Its row log-normalizers are taken one block of the scores
        # at a time: the same per-row bits, so the same picks, as one (n, k)
        # logsumexp, without that call's n x k temporaries. d = 2 keeps X in
        # one row block, so the resultants are one product either way, while
        # the scores span ten blocks.
        monkeypatch.setattr(inference, "_EMPTY_MASS", 0.04)
        n, k = 50_000, 24
        X, _ = sample_mixture(n, mixture_means(k, 2, 0, "random"), np.full(k, 100.0), None, 1)
        cfg = FitConfig(k=k, max_iters=3, seed=0)
        blocks = []
        real_logsumexp = inference.logsumexp

        def spy(a, axis):
            blocks.append(a.shape[0])
            return real_logsumexp(a, axis=axis)

        monkeypatch.setattr(inference, "logsumexp", spy)
        res, peak = traced_peak(fit, X, cfg)
        assert len(blocks) == 30 and sum(blocks) == 3 * n  # three reseeds
        assert peak <= 2.5 * 8 * n * k + 4 * 8 * geometry.BLOCK_ENTRIES, peak / (8 * n * k)

        def whole(n, width):
            return [slice(0, n)]

        monkeypatch.setattr(inference, "row_blocks", whole)
        monkeypatch.setattr(inference, "widened_blocks", lambda X: [(slice(0, len(X)), X)])
        ref = fit(X, cfg)
        np.testing.assert_array_equal(res.hard_labels, ref.hard_labels)
        np.testing.assert_array_equal(res.theta.means, ref.theta.means)
        np.testing.assert_array_equal(res.theta.kappas, ref.theta.kappas)

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
    """posterior on a single point: the row the assign command labels by
    its argmax."""

    def test_dominant_component(self):
        means = np.eye(8)[:2]
        theta = MixtureParams(means=means, kappas=np.array([100.0, 5.0]))
        probs = posterior(theta, means[:1])[0]
        assert np.argmax(probs) == 0 and probs[0] > 0.99

    def test_identical_components_tie_to_zero(self):
        mu = normalize(np.ones(4))
        theta = MixtureParams(means=np.stack([mu, mu, mu]), kappas=np.full(3, 9.0))
        probs = posterior(theta, normalize(np.arange(1.0, 5.0))[None, :])[0]
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-12)
        assert np.argmax(probs) == 0

    def test_single_component(self):
        theta = MixtureParams(means=np.eye(5)[:1], kappas=np.array([3.0]))
        probs = posterior(theta, np.eye(5)[4:])[0]
        np.testing.assert_allclose(probs, [1.0])

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(14)
        theta = random_params(rng, 6, 10)
        x = normalize(rng.standard_normal(10))
        probs = posterior(theta, x[None, :])[0]
        assert abs(probs.sum() - 1.0) <= 1e-12

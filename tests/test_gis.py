"""Influence scoring, representative selection, prompt export."""

import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_gamma, random_params, random_unit_rows, traced_peak
from spheremix import gis
from spheremix.errors import MissingDocumentError
from spheremix.geometry import log_vmf_norm_const, normalize, sample_uniform_sphere, sample_vmf
from spheremix.gis import (
    GisConfig,
    PROMPT_TEMPLATE,
    RepresentativeSet,
    export_taxonomy_prompts,
    gis_score,
    local_density,
    parse_taxonomy_prompt,
    select_representatives,
)
from spheremix.objective import MixtureParams, posterior
from spheremix.synth import mixture_means, sample_mixture


def point_at_cosine(base: np.ndarray, c: float) -> np.ndarray:
    """Unit vector at the requested cosine from base (2-d plane trick)."""
    ortho = np.zeros_like(base)
    ortho[np.argmin(np.abs(base))] = 1.0
    ortho = normalize(ortho - (ortho @ base) * base)
    return c * base + math.sqrt(1.0 - c * c) * ortho


class TestLocalDensity:
    def test_identical_neighbor(self):
        x = normalize(np.array([1.0, 1.0]))
        rho = local_density(np.stack([x, x]), np.array([0]), 1)
        assert rho[0] == pytest.approx(1.0)

    def test_mean_of_two_cosines(self):
        base = np.array([1.0, 0.0, 0.0])
        X_c = np.stack([base, point_at_cosine(base, 0.9), point_at_cosine(base, 0.7)])
        rho = local_density(X_c, np.array([0]), 2)
        assert rho[0] == pytest.approx(0.8)

    def test_cross_cluster_neighbor_ignored(self):
        # Point 0's nearest point is in cluster 1, so its support is the
        # cosine to its one same-cluster neighbor, 0.5.
        base = np.array([1.0, 0.0, 0.0])
        near_other = point_at_cosine(base, 0.99)
        far_same = point_at_cosine(base, 0.5)
        X = np.stack([base, near_other, far_same])
        theta = MixtureParams(means=np.stack([base, near_other]), kappas=np.array([4.0, 4.0]))
        gamma = one_hot_gamma(np.array([0, 1, 0]), 2)
        cfg = GisConfig(s=2, m_neighbors=1)
        reps = select_representatives(X, gamma, theta, cfg)
        want = gis_score(np.array([0, 2]), 0, X, gamma, theta, 0.5, cfg)
        np.testing.assert_array_equal(reps.indices[0], [0, 2])
        np.testing.assert_allclose(reps.scores[0], want, atol=1e-12)

    def test_singleton_flag(self):
        # A one-member cluster has no neighbors: rho is 0, not an error.
        rho = local_density(np.eye(3)[:1], np.array([0]), 4)
        np.testing.assert_array_equal(rho, [0.0])

    def test_fewer_members_than_m(self):
        base = np.array([1.0, 0.0, 0.0])
        X_c = np.stack([base, point_at_cosine(base, 0.6), point_at_cosine(base, 0.2)])
        rho = local_density(X_c, np.array([0]), 16)
        assert rho[0] == pytest.approx(0.4)

    def test_bounded(self):
        rng = np.random.default_rng(0)
        X = random_unit_rows(rng, 60, 5)
        labels = rng.integers(0, 3, size=60)
        for k in range(3):
            X_c = X[labels == k]
            rho = local_density(X_c, np.arange(X_c.shape[0]), 8)
            assert np.all((-1.0 - 1e-12 <= rho) & (rho <= 1.0 + 1e-12))


class TestGisScore:
    def setup_method(self):
        rng = np.random.default_rng(1)
        self.X = random_unit_rows(rng, 6, 4)
        self.X[1] = self.X[0]
        self.theta = random_params(rng, 2, 4)

    def test_certainty_gap(self):
        gamma = np.full((6, 2), 0.5)
        gamma[0] = [0.9, 0.1]
        gamma[1] = [0.5, 0.5]
        cfg = GisConfig()
        a = gis_score(0, 0, self.X, gamma, self.theta, 0.3, cfg)
        b = gis_score(1, 0, self.X, gamma, self.theta, 0.3, cfg)
        want = math.log(0.9 + 1e-8) - math.log(0.5 + 1e-8)
        assert a - b == pytest.approx(want, abs=1e-12)

    def test_beta_zero_ranks_by_alignment(self):
        k = 0
        n = 40
        rng = np.random.default_rng(2)
        X = random_unit_rows(rng, n, 4)
        gamma = np.full((n, 2), 0.5)
        cfg = GisConfig(beta=0.0)
        rhos = rng.uniform(-1.0, 1.0, size=n)  # must be irrelevant at beta=0
        scores = [gis_score(i, k, X, gamma, self.theta, rhos[i], cfg) for i in range(n)]
        align = X @ self.theta.means[k] * self.theta.kappas[k]
        np.testing.assert_array_equal(np.argsort(scores), np.argsort(align))

    def test_beta_doubling_decreases_score(self):
        gamma = np.full((6, 2), 0.5)
        lo = gis_score(2, 0, self.X, gamma, self.theta, 0.4, GisConfig(beta=1.0))
        hi = gis_score(2, 0, self.X, gamma, self.theta, 0.4, GisConfig(beta=2.0))
        assert hi < lo

    def test_nonpositive_support_is_minus_inf(self):
        gamma = np.full((6, 2), 0.5)
        s = gis_score(2, 0, self.X, gamma, self.theta, -0.5, GisConfig(beta=1.0))
        assert s == -math.inf

    def test_additive_density_constant_invariance(self):
        # dropping log C_d(kappa_k), a per-cluster constant, must not
        # change the within-cluster ordering
        n, k = 30, 0
        rng = np.random.default_rng(3)
        X = random_unit_rows(rng, n, 4)
        gamma = random_gamma(rng, n, 2)
        cfg = GisConfig()
        rhos = rng.uniform(0.1, 0.9, size=n)
        full = np.array(
            [gis_score(i, k, X, gamma, self.theta, rhos[i], cfg) for i in range(n)]
        )
        const = log_vmf_norm_const(4, float(self.theta.kappas[k]))
        np.testing.assert_array_equal(np.argsort(full), np.argsort(full - const))


def brute_force_reps(X, gamma, theta, cfg):
    """Independent full-table reimplementation of top-s selection."""
    labels = np.argmax(gamma, axis=1)
    out_idx, out_scores = [], []
    for k in range(theta.k):
        members = [int(i) for i in np.flatnonzero(labels == k)]
        scored = []
        for i in members:
            others = [j for j in members if j != i]
            if others:
                cos = sorted((float(X[j] @ X[i]) for j in others), reverse=True)
                rho = float(np.mean(cos[: cfg.m_neighbors]))
            else:
                rho = 0.0
            cert = math.log(gamma[i, k] + 1e-8)
            dens = log_vmf_norm_const(X.shape[1], float(theta.kappas[k])) + float(
                theta.kappas[k] * (X[i] @ theta.means[k])
            )
            shifted = rho + 1e-8
            if cfg.beta == 0.0:
                sup = 0.0
            else:
                sup = cfg.beta * math.log(shifted) if shifted > 0 else -math.inf
            scored.append((cert + dens + sup, i))
        scored.sort(key=lambda t: (-t[0], t[1]))
        top = scored[: cfg.s]
        out_idx.append(np.array([i for _, i in top], dtype=np.int64))
        out_scores.append(np.array([s for s, _ in top]))
    return out_idx, out_scores


class TestSelectRepresentatives:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for trial in range(8):
            n = int(rng.integers(10, 201))
            k = int(rng.integers(2, 5))
            d = int(rng.integers(3, 8))
            X = random_unit_rows(rng, n, d)
            theta = random_params(rng, k, d)
            gamma = posterior(theta, X)
            cfg = GisConfig(s=int(rng.integers(1, 8)), m_neighbors=int(rng.integers(1, 20)))
            got = select_representatives(X, gamma, theta, cfg)
            want_idx, want_scores = brute_force_reps(X, gamma, theta, cfg)
            for j in range(k):
                np.testing.assert_array_equal(got.indices[j], want_idx[j], err_msg=str(trial))
                np.testing.assert_allclose(got.scores[j], want_scores[j], atol=1e-12)

    def test_small_s_takes_whole_cluster_sorted(self):
        rng = np.random.default_rng(5)
        X = random_unit_rows(rng, 12, 4)
        theta = random_params(rng, 2, 4)
        gamma = posterior(theta, X)
        reps = select_representatives(X, gamma, theta, GisConfig(s=1000))
        total = sum(idx.size for idx in reps.indices)
        assert total == 12
        for sc in reps.scores:
            assert np.all(sc[:-1] >= sc[1:])  # descending, -inf sorts last

    def test_ties_break_to_lower_index(self):
        x = normalize(np.ones(3))
        X = np.tile(x, (5, 1))
        theta = MixtureParams(means=x[None, :], kappas=np.array([4.0]))
        gamma = np.ones((5, 1))
        reps = select_representatives(X, gamma, theta, GisConfig(s=3))
        np.testing.assert_array_equal(reps.indices[0], [0, 1, 2])

    def test_empty_cluster_gives_empty_arrays(self):
        rng = np.random.default_rng(6)
        X = sample_vmf(np.eye(4)[0], 50.0, 10, seed=1)
        means = np.stack([np.eye(4)[0], -np.eye(4)[0]])
        theta = MixtureParams(means=means, kappas=np.array([50.0, 50.0]))
        gamma = posterior(theta, X)
        reps = select_representatives(X, gamma, theta, GisConfig(s=2))
        assert reps.indices[1].size == 0 and reps.scores[1].size == 0
        assert reps.k == 2

    def test_default_config(self):
        cfg = GisConfig()
        assert cfg.s == 5 and cfg.beta == 1.0 and cfg.m_neighbors == 16
        assert gis._EPS == 1e-8

    def test_rejects_noise_points(self):
        # clean caps plus 5% uniform noise: influence ranking must keep
        # every noise point out of the top of each cluster
        k, d, per, seed = 3, 16, 300, 0
        means = mixture_means(k, d, seed, arrangement="orthogonal")
        X_clean, _ = sample_mixture(k * per, means, np.full(k, 100.0), np.full(k, 1 / 3), seed)
        rng = np.random.default_rng(seed + 1)
        noise = sample_uniform_sphere(int(0.05 * k * per), d, rng)
        X = np.vstack([X_clean, noise])
        theta = MixtureParams(means=means, kappas=np.full(k, 100.0))
        gamma = posterior(theta, X)
        reps = select_representatives(X, gamma, theta, GisConfig(s=16))
        for idx in reps.indices:
            assert np.all(idx < X_clean.shape[0])


def assert_matches_brute_force(X, gamma, theta, cfg):
    got = select_representatives(X, gamma, theta, cfg)
    want_idx, want_scores = brute_force_reps(X, gamma, theta, cfg)
    for j in range(theta.k):
        np.testing.assert_array_equal(got.indices[j], want_idx[j], err_msg=f"cluster {j}")
        np.testing.assert_allclose(got.scores[j], want_scores[j], atol=1e-12)


def one_hot_gamma(labels, k, p=0.9):
    """Responsibilities whose argmax is `labels`: p on the label, the rest
    spread evenly."""
    gamma = np.full((labels.size, k), (1.0 - p) / (k - 1))
    gamma[np.arange(labels.size), labels] = p
    return gamma


class TestBlockedGisOracle:
    """select_representatives against the brute-force table where the blocked
    path has its edges: several row blocks, M >= n_k - 1, singletons,
    duplicates, beta = 0 with non-positive support, non-members."""

    def test_cluster_spanning_several_blocks(self):
        rng = np.random.default_rng(10)
        X = random_unit_rows(rng, 700, 5)
        theta = random_params(rng, 2, 5)
        labels = np.zeros(700, dtype=np.int64)
        labels[650:] = 1  # 650 members: three row blocks of the cosine matrix
        assert_matches_brute_force(X, one_hot_gamma(labels, 2), theta,
                                   GisConfig(s=40, m_neighbors=9))

    @pytest.mark.parametrize("m", [5, 6, 7, 50])
    def test_m_at_least_cluster_size(self, m):
        rng = np.random.default_rng(11)
        X = random_unit_rows(rng, 12, 4)
        theta = random_params(rng, 2, 4)
        labels = np.array([0] * 6 + [1] * 6)  # n_k - 1 = 5 others
        assert_matches_brute_force(X, one_hot_gamma(labels, 2), theta,
                                   GisConfig(s=6, m_neighbors=m))

    def test_singleton_cluster(self):
        rng = np.random.default_rng(12)
        X = random_unit_rows(rng, 20, 4)
        theta = random_params(rng, 3, 4)
        labels = np.array([0] * 10 + [1] + [2] * 9)
        assert_matches_brute_force(X, one_hot_gamma(labels, 3), theta, GisConfig(s=3))
        np.testing.assert_array_equal(local_density(X[10:11], np.array([0]), 4), [0.0])

    def test_duplicate_rows_tie_to_lower_index(self):
        rng = np.random.default_rng(13)
        X = random_unit_rows(rng, 300, 6)
        dups = [3, 40, 41, 170, 299]
        X[dups] = X[3]
        theta = MixtureParams(means=X[3][None, :], kappas=np.array([30.0]))
        gamma = np.ones((300, 1))
        cfg = GisConfig(s=5, m_neighbors=8)
        reps = select_representatives(X, gamma, theta, cfg)
        np.testing.assert_array_equal(reps.indices[0], dups)
        assert np.all(reps.scores[0] == reps.scores[0][0])
        assert_matches_brute_force(X, gamma, theta, cfg)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_non_positive_support(self, beta):
        # pairs of nearly opposite points: every rho is close to -1
        base = normalize(np.array([1.0, 0.5, 0.2]))
        other = normalize(np.array([0.1, 1.0, -0.3]))
        X = np.stack([base, point_at_cosine(base, -0.95), other, point_at_cosine(other, -0.9)])
        labels = np.array([0, 0, 1, 1])
        theta = MixtureParams(means=np.stack([base, other]), kappas=np.array([2.0, 3.0]))
        gamma = one_hot_gamma(labels, 2, p=0.6)
        cfg = GisConfig(s=2, beta=beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reps = select_representatives(X, gamma, theta, cfg)
            rho = local_density(X[:2], np.arange(2), 16)
            scores = gis_score(np.arange(2), 0, X, gamma, theta, rho, cfg)
        assert np.all(rho <= -1e-8)
        if beta == 0.0:
            assert np.all(np.isfinite(scores))
        else:
            assert np.all(scores == -math.inf)
            assert all(np.all(sc == -math.inf) for sc in reps.scores)
        assert_matches_brute_force(X, gamma, theta, cfg)

    def test_array_and_scalar_forms_agree(self):
        rng = np.random.default_rng(15)
        X = random_unit_rows(rng, 900, 5)
        labels = rng.integers(0, 2, size=900)
        theta = random_params(rng, 2, 5)
        gamma = random_gamma(rng, 900, 2)
        cfg = GisConfig(m_neighbors=7)
        for k in range(2):
            members = np.flatnonzero(labels == k)
            rows = np.concatenate([rng.permutation(members.size)[:300], [0, 0, members.size - 1]])
            rho = local_density(X[members], rows, cfg.m_neighbors)
            idx = members[rows]
            scores = gis_score(idx, k, X, gamma, theta, rho, cfg)
            for j, i in enumerate(idx):
                sc = gis_score(int(i), k, X, gamma, theta, float(rho[j]), cfg)
                assert isinstance(sc, float)
                assert abs(sc - scores[j]) <= 1e-12

    def test_memory_is_blocked(self):
        # One 4000-point cluster: the full cosine matrix would take 128 MB.
        rng = np.random.default_rng(16)
        X = random_unit_rows(rng, 4000, 16)
        theta = random_params(rng, 1, 16)
        gamma = np.ones((4000, 1))
        _, peak = traced_peak(select_representatives, X, gamma, theta, GisConfig())
        assert peak < 4 * 2**20, peak

    def test_one_gather_of_the_cluster_at_a_time(self):
        # One 20,000-row cluster: gis_score's gather of the members and the
        # cluster gathered for local_density must not be held at once.
        rng = np.random.default_rng(17)
        X = random_unit_rows(rng, 20_000, 64)
        theta = random_params(rng, 1, 64)
        gamma = np.ones((X.shape[0], 1))
        _, peak = traced_peak(select_representatives, X, gamma, theta, GisConfig())
        assert peak < 1.6 * X.nbytes, peak / X.nbytes


def unit(*v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def count_support_rows(monkeypatch):
    """Wrap gis.local_density so each call's row count is recorded."""
    calls = []
    real = gis.local_density

    def counted(X_c, rows, m_neighbors):
        calls.append(rows.size)
        return real(X_c, rows, m_neighbors)

    monkeypatch.setattr(gis, "local_density", counted)
    return calls


class TestBoundedScanOracle:
    """select_representatives against the brute-force table where the
    bounded scan has its edges: no support term, S around the cluster size,
    ties on the cut-off, -inf scores, and rows that are not unit length."""

    def test_beta_zero_scores_one_block(self, monkeypatch):
        rng = np.random.default_rng(20)
        X = random_unit_rows(rng, 400, 6)
        theta = random_params(rng, 3, 6)
        gamma = posterior(theta, X)
        cfg = GisConfig(s=7, beta=0.0)
        calls = count_support_rows(monkeypatch)
        assert_matches_brute_force(X, gamma, theta, cfg)
        sizes = np.bincount(gamma.argmax(axis=1), minlength=3)
        assert calls == [min(cfg.s, int(n)) for n in sizes if n]

    @pytest.mark.parametrize("s", [14, 15, 16, 24, 25, 26])
    def test_s_around_cluster_size(self, s):
        rng = np.random.default_rng(21)
        X = random_unit_rows(rng, 40, 4)
        theta = random_params(rng, 2, 4)
        labels = np.array([0] * 25 + [1] * 15)
        assert_matches_brute_force(X, one_hot_gamma(labels, 2), theta,
                                   GisConfig(s=s, m_neighbors=4))

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_duplicates_tied_at_the_cut(self, beta):
        # Four leaders near the mean, then three copies of one row: the
        # copies hold places 5-7, so the 5th is a three-way tie on the score
        # (and, at beta = 0, the next bound equals the cut-off).
        rng = np.random.default_rng(22)
        e1 = np.array([1.0, 0.0, 0.0])
        X = random_unit_rows(rng, 300, 3)
        X = X[X[:, 0] < 0.5][:200]
        leaders = [0, 50, 100, 150]
        for j, i in enumerate(leaders):
            X[i] = point_at_cosine(e1, 0.99 - 0.001 * j)
        dups = [120, 7, 180]
        X[dups] = point_at_cosine(e1, 0.9)
        theta = MixtureParams(means=e1[None, :], kappas=np.array([10.0]))
        gamma = np.ones((X.shape[0], 1))
        cfg = GisConfig(s=5, m_neighbors=2, beta=beta)
        want_idx, want_scores = brute_force_reps(X, gamma, theta, replace(cfg, s=7))
        assert sorted(want_idx[0][4:]) == sorted(dups)
        assert want_scores[0][4] == want_scores[0][6]
        reps = select_representatives(X, gamma, theta, cfg)
        assert reps.indices[0][4] == min(dups)
        assert_matches_brute_force(X, gamma, theta, cfg)

    def test_non_positive_support_in_the_top(self):
        # Three near-copies near e1 have rho ~ 1; the two others' nearest
        # neighbor is at a negative cosine, so rho + eps <= 0 and their
        # score is -inf, yet one of them is in the top 4.
        rng = np.random.default_rng(23)
        A = normalize(np.array([1.0, 0.0, 0.0]) + 1e-3 * rng.standard_normal((3, 3)))
        X = np.vstack([unit(-0.3, 1.0, 0.0), A, unit(-0.3, -1.0, 0.0),
                       random_unit_rows(rng, 10, 3)])
        labels = np.array([0] * 5 + [1] * 10)
        theta = MixtureParams(means=np.stack([unit(1, 0, 0), unit(0, 0, 1)]),
                              kappas=np.array([5.0, 2.0]))
        gamma = one_hot_gamma(labels, 2)
        cfg = GisConfig(s=4, m_neighbors=1)
        reps = select_representatives(X, gamma, theta, cfg)
        np.testing.assert_array_equal(reps.indices[0][3], 0)
        assert reps.scores[0][3] == -math.inf
        assert_matches_brute_force(X, gamma, theta, cfg)

    def test_rows_longer_than_one(self):
        # 20 rows of norm 10 have dot products near 100 with each other,
        # so their support beats the unit rows' closer alignment with the
        # mean. A bound that takes rho <= 1 stops before reaching them.
        rng = np.random.default_rng(24)
        e1 = np.array([1.0, 0.0, 0.0])
        near_e1 = normalize(e1 + 0.05 * rng.standard_normal((60, 3)))
        long = 10.0 * normalize(unit(0.05, 1.0, 0.0) + 0.05 * rng.standard_normal((20, 3)))
        opposite = normalize(-e1 + 0.05 * rng.standard_normal((10, 3)))
        X = np.vstack([near_e1, long, opposite])
        theta = MixtureParams(means=np.stack([e1, -e1]), kappas=np.array([5.0, 5.0]))
        gamma = posterior(theta, X)
        cfg = GisConfig(s=5, beta=1.0)
        reps = select_representatives(X, gamma, theta, cfg)
        assert np.all((reps.indices[0] >= 60) & (reps.indices[0] < 80))
        assert_matches_brute_force(X, gamma, theta, cfg)

    def test_scores_few_members(self, monkeypatch):
        # gis-reps in small: two clusters, weights 4:1, kappa 100, s = 5.
        d, n = 32, 3000
        means = mixture_means(2, d, 0)
        X, _ = sample_mixture(n, means, np.full(2, 100.0), np.array([0.8, 0.2]), 0)
        theta = MixtureParams(means=means, kappas=np.full(2, 100.0))
        calls = count_support_rows(monkeypatch)
        select_representatives(X, posterior(theta, X), theta, GisConfig(s=5))
        assert len(calls) >= 2 and sum(calls) <= 0.05 * n, calls


class TestPromptExport:
    def test_two_documents(self, tmp_path):
        reps = RepresentativeSet(
            indices=[np.array([0, 1])], scores=[np.array([2.0, 1.0])]
        )
        texts = ["alpha doc", "beta doc"]
        files = export_taxonomy_prompts(reps, texts, tmp_path)
        assert files == [tmp_path / "cluster_000.prompt.txt"]
        body = files[0].read_text(encoding="utf-8")
        assert "2 documents" in body
        assert "alpha doc" in body and "beta doc" in body
        assert body.startswith("You are an expert data taxonomist.")
        assert "Summary: {summary content}" in body
        assert "Topic: {topic label}" in body
        assert "Description: {topic description}" in body

    def test_round_trip(self, tmp_path):
        texts = ["first payload", "second\nmultiline payload", "third"]
        reps = RepresentativeSet(
            indices=[np.array([2, 0]), np.array([1])],
            scores=[np.array([5.0, 4.0]), np.array([1.0])],
        )
        files = export_taxonomy_prompts(reps, texts, tmp_path)
        assert [f.name for f in files] == ["cluster_000.prompt.txt", "cluster_001.prompt.txt"]
        assert parse_taxonomy_prompt(files[0].read_text(encoding="utf-8")) == ["third", "first payload"]
        assert parse_taxonomy_prompt(files[1].read_text(encoding="utf-8")) == ["second\nmultiline payload"]

    def test_empty_cluster_warns_and_skips(self, tmp_path):
        reps = RepresentativeSet(
            indices=[np.empty(0, dtype=np.int64), np.array([0])],
            scores=[np.empty(0), np.array([1.0])],
        )
        with pytest.warns(UserWarning, match="cluster 0"):
            files = export_taxonomy_prompts(reps, ["doc"], tmp_path)
        assert [f.name for f in files] == ["cluster_001.prompt.txt"]
        assert not (tmp_path / "cluster_000.prompt.txt").exists()

    def test_missing_document(self, tmp_path):
        reps = RepresentativeSet(indices=[np.array([5])], scores=[np.array([1.0])])
        with pytest.raises(MissingDocumentError):
            export_taxonomy_prompts(reps, ["only one"], tmp_path)

    def test_files_get_open_mode(self, tmp_path):
        reps = RepresentativeSet(indices=[np.array([0])], scores=[np.array([1.0])])
        old = os.umask(0o022)
        try:
            (path,) = export_taxonomy_prompts(reps, ["doc"], tmp_path)
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o644

    def test_directory_holds_only_prompts(self, tmp_path):
        reps = RepresentativeSet(
            indices=[np.array([0, 1]), np.array([2])],
            scores=[np.array([2.0, 1.0]), np.array([1.0])],
        )
        out = tmp_path / "prompts"
        export_taxonomy_prompts(reps, ["a", "b", "c"], out)
        export_taxonomy_prompts(reps, ["a", "b", "c"], out)  # rewrite in place
        assert sorted(p.name for p in out.iterdir()) == [
            "cluster_000.prompt.txt", "cluster_001.prompt.txt"
        ]

    def test_template_fields(self):
        assert "{n_docs}" in PROMPT_TEMPLATE and "{docs_content}" in PROMPT_TEMPLATE

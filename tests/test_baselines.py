"""Baseline clusterers and partition metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unit_rows
from spheremix.baselines import (
    ClusterMetrics,
    HardPartition,
    collapse_report,
    hungarian_match,
    kmeans_fit,
    nmi,
    spherical_kmeans_fit,
)
from spheremix.errors import SizeMismatchError, TooFewPointsError
from spheremix.inference import init_spherical_kmeans
from spheremix.synth import mixture_means, sample_mixture


def part(labels, k):
    return HardPartition(labels=np.asarray(labels), k=k)


class TestKmeans:
    def test_separated_blobs(self):
        rng = np.random.default_rng(0)
        centers = np.array([[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0]])
        truth = np.repeat(np.arange(3), 50)
        X = centers[truth] + 0.3 * rng.standard_normal((150, 2))
        got = kmeans_fit(X, 3, seed=1)
        _, acc = hungarian_match(got, part(truth, 3))
        assert acc >= 0.99

    def test_k_equals_n(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 3))
        got = kmeans_fit(X, 6, seed=0)
        assert len(set(got.labels.tolist())) == 6

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((80, 4))
        np.testing.assert_array_equal(kmeans_fit(X, 4, seed=9).labels, kmeans_fit(X, 4, seed=9).labels)

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            kmeans_fit(np.eye(2), 3, seed=0)


class TestSphericalKmeans:
    def test_orthogonal_caps(self):
        means = mixture_means(4, 8, 3, arrangement="orthogonal")
        X, truth = sample_mixture(400, means, np.full(4, 200.0), np.full(4, 0.25), 3)
        got = spherical_kmeans_fit(X, 4, seed=0)
        _, acc = hungarian_match(got, part(truth, 4))
        assert acc >= 0.99

    def test_identical_points(self):
        X = np.tile([1.0, 0.0, 0.0], (10, 1))
        got = spherical_kmeans_fit(X, 2, seed=0)
        assert got.labels.shape == (10,)
        # cosine ties all resolve the same way, so one cluster takes all
        assert len(set(got.labels.tolist())) == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        X = random_unit_rows(rng, 100, 5)
        scales = rng.uniform(0.1, 30.0, size=100)[:, None]
        a = spherical_kmeans_fit(X, 3, seed=7)
        b = spherical_kmeans_fit(X * scales, 3, seed=7)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            spherical_kmeans_fit(np.eye(3), 4, seed=0)


class TestLloydEmptyClusterReseed:
    """Corpora on which a Lloyd round empties a cluster, so the core's
    reseed step runs; the outputs are pinned from before the spherical and
    Euclidean k-means shared one Lloyd core."""

    def test_euclidean_reseed_on_farthest_point(self):
        # ++ seeds (2,0), (1,0), (8,2). Round 0 sends the (2,0) rows to
        # center 1 and (5,1) to center 2, so cluster 0 is empty; round 1
        # reseeds it on (5,1), the point farthest from its own center
        # (7,1). Without the reseed (5,1) and (6,0) stay with cluster 2.
        X = np.array([[8, 2], [5, 1], [2, 0], [6, 0], [2, 0], [1, 0]], dtype=float)
        np.testing.assert_array_equal(kmeans_fit(X, 3, seed=8).labels, [2, 0, 1, 0, 1, 1])

    def test_spherical_reseed_on_least_aligned_point(self):
        # Two directions for three clusters: ++ seeds e3 and e1, then falls
        # back to the row e1, which ties with center 1 and loses, so
        # cluster 2 is empty. Every point sits on its own center (cosine
        # exactly 1), so the reseed takes the first row, e3.
        e1, e3 = [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]
        X = np.array([e3, e3, e1])
        np.testing.assert_array_equal(init_spherical_kmeans(X, 3, seed=14).means, [e3, e1, e3])
        np.testing.assert_array_equal(spherical_kmeans_fit(X, 3, seed=14).labels, [0, 0, 1])


class TestHungarianMatch:
    def test_identity(self):
        p = part([0, 1, 2, 0, 1, 2], 3)
        mapping, acc = hungarian_match(p, p)
        np.testing.assert_array_equal(mapping, [0, 1, 2])
        assert acc == 1.0

    def test_permutation(self):
        truth = part([0, 1, 2, 0, 1, 2], 3)
        pred = part([2, 0, 1, 2, 0, 1], 3)
        mapping, acc = hungarian_match(pred, truth)
        assert acc == 1.0
        np.testing.assert_array_equal(mapping, [1, 2, 0])

    def test_one_flip_in_ten(self):
        truth = part([0] * 5 + [1] * 5, 2)
        pred = part([0] * 5 + [1] * 4 + [0], 2)
        _, acc = hungarian_match(pred, truth)
        assert acc == pytest.approx(0.9)

    def test_extra_pred_clusters_map_to_minus_one(self):
        truth = part([0, 0, 1, 1], 2)
        pred = part([0, 1, 2, 3], 4)
        mapping, acc = hungarian_match(pred, truth)
        assert np.count_nonzero(mapping == -1) == 2
        assert acc == pytest.approx(0.5)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            hungarian_match(part([0, 1], 2), part([0, 1, 0], 2))

    @given(st.integers(0, 200), st.integers(2, 5))
    @settings(max_examples=30)
    def test_relabel_invariance(self, seed, k):
        rng = np.random.default_rng(seed)
        truth = rng.integers(0, k, size=60)
        pred = rng.integers(0, k, size=60)
        perm = rng.permutation(k)
        _, acc = hungarian_match(part(pred, k), part(truth, k))
        _, acc_p = hungarian_match(part(perm[pred], k), part(truth, k))
        assert acc == pytest.approx(acc_p)


class TestNmi:
    def test_equal_labelings(self):
        p = part([0, 1, 0, 1, 2, 2], 3)
        assert nmi(p, p) == pytest.approx(1.0)

    def test_permuted_labels(self):
        a = part([0, 1, 0, 1, 2, 2], 3)
        b = part([2, 0, 2, 0, 1, 1], 3)
        assert nmi(a, b) == pytest.approx(1.0)

    def test_independent_labelings_near_zero(self):
        rng = np.random.default_rng(5)
        a = part(rng.integers(0, 4, size=10_000), 4)
        b = part(rng.integers(0, 4, size=10_000), 4)
        assert nmi(a, b) <= 0.01

    def test_constant_labeling_is_zero(self):
        a = part([0] * 8, 1)
        b = part([0, 1, 0, 1, 0, 1, 0, 1], 2)
        assert nmi(a, b) == 0.0

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(6)
        a = part(rng.integers(0, 3, size=50), 3)
        b = part(rng.integers(0, 4, size=50), 4)
        v = nmi(a, b)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(nmi(b, a))

    @given(st.integers(0, 200), st.integers(2, 5))
    @settings(max_examples=30)
    def test_relabel_invariance(self, seed, k):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, k, size=60)
        b = rng.integers(0, k, size=60)
        perm = rng.permutation(k)
        assert nmi(part(a, k), part(b, k)) == pytest.approx(
            nmi(part(perm[a], k), part(b, k))
        )


class TestCollapseReport:
    def test_balanced(self):
        m = collapse_report(part([0, 1, 2, 0, 1, 2], 3))
        assert m.balance_l2 == pytest.approx(0.0)
        assert m.max_share == pytest.approx(1.0 / 3.0)

    def test_total_collapse(self):
        m = collapse_report(part([0] * 12, 4))
        assert m.max_share == 1.0
        assert m.balance_l2 == pytest.approx(math.sqrt(0.75))

    def test_sixty_forty(self):
        m = collapse_report(part([0] * 6 + [1] * 4, 2))
        assert m.balance_l2 == pytest.approx(math.sqrt(2 * 0.01))
        assert m.max_share == pytest.approx(0.6)

    def test_returns_partial_metrics(self):
        m = collapse_report(part([0, 1], 2))
        assert isinstance(m, ClusterMetrics)

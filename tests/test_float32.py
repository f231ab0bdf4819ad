"""Float32 embeddings, as GEMEMB1 stores them: every stage keeps them float32
and does its arithmetic in float64, one widened row block at a time, so the
results equal those on the widened array and no stage holds a float64 copy."""

import numpy as np
import pytest

from conftest import traced_peak
from spheremix.distill import build_pseudo_labeled
from spheremix.geometry import BLOCK_ENTRIES
from spheremix.gis import GisConfig, select_representatives
from spheremix.inference import FitConfig, fit, init_spherical_kmeans
from spheremix.objective import MixtureParams, log_component_scores, posterior
from spheremix.storage import read_embeddings, write_embeddings
from spheremix.synth import mixture_means, sample_mixture

BLOCK_BYTES = 8 * BLOCK_ENTRIES  # one widened row block


def float32_mixture(n, d, k, seed=0):
    """n float32 unit rows from k vMF clusters, and the generating mixture."""
    means = mixture_means(k, d, seed, arrangement="random")
    X, _ = sample_mixture(n, means, np.full(k, 100.0), None, seed=seed + 1)
    return X.astype(np.float32), MixtureParams(means=means, kappas=np.full(k, 100.0))


# 20,000 rows of d = 128: 20 row blocks; float32 X is 10 MB, a float64 copy 20 MB.
N, D, K = 20_000, 128, 16


@pytest.fixture(scope="module")
def mixture():
    X, theta = float32_mixture(N, D, K)
    return X, theta, posterior(theta, X)


class TestSameBitsAsFloat64:
    # Widening one row block at a time changes no bit: each block goes
    # through the product the whole widened array would.

    def test_scores(self, mixture):
        X, theta, _ = mixture
        np.testing.assert_array_equal(
            log_component_scores(X, theta), log_component_scores(X.astype(np.float64), theta)
        )

    def test_initializer(self, mixture):
        X, _, _ = mixture
        a = init_spherical_kmeans(X, K, seed=5)
        b = init_spherical_kmeans(X.astype(np.float64), K, seed=5)
        np.testing.assert_array_equal(a.means, b.means)

    def test_representatives(self, mixture):
        X, theta, gamma = mixture
        cfg = GisConfig(s=7)
        a = select_representatives(X, gamma, theta, cfg)
        b = select_representatives(X.astype(np.float64), gamma, theta, cfg)
        for got, want in zip(a.indices + a.scores, b.indices + b.scores):
            np.testing.assert_array_equal(got, want)


def _fit(X, theta, gamma):
    return fit(X, FitConfig(k=K, max_iters=2, seed=0)).gamma


def _posterior(X, theta, gamma):
    return posterior(theta, X)


def _representatives(X, theta, gamma):
    return select_representatives(X, gamma, theta, GisConfig(s=5))


def _pseudo_labeled(X, theta, gamma):
    return build_pseudo_labeled(theta, gamma, X, ["doc"] * X.shape[0], 5, GisConfig())


class TestNoFloat64Copy:
    # Above its own outputs (for the fit: its scores and gamma, with 0.5 n x k
    # of slack as in test_inference) a stage holds at most five row blocks;
    # a cluster's widened rows, about 1.3 MB here, count among them. Widening
    # X whole would add 20 blocks.
    @pytest.mark.parametrize("stage, held", [
        pytest.param(_fit, 2.5 * 8 * N * K, id="fit"),
        pytest.param(_posterior, 8 * N * K, id="posterior"),
        pytest.param(_representatives, 0, id="select_representatives"),
        pytest.param(_pseudo_labeled, 0, id="build_pseudo_labeled"),
    ])
    def test_peak(self, mixture, stage, held):
        X, theta, gamma = mixture
        _, peak = traced_peak(stage, X, theta, gamma)
        assert peak <= held + 5 * BLOCK_BYTES, (peak - held) / BLOCK_BYTES


def test_read_holds_the_float32_rows_once(tmp_path):
    # One readinto fills the returned float32 array; norms are taken one row
    # block at a time. (A float64 result would be 2x the payload.)
    X = np.random.default_rng(4).standard_normal((10_000, 512), dtype=np.float32)
    write_embeddings(X, tmp_path / "emb.bin")
    back, peak = traced_peak(read_embeddings, tmp_path / "emb.bin")
    assert back.dtype == np.float32
    assert peak <= 1.1 * X.nbytes, peak / X.nbytes

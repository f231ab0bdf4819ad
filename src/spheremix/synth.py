"""Synthetic corpora for experiments and tests.

Embedding-side: vMF mixtures with controllable means, concentrations and
cluster weights (including deliberately imbalanced "one giant cap plus
small caps" layouts that stress collapse behaviour). Text-side: documents
drawn from per-cluster vocabularies mixed with a shared noise vocabulary,
so cluster identity is recoverable from tokens alone.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, SizeMismatchError
from .geometry import normalize, sample_uniform_sphere, sample_vmf

# make_text_corpus: private words per cluster, and words shared by all.
_WORDS_PER_CLUSTER = 40
_NOISE_WORDS = 60


def mixture_means(k: int, d: int, seed: int, arrangement: str = "orthogonal") -> np.ndarray:
    """k unit mean directions: mutually orthogonal (requires k <= d) or
    uniform random."""
    if k < 1:
        raise ValueError(f"need at least 1 component, got {k}")
    rng = np.random.default_rng(seed)
    if arrangement == "orthogonal":
        if k > d:
            raise DimensionMismatchError(f"cannot fit {k} orthogonal means in d={d}")
        q, _ = np.linalg.qr(rng.standard_normal((d, k)))
        return q.T.copy()
    if arrangement == "random":
        return sample_uniform_sphere(k, d, rng)
    raise ValueError(f"unknown arrangement {arrangement!r}")


def sample_mixture(
    n: int,
    means: np.ndarray,
    kappas: np.ndarray,
    weights: np.ndarray | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n points from the vMF mixture; returns (X, true labels).

    n must be >= 1. weights default to uniform; they must be finite and
    are normalized if they do not sum to 1. Component draws use child
    seeds split from the master seed, so the overall draw is deterministic.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    means = normalize(np.asarray(means, dtype=np.float64))
    kappas = np.asarray(kappas, dtype=np.float64)
    k = means.shape[0]
    if kappas.shape != (k,):
        raise SizeMismatchError(f"{k} means but kappas shape {kappas.shape}")
    if weights is None:
        weights = np.full(k, 1.0 / k)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (k,):
            raise SizeMismatchError(f"{k} means but weights shape {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValueError(f"weights must be finite, got {weights.tolist()}")
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("weights must be nonnegative with positive sum")
        weights = weights / weights.sum()

    seq = np.random.SeedSequence(seed)
    label_rng = np.random.default_rng(seq.spawn(1)[0])
    labels = label_rng.choice(k, size=n, p=weights)
    X = np.empty((n, means.shape[1]))
    comp_seeds = seq.spawn(k + 1)[1:]
    for j in range(k):
        rows = np.flatnonzero(labels == j)
        if rows.size == 0:
            continue
        X[rows] = sample_vmf(
            means[j], float(kappas[j]), rows.size, np.random.default_rng(comp_seeds[j])
        )
    return X, labels


def make_text_corpus(
    labels: np.ndarray,
    k: int,
    seed: int = 0,
    noise_rate: float = 0.3,
    doc_len: int = 30,
) -> list[str]:
    """One document per label: doc_len tokens, each drawn from the label's
    private vocabulary with probability 1 - noise_rate, else from the
    shared noise vocabulary. Token spellings encode nothing beyond the
    vocabulary id."""
    if not 0.0 <= noise_rate <= 1.0:
        raise ValueError(f"noise_rate must lie in [0, 1], got {noise_rate}")
    if doc_len < 0:
        raise ValueError(f"doc_len must be >= 0, got {doc_len}")
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError("labels must lie in [0, k)")
    rng = np.random.default_rng(seed)
    vocab = [[f"w{c}x{j}" for j in range(_WORDS_PER_CLUSTER)] for c in range(k)]
    noise = [f"zq{j}" for j in range(_NOISE_WORDS)]
    docs = []
    for lab in labels:
        own = vocab[int(lab)]
        use_noise = rng.random(doc_len) < noise_rate
        own_ids = rng.integers(len(own), size=doc_len)
        noise_ids = rng.integers(len(noise), size=doc_len)
        tokens = [
            noise[noise_ids[t]] if use_noise[t] else own[own_ids[t]]
            for t in range(doc_len)
        ]
        docs.append(" ".join(tokens))
    return docs


def collapse_stress_corpus(n: int, k: int, d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Anisotropy-stressed layout: one dominant dense cap (kappa 30)
    holding 70% of the mass plus k - 1 small diffuse caps (kappa 10).
    Euclidean k-means parks a single center on the dense cap and inherits
    its full share; adaptive concentrations shrink the dense component's
    catchment and a balance penalty splits it outright."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    giant_share = 0.7
    means = mixture_means(k, d, seed, arrangement="orthogonal" if k <= d else "random")
    kappas = np.full(k, 10.0)
    kappas[0] = 30.0
    weights = np.full(k, (1.0 - giant_share) / (k - 1))
    weights[0] = giant_share
    return sample_mixture(n, means, kappas, weights, seed=seed)


def crowded_trio_corpus(n: int, d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge-stressed layout with k = 6: three tight caps (kappa 60, 60% of
    the mass) crowded around a shared axis, each tilted 0.45 off it, plus
    three mutually orthogonal diffuse caps (kappa 8). Distance-based
    clustering tends to fuse the crowded trio into one blob and shave the
    diffuse caps apart; telling the trio apart requires
    concentration-aware assignments."""
    if d < 6:
        raise ValueError(f"need d >= 6, got {d}")
    tilt, crowd_share = 0.45, 0.6
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, 6)))
    q = q.T
    trio = normalize(
        np.stack(
            [
                q[0] + tilt * q[1],
                q[0] + tilt * q[2],
                q[0] - tilt * (q[1] + q[2]) / np.sqrt(2.0),
            ]
        )
    )
    means = np.vstack([trio, q[3:6]])
    kappas = np.array([60.0] * 3 + [8.0] * 3)
    weights = np.array([crowd_share / 3] * 3 + [(1.0 - crowd_share) / 3] * 3)
    return sample_mixture(n, means, kappas, weights, seed=seed)

"""Hard-clustering baselines and partition metrics.

Euclidean k-means (k-means++ seeded), spherical k-means (the fit's
initializer run as a hard clustering), optimal label matching by the
Hungarian algorithm, normalized mutual information, and the collapse
report (how far the cluster-size histogram sits from uniform).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import xlogy

from .errors import SizeMismatchError, TooFewPointsError
from .geometry import normalize
from .inference import init_spherical_kmeans


@dataclass(frozen=True)
class HardPartition:
    """Cluster labels in [0, k) for each point."""

    labels: np.ndarray
    k: int

    def validate(self) -> "HardPartition":
        if self.labels.ndim != 1:
            raise SizeMismatchError(f"labels must be 1-d, got {self.labels.shape}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise ValueError("labels must lie in [0, k)")
        return self


@dataclass(frozen=True)
class ClusterMetrics:
    """Partition quality numbers; agreement fields are None when no
    reference labelling was supplied."""

    balance_l2: float
    max_share: float
    nmi: float | None = None
    matched_accuracy: float | None = None


def _kmeanspp_seed(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding under squared Euclidean distance."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            centers[j:] = X[rng.integers(n, size=k - j)]
            break
        centers[j] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))
    return centers


def kmeans_fit(X: np.ndarray, k: int, seed: int, max_rounds: int = 100) -> HardPartition:
    """Lloyd's algorithm in Euclidean space; deterministic for a fixed seed."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < k:
        raise TooFewPointsError(f"{n} points cannot support k={k} clusters")
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_seed(X, k, rng)
    labels = np.argmin(_sq_dists(X, centers), axis=1)
    for _ in range(max_rounds):
        for j in range(k):
            mask = labels == j
            if not np.any(mask):
                # Move an empty center onto the point farthest from its
                # current center.
                far = np.take_along_axis(
                    _sq_dists(X, centers), labels[:, None], axis=1
                ).ravel()
                centers[j] = X[int(np.argmax(far))]
                continue
            centers[j] = X[mask].mean(axis=0)
        new_labels = np.argmin(_sq_dists(X, centers), axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return HardPartition(labels=labels, k=k).validate()


def _sq_dists(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return (
        np.sum(X * X, axis=1)[:, None]
        - 2.0 * X @ centers.T
        + np.sum(centers * centers, axis=1)[None, :]
    )


def spherical_kmeans_fit(
    X: np.ndarray, k: int, seed: int, max_rounds: int = 100
) -> HardPartition:
    """k-means with cosine assignment and normalized-resultant centroids
    (Dhillon & Modha 2001): init_spherical_kmeans on the normalized rows,
    each point labelled by its nearest final centroid."""
    Xu = normalize(X)
    theta = init_spherical_kmeans(Xu, k, seed, max_rounds=max_rounds)
    return HardPartition(labels=np.argmax(Xu @ theta.means.T, axis=1), k=k).validate()


def _contingency(a: HardPartition, b: HardPartition) -> np.ndarray:
    if a.labels.shape != b.labels.shape:
        raise SizeMismatchError(
            f"label vectors disagree: {a.labels.shape} vs {b.labels.shape}"
        )
    table = np.zeros((a.k, b.k), dtype=np.int64)
    np.add.at(table, (a.labels, b.labels), 1)
    return table


def hungarian_match(pred: HardPartition, truth: HardPartition) -> tuple[np.ndarray, float]:
    """Best one-to-one relabelling of pred onto truth and its accuracy.

    Maximizes total agreement over injective cluster matchings; predicted
    clusters left unmatched (when pred.k > truth.k) map to -1 and count as
    errors. Accuracy is matched agreements over n.
    """
    pred = pred.validate()
    truth = truth.validate()
    table = _contingency(pred, truth)
    rows, cols = linear_sum_assignment(table, maximize=True)
    mapping = np.full(pred.k, -1, dtype=np.int64)
    mapping[rows] = cols
    agreements = int(table[rows, cols].sum())
    return mapping, agreements / pred.labels.size


def nmi(a: HardPartition, b: HardPartition) -> float:
    """Normalized mutual information with arithmetic-mean normalization.

    I(A; B) / ((H(A) + H(B)) / 2), natural log, clipped into [0, 1].
    Returns 0 when either labelling is constant (zero entropy carries no
    shared information).
    """
    a = a.validate()
    b = b.validate()
    table = _contingency(a, b).astype(np.float64)
    n = table.sum()
    if n == 0:
        raise SizeMismatchError("cannot compute NMI of empty labellings")
    p = table / n
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    ha = -float(np.sum(xlogy(pa, pa)))
    hb = -float(np.sum(xlogy(pb, pb)))
    if ha == 0.0 or hb == 0.0:
        return 0.0
    # I = H(A) + H(B) - H(A, B)
    mi = ha + hb + float(np.sum(xlogy(p, p)))
    return float(np.clip(mi / (0.5 * (ha + hb)), 0.0, 1.0))


def collapse_report(p: HardPartition) -> ClusterMetrics:
    """Distance of the cluster-share histogram from uniform.

    balance_l2 = ||shares - 1/k||_2 over all k declared clusters (empty
    ones contribute their full 1/k gap); max_share is the largest share.
    """
    p = p.validate()
    if p.labels.size == 0:
        raise SizeMismatchError("cannot report on an empty partition")
    shares = np.bincount(p.labels, minlength=p.k) / p.labels.size
    u = 1.0 / p.k
    return ClusterMetrics(
        balance_l2=float(np.linalg.norm(shares - u)),
        max_share=float(shares.max()),
    )

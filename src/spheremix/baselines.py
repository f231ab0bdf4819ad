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

from .errors import SizeMismatchError
from .geometry import as_embeddings, normalize
from .inference import _SPHERICAL, _kmeans


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
    """Balance of a partition's cluster shares (collapse_report)."""

    balance_l2: float
    max_share: float


def _sq_dists(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return (
        np.sum(X * X, axis=1)[:, None]
        - 2.0 * X @ centers.T
        + np.sum(centers * centers, axis=1)[None, :]
    )


# _kmeans steps for Euclidean k-means: squared distance seeds and
# assigns, the mean is the centroid.
_EUCLIDEAN = (
    lambda X, c: np.sum((X - c) ** 2, axis=1),
    lambda X, C: -_sq_dists(X, C),
    lambda X, C, labels: -np.take_along_axis(_sq_dists(X, C), labels[:, None], axis=1).ravel(),
    lambda members: members.mean(axis=0),
)


def kmeans_fit(X: np.ndarray, k: int, seed: int) -> HardPartition:
    """Lloyd's algorithm in Euclidean space with k-means++ seeding;
    deterministic for a fixed seed."""
    X = np.asarray(X, dtype=np.float64)
    _, labels = _kmeans(X, k, seed, _EUCLIDEAN)
    return HardPartition(labels=labels, k=k).validate()


def spherical_kmeans_fit(X: np.ndarray, k: int, seed: int) -> HardPartition:
    """k-means with cosine assignment and normalized-resultant centroids
    (Dhillon & Modha 2001), the fit's initializer run on the normalized
    rows as a hard clustering."""
    _, labels = _kmeans(as_embeddings(normalize(X)), k, seed, _SPHERICAL)
    return HardPartition(labels=labels, k=k).validate()


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

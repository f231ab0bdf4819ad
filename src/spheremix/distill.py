"""Teacher-student distillation into a hashed n-gram linear classifier.

The fitted mixture (teacher) pseudo-labels a balanced, influence-ranked
subset of the corpus; a multinomial logistic regression over hashed
word uni+bigram counts (student) then learns to reproduce the partition
from raw text alone, at constant cost per document.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DivergedError,
    EmptySetError,
    MissingDocumentError,
    SingleClassError,
    SizeMismatchError,
)
from .gis import GisConfig, select_representatives
from .objective import MixtureParams

DEFAULT_BUCKETS = 1 << 21
DEFAULT_EPOCHS = 10
DEFAULT_LR = 0.1


@dataclass(frozen=True)
class FeaturizerSpec:
    """Hashed bag-of-n-grams layout; fixed at training time and stored
    with the model so prediction is reproducible anywhere."""

    buckets: int = DEFAULT_BUCKETS
    ngram_max: int = 2
    hash_seed: int = 0

    def validate(self) -> "FeaturizerSpec":
        if not 1 <= self.buckets < 2**32:  # stored as a u32
            raise ValueError(f"buckets must lie in [1, 2^32), got {self.buckets}")
        if not 1 <= self.ngram_max <= 8:
            raise ValueError(f"ngram_max must lie in [1, 8], got {self.ngram_max}")
        if not 0 <= self.hash_seed < 2**32:
            raise ValueError("hash_seed must fit in u32")
        return self


@dataclass(frozen=True)
class PseudoLabeledSet:
    """Balanced pseudo-labeled records: raw texts with teacher cluster ids.

    source_ids trace each record back to its corpus index; k is the number
    of teacher clusters (labels live in [0, k))."""

    texts: list[str]
    labels: np.ndarray
    source_ids: np.ndarray
    k: int

    def __len__(self) -> int:
        return len(self.texts)

    @property
    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)

    def validate(self) -> "PseudoLabeledSet":
        if not (len(self.texts) == self.labels.size == self.source_ids.size):
            raise SizeMismatchError("texts, labels and source_ids must be parallel")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise ValueError("labels must lie in [0, k)")
        pairs = set(zip(self.source_ids.tolist(), self.labels.tolist()))
        if len(pairs) != self.labels.size:
            raise ValueError("duplicate (source_id, label) records")
        return self

    def subset(self, rows: np.ndarray) -> "PseudoLabeledSet":
        return PseudoLabeledSet(
            texts=[self.texts[int(r)] for r in rows],
            labels=self.labels[rows],
            source_ids=self.source_ids[rows],
            k=self.k,
        )


@dataclass
class StudentModel:
    """Linear softmax classifier over hashed n-gram features.

    Weights and bias are float32: the serialized form is float32, and
    keeping the live model in the same precision makes save -> load ->
    predict bit-identical to predicting before the save. loss_trace is
    training metadata only and is not serialized.
    """

    weights: np.ndarray  # (buckets, k), float32
    bias: np.ndarray     # (k,), float32
    featurizer: FeaturizerSpec
    loss_trace: np.ndarray | None = field(default=None, compare=False)

    @property
    def k(self) -> int:
        return self.bias.shape[0]


def _hash_token(token: str, seed: int) -> int:
    h = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=seed.to_bytes(4, "little")
    )
    return int.from_bytes(h.digest(), "little")


def featurize(text: str, spec: FeaturizerSpec) -> dict[int, float]:
    """Sparse ell_2-normalized hashed n-gram counts for one document.

    Lowercases, splits on whitespace, emits word n-grams up to
    spec.ngram_max (bigrams joined with '_'), hashes each into
    [0, buckets), accumulates counts per bucket, then normalizes. Empty
    text gives an empty (zero) vector.
    """
    tokens = text.lower().split()
    counts: dict[int, float] = {}
    for order in range(1, spec.ngram_max + 1):
        for j in range(len(tokens) - order + 1):
            gram = "_".join(tokens[j : j + order])
            b = _hash_token(gram, spec.hash_seed) % spec.buckets
            counts[b] = counts.get(b, 0.0) + 1.0
    if not counts:
        return counts
    norm = np.sqrt(sum(v * v for v in counts.values()))
    return {b: v / norm for b, v in counts.items()}


def build_pseudo_labeled(
    theta: MixtureParams,
    gamma: np.ndarray,
    X: np.ndarray,
    texts: list[str],
    m_distill: int,
    gis_cfg: GisConfig,
    seed: int = 0,
) -> PseudoLabeledSet:
    """Balanced training set: each cluster's top-m_distill samples by
    influence score (all members when the cluster is smaller), with hard
    teacher labels, shuffled deterministically by seed."""
    if len(texts) != X.shape[0]:
        raise MissingDocumentError(
            f"{X.shape[0]} embeddings but {len(texts)} documents"
        )
    reps = select_representatives(X, gamma, theta, replace(gis_cfg, s=m_distill))
    return _shuffled_set(reps.indices, texts, theta.k, np.random.default_rng(seed))


def balanced_random_sample(
    labels: np.ndarray, texts: list[str], k: int, m_per_class: int, seed: int
) -> PseudoLabeledSet:
    """Baseline curation: m random members per hard cluster (all members
    when smaller). Used for teachers that provide labels but no scores."""
    labels = np.asarray(labels)
    if labels.size != len(texts):
        raise MissingDocumentError(f"{labels.size} labels but {len(texts)} documents")
    rng = np.random.default_rng(seed)
    per_class = []
    for c in range(k):
        members = np.flatnonzero(labels == c)
        if members.size > m_per_class:
            members = rng.choice(members, size=m_per_class, replace=False)
        per_class.append(np.sort(members))
    return _shuffled_set(per_class, texts, k, rng)


def _shuffled_set(
    per_class: list[np.ndarray], texts: list[str], k: int, rng: np.random.Generator
) -> PseudoLabeledSet:
    """Records for per-class corpus ids, labelled by class and put in the
    order of one rng permutation."""
    ids = np.asarray([int(i) for members in per_class for i in members], dtype=np.int64)
    labs = np.asarray(
        [c for c, members in enumerate(per_class) for _ in members], dtype=np.int64
    )
    order = rng.permutation(ids.size)
    ids, labs = ids[order], labs[order]
    return PseudoLabeledSet(
        texts=[texts[int(i)] for i in ids], labels=labs, source_ids=ids, k=k
    ).validate()


def split_dataset(
    ds: PseudoLabeledSet, seed: int = 0
) -> tuple[PseudoLabeledSet, PseudoLabeledSet, PseudoLabeledSet]:
    """Shuffled 80/10/10 train/validation/test split."""
    n = len(ds)
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(0.8 * n))
    n_val = int(round(0.1 * n))
    return (
        ds.subset(order[:n_train]),
        ds.subset(order[n_train : n_train + n_val]),
        ds.subset(order[n_train + n_val :]),
    )


def _sparse(features: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """featurize's dict as parallel bucket-index and value arrays, in the
    dict's order. The buckets are unique."""
    n = len(features)
    return (
        np.fromiter(features.keys(), dtype=np.intp, count=n),
        np.fromiter(features.values(), dtype=np.float64, count=n),
    )


def _scores(w: np.ndarray, b: np.ndarray, idx: np.ndarray, val: np.ndarray) -> np.ndarray:
    """Float64 class scores b + sum_j val_j * w[idx_j] for one document.

    w and b may be the float64 training state or the float32 saved model;
    float32 rows are widened exactly before the multiply. The contributions
    are added to the bias one feature at a time, in feature order: summing
    axis 0 of a C-ordered (m, k > 1) array adds its rows in sequence.
    """
    rows = w[idx].astype(np.float64, copy=False) * val[:, None]
    return np.concatenate((b[None, :].astype(np.float64, copy=False), rows)).sum(axis=0)


def _softmax(s: np.ndarray) -> np.ndarray:
    e = np.exp(s - s.max())
    return e / e.sum()


def train_student(
    ds: PseudoLabeledSet,
    epochs: int = DEFAULT_EPOCHS,
    lr: float = DEFAULT_LR,
    seed: int = 0,
    spec: FeaturizerSpec = FeaturizerSpec(),
) -> StudentModel:
    """Multinomial logistic regression by SGD with a linearly decaying rate.

    One sample per step, reshuffled each epoch, deterministic for a fixed
    seed. The returned model carries the per-epoch mean cross-entropy in
    loss_trace. Weights accumulate in float64 during training, only for the
    buckets the training documents touch, and are scattered into a zero
    float32 (buckets, k) matrix at the end (the serialized precision).
    Raises DivergedError when an epoch's loss, or a float32 weight or bias, is not finite.
    """
    ds = ds.validate()
    if len(ds) == 0:
        raise EmptySetError("cannot train on an empty dataset")
    if np.unique(ds.labels).size < 2:
        raise SingleClassError("training needs at least two distinct classes")
    spec = spec.validate()
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if not lr > 0.0:
        raise ValueError(f"lr must be > 0, got {lr}")

    feats = [_sparse(featurize(t, spec)) for t in ds.texts]
    rows = np.unique(np.concatenate([idx for idx, _ in feats]))
    feats = [(np.searchsorted(rows, idx), val) for idx, val in feats]
    k = ds.k
    w = np.zeros((rows.size, k), dtype=np.float64)
    b = np.zeros(k, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = len(ds)
    total_steps = epochs * n
    step = 0
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            for i in rng.permutation(n):
                rate = lr * (1.0 - step / total_steps)
                step += 1
                idx, val = feats[i]
                p = _softmax(_scores(w, b, idx, val))
                p[ds.labels[i]] -= 1.0  # gradient of CE wrt scores
                b -= rate * p
                w[idx] -= (rate * val)[:, None] * p
            total = 0.0
            for (idx, val), y in zip(feats, ds.labels):
                s = _scores(w, b, idx, val)
                s -= s.max()
                total += float(np.log(np.exp(s).sum()) - s[y])
            if not np.isfinite(total):
                raise DivergedError(f"training diverged in epoch {epoch}: loss {total / n}")
            losses.append(total / n)
        w32, b32 = w.astype(np.float32), b.astype(np.float32)
        if not np.isfinite(w32.sum(dtype=np.float64) + b32.sum(dtype=np.float64)):
            raise DivergedError(f"training diverged by epoch {epochs}: weights overflow float32")
    del w  # before the dense matrix is made, so the peak holds one compact copy
    weights = np.zeros((spec.buckets, k), dtype=np.float32)
    weights[rows] = w32
    return StudentModel(
        weights=weights,
        bias=b32,
        featurizer=spec,
        loss_trace=np.asarray(losses),
    )


def predict_student(model: StudentModel, text: str) -> tuple[np.ndarray, int]:
    """Class probabilities and argmax label for one document.

    Cost depends only on the document length, never on training-corpus
    size. Empty text scores as the softmax of the bias alone. Ties resolve
    to the lowest index.
    """
    idx, val = _sparse(featurize(text, model.featurizer))
    probs = _softmax(_scores(model.weights, model.bias, idx, val))
    return probs, int(np.argmax(probs))


def evaluate_student(
    model: StudentModel, held_out: PseudoLabeledSet
) -> tuple[float, np.ndarray]:
    """Top-1 accuracy and (k, k) confusion counts, rows = true label."""
    held_out = held_out.validate()
    if len(held_out) == 0:
        raise EmptySetError("cannot evaluate on an empty dataset")
    confusion = np.zeros((held_out.k, held_out.k), dtype=np.int64)
    hits = 0
    for text, label in zip(held_out.texts, held_out.labels):
        _, pred = predict_student(model, text)
        confusion[label, pred] += 1
        hits += int(pred == label)
    return hits / len(held_out), confusion

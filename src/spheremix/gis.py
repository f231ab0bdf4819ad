"""Representative selection by geometric influence.

A sample's influence for its cluster combines three log-domain terms:
assignment certainty log(gamma_ik + eps), directional coherence (the vMF
log-density under the cluster's component), and beta-weighted local
support log(rho + eps), where rho is the mean cosine to the M nearest
same-cluster neighbors. Top-scoring samples become the cluster's
representatives and can be exported as taxonomy-labelling prompt files.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import MissingDocumentError, SizeMismatchError
from .geometry import row_blocks, vmf_log_density
from .objective import MixtureParams, check_responsibilities

PROMPT_TEMPLATE = """You are an expert data taxonomist.
I will provide you with {n_docs} documents that belong to the same semantic cluster.
Your task is to:
1. Summarize the common theme and content of these documents in 2-3 sentences.
2. Based on the summary, assign a single, concise, and high-quality 'Topic Label' (2-5 words) that best describes this cluster.
3. Describe the topic in a sentence.

Documents:
{docs_content}

Please strictly follow the output format:
Summary: {{summary content}}
Topic: {{topic label}}
Description: {{topic description}}
"""


@dataclass(frozen=True)
class GisConfig:
    """beta weights the local-support term; m_neighbors is the kNN size;
    s is how many representatives each cluster keeps."""

    beta: float = 1.0
    m_neighbors: int = 16
    s: int = 5

    def validate(self) -> "GisConfig":
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if self.m_neighbors < 1 or self.s < 1:
            raise ValueError("m_neighbors and s must be >= 1")
        return self


@dataclass(frozen=True)
class RepresentativeSet:
    """Per-cluster representatives: parallel index/score lists, each sorted
    by descending score (ties broken by lower index). Clusters with no hard
    members get empty arrays."""

    indices: list[np.ndarray]
    scores: list[np.ndarray]

    @property
    def k(self) -> int:
        return len(self.indices)


# Shift inside the certainty and support logs, log(gamma_ik + eps) and
# log(rho + eps), so a zero never reaches the log.
_EPS = 1e-8


def local_density(X_c: np.ndarray, rows: np.ndarray, m_neighbors: int) -> np.ndarray:
    """Mean cosine from each row X_c[rows] to its m nearest other rows of X_c.

    X_c holds one cluster's members and `rows` are positions within it, so
    a nearer point in another cluster is never seen. When the cluster has
    fewer than m other members, all of them are used; a singleton cluster
    has no neighbors and gets rho = 0. The rows are compared with the
    cluster in row blocks (geometry.row_blocks), so the extra memory is O(1 MB).
    """
    n_k = X_c.shape[0]
    rho = np.zeros(rows.size)
    if n_k == 1:
        return rho
    m = min(m_neighbors, n_k - 1)
    for b in row_blocks(rows.size, n_k):
        r = rows[b]
        cos = X_c[r] @ X_c.T
        cos[np.arange(r.size), r] = -np.inf
        cos.partition(n_k - m, axis=1)
        # Ascending, as np.sort(cos)[-m:] leaves them, so the mean sums
        # in one order whatever the block.
        rho[b] = np.sort(cos[:, n_k - m :], axis=1).mean(axis=1)
    return rho


def _support(rho: float | np.ndarray, cfg: GisConfig) -> np.ndarray:
    """The support term beta log(rho + eps): zero at beta = 0 whatever rho
    is, otherwise -inf where rho + eps <= 0."""
    shifted = np.asarray(rho, dtype=np.float64) + _EPS
    support = np.zeros(shifted.shape)
    if cfg.beta != 0.0:
        pos = shifted > 0.0
        support[pos] = cfg.beta * np.log(shifted[pos])
        support[~pos] = -np.inf
    return support


def gis_score(
    i: int | np.ndarray,
    k: int,
    X: np.ndarray,
    gamma: np.ndarray,
    theta: MixtureParams,
    rho: float | np.ndarray,
    cfg: GisConfig,
) -> float | np.ndarray:
    """Influence of sample i for cluster k given its precomputed rho.

    log(gamma_ik + eps) + log f(x_i | mu_k, kappa_k) + beta log(rho + eps).
    beta = 0 removes the support term entirely (even when rho + eps <= 0);
    otherwise a non-positive rho + eps makes the score -inf, so
    semantically isolated points sort last rather than raising.

    `i` and `rho` may be one index and one float, giving a float, or
    parallel arrays, giving an array of scores.
    """
    idx = np.asarray(i, dtype=np.int64)
    certainty = np.log(gamma[idx, k] + _EPS)
    coherence = vmf_log_density(X[idx], theta.means[k], float(theta.kappas[k]))
    out = certainty + coherence + _support(rho, cfg)
    return float(out) if idx.ndim == 0 else out


def select_representatives(
    X: np.ndarray, gamma: np.ndarray, theta: MixtureParams, cfg: GisConfig
) -> RepresentativeSet:
    """Top-s samples of every cluster by influence score.

    Clusters are the hard argmax assignment of gamma (ties to the lowest
    index via argmax). Within a cluster, one gis_score call gives every
    member its score without the support term, c_i. By Cauchy-Schwarz,
    rho_i <= |x_i| max_j |x_j| over the cluster's members (1 for unit rows;
    rows read from a file whose normalized flag is 0 may be longer), so
    c_i + beta log(that bound + eps) bounds the full score from above.
    Members are visited in descending bound order, lower index first on
    ties, and local_density scores them in blocks of s, 2s, 4s, ...; the
    scan stops when the next bound is strictly below the s-th best full
    score, since no member left can then enter the top s. The top s of the
    visited members survive, sorted by descending score with index as the
    tie-breaker: the same set and order as scoring every member. An empty
    cluster yields an empty list rather than an error.
    """
    cfg = cfg.validate()
    gamma = check_responsibilities(gamma)
    X = np.asarray(X, dtype=np.float64)
    if gamma.shape[0] != X.shape[0]:
        raise SizeMismatchError(f"{X.shape[0]} points vs {gamma.shape[0]} rows")
    labels = np.argmax(gamma, axis=1)
    no_support = replace(cfg, beta=0.0)
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    # A computed d-term dot product exceeds the exact one by at most
    # gamma_d |x||y|, gamma_d ~ d u with u = eps / 2 (Higham 2002, sec. 3.1);
    # the mean of m cosines, the two computed norms and their product add
    # about (d + m + 6) u. A relative slack of 4 (d + m) eps covers both.
    slack = 4.0 * (X.shape[1] + cfg.m_neighbors) * np.finfo(np.float64).eps
    indices: list[np.ndarray] = []
    scores: list[np.ndarray] = []
    for k in range(theta.k):
        members = np.flatnonzero(labels == k)
        n_k = members.size
        if n_k == 0:
            indices.append(np.empty(0, dtype=np.int64))
            scores.append(np.empty(0, dtype=np.float64))
            continue
        cheap = gis_score(members, k, X, gamma, theta, 0.0, no_support)
        # Gathered after gis_score, so its temporaries and X_c never coexist.
        X_c = X[members]
        lengths = norms[members]
        bound = cheap + _support(lengths * (lengths.max() * (1.0 + slack)), cfg)
        visit = np.lexsort((members, -bound))
        vals = np.empty(n_k)
        seen, size = 0, cfg.s
        while True:
            block = np.sort(visit[seen : seen + size])
            rho = local_density(X_c, block, cfg.m_neighbors)
            # Every full score adds its support to the same cheap value its
            # bound does, so a score never rounds above its bound.
            vals[block] = cheap[block] + _support(rho, cfg)
            seen, size = seen + block.size, 2 * size
            if seen == n_k:
                break
            cut = np.partition(vals[visit[:seen]], seen - cfg.s)[seen - cfg.s]
            if bound[visit[seen]] < cut:
                break
        # Sort by (-score, index): descending score, lower index on ties.
        top = visit[:seen]
        top = top[np.lexsort((members[top], -vals[top]))[: cfg.s]]
        indices.append(members[top])
        scores.append(vals[top])
    return RepresentativeSet(indices=indices, scores=scores)


def _render_docs(texts: list[str]) -> str:
    parts = [f"[Document {j + 1}]\n{t}" for j, t in enumerate(texts)]
    return "\n\n".join(parts)


def export_taxonomy_prompts(
    reps: RepresentativeSet, texts: list[str], out_dir: str | Path
) -> list[Path]:
    """Write one prompt file per non-empty cluster into out_dir.

    Files are named cluster_{k:03}.prompt.txt. A cluster with no
    representatives gets a warning and no file. Raises MissingDocumentError
    when a representative index has no document text.
    """
    from .storage import atomic_write_text  # storage imports gis via distill

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for k in range(reps.k):
        idx = reps.indices[k]
        if idx.size == 0:
            warnings.warn(f"cluster {k} has no representatives; skipping prompt")
            continue
        docs = []
        for i in idx:
            if i < 0 or i >= len(texts):
                raise MissingDocumentError(f"no document for sample index {int(i)}")
            docs.append(texts[int(i)])
        body = PROMPT_TEMPLATE.format(n_docs=len(docs), docs_content=_render_docs(docs))
        path = out_dir / f"cluster_{k:03}.prompt.txt"
        atomic_write_text(path, body)
        written.append(path)
    return written


_DOCS_HEAD = "Documents:\n"
_DOCS_TAIL = "\n\nPlease strictly follow the output format:"
_DOC_MARK = re.compile(r"(?:^|\n\n)\[Document (\d+)\]\n", re.S)


def parse_taxonomy_prompt(text: str) -> list[str]:
    """Recover the document payloads from an exported prompt.

    Inverse of export_taxonomy_prompts for documents that do not themselves
    contain the '[Document j]' separator lines or the template's closing
    section.
    """
    start = text.index(_DOCS_HEAD) + len(_DOCS_HEAD)
    end = text.index(_DOCS_TAIL, start)
    section = text[start:end]
    marks = list(_DOC_MARK.finditer(section))
    if not marks:
        return []
    docs = []
    for j, m in enumerate(marks):
        stop = marks[j + 1].start() if j + 1 < len(marks) else len(section)
        docs.append(section[m.end() : stop])
    return docs

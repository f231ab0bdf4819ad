"""Objective pieces for the balance-regularized spherical mixture.

The fitted criterion is

    F(theta, gamma) = sum_ik gamma_ik log(alpha_k f(x_i | mu_k, kappa_k))
                      + sum_i H(gamma_i)
                      - (lam / 2) ||pi(gamma) - u||^2

with a fixed uniform prior alpha_k = 1/K, pi(gamma) the column means of
gamma, and u the uniform distribution. The quadratic balance term is
concave with an exactly lam-Lipschitz gradient, which is what makes the
linearized surrogate below a true minorizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DimensionMismatchError, SizeMismatchError
from .geometry import KAPPA_MAX, dot_rows, log_vmf_norm_consts, row_blocks

_ROW_SUM_ATOL = 1e-9


@dataclass(frozen=True)
class MixtureParams:
    """vMF mixture parameters: unit mean directions and concentrations.

    The mixing prior is fixed at 1/K by design (the balance penalty acts
    on the responsibilities instead), so it is not stored.
    """

    means: np.ndarray   # (k, d), unit rows
    kappas: np.ndarray  # (k,), each in [0, KAPPA_MAX]

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]

    def validate(self) -> "MixtureParams":
        if self.means.ndim != 2 or self.kappas.shape != (self.means.shape[0],):
            raise DimensionMismatchError(
                f"means {self.means.shape} and kappas {self.kappas.shape} disagree"
            )
        norms = np.linalg.norm(self.means, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-6):
            raise DimensionMismatchError("mean directions must be unit vectors")
        if not np.all((self.kappas >= 0.0) & (self.kappas <= KAPPA_MAX)):
            raise ValueError(f"kappas must lie in [0, {KAPPA_MAX:g}]")
        return self


def check_responsibilities(gamma: np.ndarray) -> np.ndarray:
    """Validate an (n, k) row-stochastic matrix and return it as float64."""
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.ndim != 2:
        raise DimensionMismatchError(f"expected (n, k) responsibilities, got {gamma.shape}")
    if gamma.min(initial=0.0) < -_ROW_SUM_ATOL:
        raise ValueError("responsibilities must be nonnegative")
    rows = gamma.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > _ROW_SUM_ATOL):
        bad = int(np.argmax(np.abs(rows - 1.0)))
        raise ValueError(f"row {bad} sums to {rows[bad]!r}, not 1")
    return gamma


def empirical_mass(gamma: np.ndarray) -> np.ndarray:
    """pi(gamma): the fraction of total responsibility held by each cluster."""
    gamma = check_responsibilities(gamma)
    return gamma.mean(axis=0)


def balance_regularizer(pi: np.ndarray, lam: float) -> float:
    """R(pi) = -(lam / 2) ||pi - u||_2^2, maximal (zero) at the uniform pi."""
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    pi = np.asarray(pi, dtype=np.float64)
    u = 1.0 / pi.shape[0]
    return -0.5 * lam * float(np.sum((pi - u) ** 2))


def balance_gradient(pi: np.ndarray, lam: float) -> np.ndarray:
    """grad R(pi) = -lam (pi - u). Affine, hence exactly lam-Lipschitz."""
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    pi = np.asarray(pi, dtype=np.float64)
    u = 1.0 / pi.shape[0]
    return -lam * (pi - u)


def entropy_total(gamma: np.ndarray) -> float:
    """Sum of row entropies of a responsibility matrix, one row block at a time."""
    blocks = row_blocks(*gamma.shape)
    return -sum(float(np.sum(special.xlogy(gamma[b], gamma[b]))) for b in blocks)


def log_component_scores(X: np.ndarray, theta: MixtureParams) -> np.ndarray:
    """(n, k) matrix of log(alpha_k f(x_i | mu_k, kappa_k)) with alpha_k = 1/k.

    One dense dot product X @ means.T per call, in float64 by row blocks
    (geometry.dot_rows), so float32 rows are never widened whole; callers
    that evaluate the objective and surrogate repeatedly at the same theta
    should compute this once and use the *_from_scores helpers.
    """
    X = np.asarray(X)
    if X.shape[1] != theta.d:
        raise DimensionMismatchError(f"X has d={X.shape[1]}, theta has d={theta.d}")
    scores = dot_rows(X, theta.means)
    scores *= theta.kappas
    scores += log_vmf_norm_consts(theta.d, theta.kappas)
    scores -= np.log(theta.k)
    return scores


def posterior(theta: MixtureParams, X: np.ndarray) -> np.ndarray:
    """Exact posterior responsibilities: the scores' row-softmax, in place."""
    scores = log_component_scores(X, theta)
    return _softmax_lse(scores, out=scores)[0]


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stable under large logits; -inf entries get 0."""
    return _softmax_lse(logits)[0]


def _softmax_lse(
    logits: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """softmax_rows(logits), written to out (logits itself may be given), and
    the row log-normalizers lse(logits_i)."""
    top = logits.max(axis=1, keepdims=True)
    shifted = np.subtract(logits, top, out=out)
    np.exp(shifted, out=shifted)
    sums = shifted.sum(axis=1, keepdims=True)
    shifted /= sums
    return shifted, (top + np.log(sums)).ravel()


def elbo_from_scores(scores: np.ndarray, gamma: np.ndarray) -> float:
    """sum_ik gamma_ik scores_ik plus the entropy of gamma, by row blocks."""
    if scores.shape != gamma.shape:
        raise SizeMismatchError(f"scores {scores.shape} vs gamma {gamma.shape}")
    fidelity = sum(float(np.sum(gamma[b] * scores[b])) for b in row_blocks(*gamma.shape))
    return fidelity + entropy_total(gamma)


def objective_from_scores(scores: np.ndarray, gamma: np.ndarray, lam: float) -> float:
    pi = gamma.mean(axis=0)
    return elbo_from_scores(scores, gamma) + balance_regularizer(pi, lam)


def surrogate_from_scores(
    scores: np.ndarray, gamma: np.ndarray, pi_anchor: np.ndarray, lam: float
) -> float:
    """Linearized-penalty surrogate around pi_anchor, at fixed theta.

    Replaces R(pi(gamma)) by its tangent at the anchor minus the matching
    (lam / 2) ||pi - pi_anchor||^2 curvature term. R is quadratic with
    curvature exactly lam, so this equals the true objective for every
    gamma up to rounding: a minorizer that touches it everywhere.
    """
    return _anchored(elbo_from_scores(scores, gamma), gamma.mean(axis=0), pi_anchor, lam)


def sweep_from_scores(
    scores: np.ndarray, shift: np.ndarray, pi_anchor: np.ndarray, lam: float
) -> tuple[np.ndarray, float]:
    """pi(gamma) and surrogate_from_scores of gamma = softmax_rows(scores + shift),
    formed by row blocks, never whole. The value is read off the row normalizers:
    sum gamma.s + H(gamma) = sum_i lse(s_i + shift) - n pi.shift. A carry row atop
    each block adds column sums in row order, so pi has gamma.mean(axis=0)'s bits."""
    n, k = scores.shape
    lse = np.empty(n)
    colsum = np.zeros(k)
    for b in row_blocks(n, k):
        block = np.empty((b.stop - b.start + 1, k))
        block[0] = colsum
        np.add(scores[b], shift, out=block[1:])
        lse[b] = _softmax_lse(block[1:], out=block[1:])[1]
        colsum = block.sum(axis=0)
    pi = colsum / n
    return pi, _anchored(float(lse.sum()) - n * float(pi @ shift), pi, pi_anchor, lam)


def _anchored(elbo: float, pi: np.ndarray, pi_anchor: np.ndarray, lam: float) -> float:
    diff = pi - pi_anchor
    value = elbo + balance_regularizer(pi_anchor, lam)
    return value + float(balance_gradient(pi_anchor, lam) @ diff) - 0.5 * lam * float(diff @ diff)


def objective_value(
    theta: MixtureParams, gamma: np.ndarray, X: np.ndarray, lam: float
) -> float:
    """Full criterion F(theta, gamma) at the given parameters."""
    gamma = check_responsibilities(gamma)
    return objective_from_scores(log_component_scores(X, theta), gamma, lam)


def surrogate_value(
    theta: MixtureParams,
    gamma: np.ndarray,
    pi_anchor: np.ndarray,
    X: np.ndarray,
    lam: float,
) -> float:
    """Surrogate criterion at fixed theta, anchored at pi_anchor."""
    gamma = check_responsibilities(gamma)
    pi_anchor = np.asarray(pi_anchor, dtype=np.float64)
    if pi_anchor.shape != (gamma.shape[1],):
        raise SizeMismatchError(f"anchor shape {pi_anchor.shape} vs k={gamma.shape[1]}")
    return surrogate_from_scores(log_component_scores(X, theta), gamma, pi_anchor, lam)

"""Minorize-maximize EM for the balance-regularized vMF mixture.

Each iteration ascends a surrogate in gamma (the quadratic balance penalty
linearized at the current empirical mass, which minorizes the true
objective and, R being quadratic, equals it), then applies closed-form
mean/concentration updates guarded by per-component likelihood acceptance.
The full-objective trace is therefore non-decreasing up to floating-point
noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .errors import TooFewPointsError
from .geometry import KAPPA_MAX, as_embeddings, log_vmf_norm_consts, normalize
from .objective import (
    MixtureParams,
    balance_gradient,
    check_responsibilities,
    log_component_scores,
    objective_from_scores,
    posterior,
    softmax_rows,
    surrogate_from_scores,
)

# Solver constants: E-step sweeps per iteration, the M-step's division
# guard, the concentration of initial and reseeded components, and the cap
# on k-means Lloyd rounds.
_ESTEP_SWEEPS = 3
_EPS = 1e-8
_KAPPA_INIT = 1.0
_MAX_ROUNDS = 100

# A cluster whose total responsibility falls below 10 * eps * n is treated
# as empty and reseeded on the worst-explained point.
_EMPTY_FACTOR = 10.0


@dataclass(frozen=True)
class FitConfig:
    """Knobs for fit(). lam = 0 recovers the plain vMF mixture EM."""

    k: int = 24
    lam: float = 5000.0
    max_iters: int = 200
    stop_tol: float | None = None   # None: resolved to 1e-4 * n at fit time
    seed: int = 0

    def validate(self, n: int | None = None) -> "FitConfig":
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.lam < np.inf:  # NaN fails too
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.stop_tol is not None and not self.stop_tol > 0.0:
            raise ValueError(f"stop_tol must be > 0, got {self.stop_tol}")
        if n is not None and n < self.k:
            raise TooFewPointsError(f"{n} points cannot support k={self.k} clusters")
        return self

    def resolved_tol(self, n: int) -> float:
        # The objective is a sum over points, so the default tolerance
        # scales with n.
        return self.stop_tol if self.stop_tol is not None else 1e-4 * n


@dataclass(frozen=True)
class FitResult:
    """Output of fit(). gamma is the last balance-shifted E-step iterate,
    the one objective_trace[-1] is evaluated at (with theta); it is not the
    posterior of theta. The CLI commands label by posterior(theta), which a
    saved model reproduces, so their labels can differ from hard_labels
    on a small fraction of points."""

    theta: MixtureParams
    gamma: np.ndarray
    objective_trace: np.ndarray  # one entry per completed iteration
    iters_run: int
    converged: bool
    config: FitConfig = field(repr=False, default=FitConfig())

    @property
    def hard_labels(self) -> np.ndarray:
        return np.argmax(self.gamma, axis=1)


def _kmeans(X: np.ndarray, k: int, seed: int, steps: tuple) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeding (Arthur & Vassilvitskii 2007), then Lloyd rounds
    until no label changes or _MAX_ROUNDS; returns (centers, labels), each
    label the point's nearest final center. steps carries the geometry:
    spread(X, c), each point's ++ weight from one center; closeness(X, C),
    (n, k), larger is nearer; own_closeness(X, C, labels), each point's
    closeness to its own center, whose argmin reseeds an empty cluster;
    centroid(members), a cluster's new center."""
    spread, closeness, own_closeness, centroid = steps
    n, d = X.shape
    if n < k:
        raise TooFewPointsError(f"{n} points cannot support k={k} clusters")
    rng = np.random.default_rng(seed)

    centers = np.empty((k, d))
    centers[0] = X[rng.integers(n)]
    d2 = spread(X, centers[0])
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            centers[j:] = X[rng.integers(n, size=k - j)]
            break
        centers[j] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, spread(X, centers[j]))

    labels = np.argmax(closeness(X, centers), axis=1)
    for _ in range(_MAX_ROUNDS):
        for j in range(k):
            mask = labels == j
            if not np.any(mask):
                centers[j] = X[int(np.argmin(own_closeness(X, centers, labels)))]
                continue
            centers[j] = centroid(X[mask])
        new_labels = np.argmax(closeness(X, centers), axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centers, labels


# _kmeans steps for unit rows (Dhillon & Modha 2001): squared chordal
# distance 2(1 - cos) seeds, cosine assigns, the normalized resultant is
# the centroid. The own-center cosine is a row-wise einsum, not a pick
# from X @ C.T: the two round differently and would break ties apart.
_SPHERICAL = (
    lambda X, c: 2.0 * np.clip(1.0 - X @ c, 0.0, None),
    lambda X, C: X @ C.T,
    lambda X, C, labels: np.einsum("ij,ij->i", X, C[labels]),
    lambda members: normalize(members.sum(axis=0)),
)


def init_spherical_kmeans(X: np.ndarray, k: int, seed: int) -> MixtureParams:
    """Spherical k-means initializer: cosine k-means++ seeding, then Lloyd
    rounds with normalized-resultant centroids. Returns mean directions
    with every kappa set to _KAPPA_INIT."""
    centers, _ = _kmeans(as_embeddings(X), k, seed, _SPHERICAL)
    return MixtureParams(means=centers, kappas=np.full(k, _KAPPA_INIT)).validate()


def e_step(scores: np.ndarray, gamma: np.ndarray, cfg: FitConfig) -> np.ndarray:
    """One surrogate ascent in gamma at fixed theta, given theta's (n, k)
    component scores (log_component_scores).

    Runs _ESTEP_SWEEPS row-wise closed-form updates: the softmax of the
    component scores shifted by the balance gradient grad R(pi(gamma)) / n,
    with pi(gamma) refreshed between sweeps. Returns the best iterate by the
    surrogate anchored at the input's mass, falling back to the input gamma
    itself, so the surrogate value never decreases; by the minorization
    argument neither does the objective.

    With lam = 0 the shift vanishes and every sweep returns the exact
    posterior, the global maximizer of the surrogate.
    """
    gamma = check_responsibilities(gamma)
    n = gamma.shape[0]
    pi_anchor = gamma.mean(axis=0)

    best = gamma
    best_val = surrogate_from_scores(scores, gamma, pi_anchor, cfg.lam)
    cur = gamma
    for _ in range(_ESTEP_SWEEPS):
        cur = softmax_rows(scores + balance_gradient(cur.mean(axis=0), cfg.lam) / n)
        val = surrogate_from_scores(scores, cur, pi_anchor, cfg.lam)
        if val > best_val:
            best, best_val = cur, val
    return best


def m_step_mu(r: np.ndarray) -> np.ndarray:
    """Closed-form mean directions from the (k, d) resultants
    r_k = sum_i gamma_ik x_i: each row normalized.

    Rows whose resultant vanishes entirely are returned as zero vectors;
    fit() reseeds such clusters before the result is used.
    """
    norms = np.linalg.norm(r, axis=1)
    means = r / (norms + _EPS)[:, None]
    live = norms > 0.0
    means[live] /= np.linalg.norm(means[live], axis=1)[:, None]
    return means


def m_step_kappa(r: np.ndarray, n_k: np.ndarray) -> np.ndarray:
    """Closed-form concentrations from the (k, d) resultants r_k and the
    masses n_k = sum_i gamma_ik.

    R_k = ||r_k|| / (n_k + _EPS), clamped into [0, 1 - 1e-6];
    kappa_k = (R_k d - R_k^3) / (1 - R_k^2), clamped into [0, KAPPA_MAX].
    """
    d = r.shape[1]
    rbar = np.linalg.norm(r, axis=1) / (n_k + _EPS)
    rbar = np.clip(rbar, 0.0, 1.0 - 1e-6)
    kappa = (rbar * d - rbar**3) / (1.0 - rbar**2)
    return np.clip(kappa, 0.0, KAPPA_MAX)


def _component_loglik(
    n_k: np.ndarray, dots: np.ndarray, kappas: np.ndarray, d: int
) -> np.ndarray:
    """Per-component complete-data log-likelihood pieces
    n_k log C_d(kappa_k) + kappa_k <mu_k, r_k>, with dots = <mu_k, r_k>."""
    return n_k * log_vmf_norm_consts(d, kappas) + kappas * dots


def _m_step(
    theta: MixtureParams,
    gamma: np.ndarray,
    X: np.ndarray,
    scores: np.ndarray,
) -> MixtureParams:
    """Guarded M-step used inside fit().

    Proposes the closed-form updates, reseeds empty clusters on the
    worst-explained points, and otherwise accepts a component's new
    (mu, kappa) only if its complete-data likelihood does not drop
    (the concentration formula is an approximation, so this keeps the
    objective trace monotone).
    """
    n, d = X.shape
    r = gamma.T @ X
    n_k = gamma.sum(axis=0)

    mu_new = m_step_mu(r)
    kappa_new = m_step_kappa(r, n_k)

    empty = n_k < _EMPTY_FACTOR * _EPS * n
    if np.any(empty):
        # Worst-explained points under the pre-update model, one per
        # reseeded cluster so duplicates get distinct directions.
        order = np.argsort(logsumexp(scores, axis=1))
        for slot, j in enumerate(np.flatnonzero(empty)):
            mu_new[j] = X[order[slot % n]]
            kappa_new[j] = _KAPPA_INIT

    live = ~empty
    if np.any(live):
        dots_new = np.einsum("kd,kd->k", mu_new, r)
        dots_old = np.einsum("kd,kd->k", theta.means, r)
        ll_new = _component_loglik(n_k, dots_new, kappa_new, d)
        ll_old = _component_loglik(n_k, dots_old, theta.kappas, d)
        # Also revert any live component whose resultant cancelled to zero
        # (its proposed mean is not a direction at all).
        degenerate = np.linalg.norm(mu_new, axis=1) < 0.5
        keep = live & ((ll_new < ll_old) | degenerate)
        if np.any(keep):
            mu_new[keep] = theta.means[keep]
            kappa_new[keep] = theta.kappas[keep]

    return MixtureParams(means=mu_new, kappas=kappa_new)


def fit(X: np.ndarray, cfg: FitConfig) -> FitResult:
    """Run the full minorize-maximize loop to convergence.

    Initializes with spherical k-means and uniform responsibilities, then
    alternates the surrogate E-step and the guarded M-step, recording the
    objective after each completed iteration. Stops when the absolute
    change in the objective falls to the tolerance (default 1e-4 * n) or
    after max_iters iterations. Bit-reproducible for fixed (X, cfg).
    """
    X = as_embeddings(X)
    n = X.shape[0]
    cfg.validate(n)
    tol = cfg.resolved_tol(n)

    theta = init_spherical_kmeans(X, cfg.k, cfg.seed)
    gamma = np.full((n, cfg.k), 1.0 / cfg.k)
    scores = log_component_scores(X, theta)

    trace: list[float] = []
    prev = None
    converged = False
    for _ in range(cfg.max_iters):
        gamma = e_step(scores, gamma, cfg)
        theta = _m_step(theta, gamma, X, scores)
        scores = log_component_scores(X, theta)
        value = objective_from_scores(scores, gamma, cfg.lam)
        trace.append(value)
        if prev is not None and abs(value - prev) <= tol:
            converged = True
            break
        prev = value

    return FitResult(
        theta=theta,
        gamma=gamma,
        objective_trace=np.asarray(trace),
        iters_run=len(trace),
        converged=converged,
        config=cfg,
    )


def assign(theta: MixtureParams, x: np.ndarray) -> tuple[np.ndarray, int]:
    """Posterior responsibilities and argmax cluster for a single point."""
    x = np.asarray(x, dtype=np.float64)
    probs = posterior(theta, x[None, :])[0]
    return probs, int(np.argmax(probs))

"""Minorize-maximize EM for the balance-regularized vMF mixture.

Each iteration ascends a surrogate in gamma (the quadratic balance penalty
linearized at the current empirical mass, which minorizes the true
objective and, R being quadratic, equals it), then maximizes each
component's complete-data likelihood exactly in (mu, kappa). The
full-objective trace is therefore non-decreasing up to floating-point noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .errors import TooFewPointsError
from .geometry import (KAPPA_MAX, as_embeddings, dot_rows, mean_resultant_length, normalize,
                       row_blocks, widened_blocks)
from .objective import (
    MixtureParams,
    _softmax_lse,
    balance_gradient,
    check_responsibilities,
    log_component_scores,
    objective_from_scores,
    surrogate_from_scores,
    sweep_from_scores,
)

# Solver constants: E-step sweeps per iteration, the concentration of
# initial and reseeded components, the cap on k-means Lloyd rounds, the
# initializer's stop (at most this share of labels moved), and the kappa
# solve's Newton step cap and relative stop (near R = 1 one ulp of A_d
# spans about 2e-10 of kappa, so no tighter).
_ESTEP_SWEEPS = 3
_KAPPA_INIT = 1.0
_MAX_ROUNDS = 100
_MOVE_TOL = 1e-3
_NEWTON_STEPS = 8
_NEWTON_RTOL = 1e-9

# A cluster whose total responsibility falls below _EMPTY_MASS * n is
# treated as empty and reseeded on the worst-explained point.
_EMPTY_MASS = 1e-7


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


def _kmeans(
    X: np.ndarray, k: int, seed: int, steps: tuple, tries: int = 1, move_tol: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeding (Arthur & Vassilvitskii 2007) keeping, of `tries` D^2 draws
    a step, the one leaving the least total spread, then Lloyd rounds until at most
    move_tol * n labels change or _MAX_ROUNDS; returns (centers, labels), each label
    the point's nearest final center. steps carries the geometry: spread(X, C), the
    ++ weights from each center in C; closeness(X, C), (n, k), larger is nearer;
    own_closeness(X, C, labels), each point's closeness to its own center, whose
    argmin reseeds an empty cluster; centroid(members), a cluster's new center."""
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
        cand = rng.choice(n, size=tries, p=d2 / total)
        pot = np.minimum(d2[:, None], spread(X, X[cand]).reshape(n, tries))
        best = int(np.argmin(pot.sum(axis=0)))
        centers[j], d2 = X[cand[best]], pot[:, best]

    labels = np.argmax(closeness(X, centers), axis=1)
    for _ in range(_MAX_ROUNDS):
        for j in range(k):
            mask = labels == j
            if not np.any(mask):
                centers[j] = X[int(np.argmin(own_closeness(X, centers, labels)))]
                continue
            centers[j] = centroid(X[mask])
        new_labels = np.argmax(closeness(X, centers), axis=1)
        moved, labels = np.count_nonzero(new_labels != labels), new_labels
        if moved <= move_tol * n:
            break
    return centers, labels


# _kmeans steps for unit rows (Dhillon & Modha 2001): squared chordal
# distance 2(1 - cos) seeds, cosine assigns, the normalized resultant is
# the centroid. The own-center cosine is a row-wise einsum, not a pick
# from X @ C.T: the two round differently and would break ties apart.
# Every product is float64 and by row blocks, whatever X's dtype.
_SPHERICAL = (
    lambda X, C: 2.0 * np.clip(1.0 - dot_rows(X, C), 0.0, None),
    dot_rows,
    lambda X, C, labels: np.concatenate(
        [np.einsum("ij,ij->i", rows, C[labels[b]]) for b, rows in widened_blocks(X)]),
    lambda members: normalize(members.sum(axis=0, dtype=np.float64)),
)


def init_spherical_kmeans(X: np.ndarray, k: int, seed: int) -> MixtureParams:
    """Spherical k-means initializer: greedy cosine k-means++ seeding with
    2 + floor(ln k) draws a step, then Lloyd rounds with normalized-resultant
    centroids. Returns mean directions with every kappa set to _KAPPA_INIT."""
    centers, _ = _kmeans(as_embeddings(X), k, seed, _SPHERICAL, 2 + int(np.log(k)), _MOVE_TOL)
    return MixtureParams(means=centers, kappas=np.full(k, _KAPPA_INIT)).validate()


def e_step(
    scores: np.ndarray, gamma: np.ndarray, cfg: FitConfig, out: np.ndarray | None = None
) -> np.ndarray:
    """One surrogate ascent in gamma at fixed theta, given theta's (n, k)
    component scores (log_component_scores).

    Runs _ESTEP_SWEEPS row-wise closed-form updates: the softmax of the
    component scores shifted by the balance gradient grad R(pi(gamma)) / n,
    with pi(gamma) refreshed between sweeps (sweep_from_scores, by row blocks).
    Only the best by the surrogate anchored at the input's mass is formed, into
    `out` if given (gamma itself may be); the input wins ties and is returned
    with `out` untouched, so neither the surrogate nor the objective falls.

    With lam = 0 the shift vanishes and every sweep returns the exact
    posterior, the global maximizer of the surrogate.
    """
    gamma = check_responsibilities(gamma)
    n = gamma.shape[0]
    pi = pi_anchor = gamma.mean(axis=0)

    best_shift, best_val = None, surrogate_from_scores(scores, gamma, pi_anchor, cfg.lam)
    for _ in range(_ESTEP_SWEEPS):
        shift = balance_gradient(pi, cfg.lam) / n
        pi, val = sweep_from_scores(scores, shift, pi_anchor, cfg.lam)
        if val > best_val:
            best_shift, best_val = shift, val
    if best_shift is None:
        return gamma
    logits = np.add(scores, best_shift, out=out)
    return _softmax_lse(logits, out=logits)[0]


def m_step_mu(r: np.ndarray) -> np.ndarray:
    """Mean directions from the (k, d) resultants r_k = sum_i gamma_ik x_i:
    each row divided by its norm, the maximizer for every kappa.

    Rows whose resultant vanishes entirely are returned as zero vectors;
    fit() reseeds or reverts such clusters before the result is used.
    """
    norms = np.linalg.norm(r, axis=1)
    live = norms > 0.0
    means = np.zeros_like(r)
    means[live] = r[live] / norms[live, None]
    return means


def m_step_kappa(r: np.ndarray, n_k: np.ndarray) -> np.ndarray:
    """Concentrations maximizing n_k log C_d(kappa) + kappa ||r_k||, from the
    (k, d) resultants r_k and the masses n_k = sum_i gamma_ik.

    R_k = ||r_k|| / n_k (0 at zero mass), clamped into [0, 1 - 1e-6];
    kappa_k is the root of A_d(kappa) = R_k (Sra 2012), clamped into
    [0, KAPPA_MAX], found by Newton steps with A_d' = 1 - A_d^2 -
    (d - 1) A_d / kappa from the approximation (R_k d - R_k^3) / (1 - R_k^2)
    (Banerjee et al. 2005).
    """
    d = r.shape[1]
    norms = np.linalg.norm(r, axis=1)
    rbar = np.divide(norms, n_k, out=np.zeros_like(norms), where=n_k > 0.0)
    rbar = np.clip(rbar, 0.0, 1.0 - 1e-6)
    kappa = np.clip((rbar * d - rbar**3) / (1.0 - rbar**2), 0.0, KAPPA_MAX)
    for j in np.flatnonzero(kappa > 0.0):
        kap = float(kappa[j])
        for _ in range(_NEWTON_STEPS):
            a = mean_resultant_length(d, kap)
            step = (a - rbar[j]) / (1.0 - a * a - (d - 1) * a / kap)
            prev, kap = kap, min(max(kap - step, 0.0), KAPPA_MAX)
            if abs(kap - prev) <= _NEWTON_RTOL * kap:
                break
        kappa[j] = kap
    return kappa


def _m_step(
    theta: MixtureParams,
    gamma: np.ndarray,
    X: np.ndarray,
    scores: np.ndarray,
) -> MixtureParams:
    """M-step used inside fit(): each component's likelihood maximizer
    (mu, kappa). The resultants gamma^T X and the reseed's row log-normalizers
    are formed by row blocks. Empty clusters are reseeded on the worst-explained
    points; a live one whose resultant cancelled to zero keeps its old (mu, kappa)."""
    n = X.shape[0]
    r = sum(gamma[b].T @ rows for b, rows in widened_blocks(X))
    n_k = gamma.sum(axis=0)

    mu_new = m_step_mu(r)
    kappa_new = m_step_kappa(r, n_k)

    empty = n_k < _EMPTY_MASS * n
    if np.any(empty):
        # Worst-explained points under the pre-update model, one per
        # reseeded cluster so duplicates get distinct directions.
        order = np.argsort(np.concatenate(
            [logsumexp(scores[b], axis=1) for b in row_blocks(*scores.shape)]))
        for slot, j in enumerate(np.flatnonzero(empty)):
            mu_new[j] = X[order[slot % n]]
            kappa_new[j] = _KAPPA_INIT

    degenerate = np.linalg.norm(mu_new, axis=1) < 0.5
    mu_new[degenerate] = theta.means[degenerate]
    kappa_new[degenerate] = theta.kappas[degenerate]
    return MixtureParams(means=mu_new, kappas=kappa_new)


def fit(X: np.ndarray, cfg: FitConfig) -> FitResult:
    """Run the full minorize-maximize loop to convergence.

    Initializes with spherical k-means and uniform responsibilities, then
    alternates the surrogate E-step and the exact M-step, recording the
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
        gamma = e_step(scores, gamma, cfg, out=gamma)
        theta = _m_step(theta, gamma, X, scores)
        del scores  # so the old scores are freed before the new ones exist
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

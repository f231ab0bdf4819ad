"""Unit-sphere primitives.

Normalization, log Bessel I, the von Mises-Fisher log-density, Wood-style
rejection sampling, and an empirical check of the concentration-of-measure
bound for random directions. Everything density-related is evaluated in
the log domain so that concentrations up to KAPPA_MAX and Bessel orders in
the thousands stay finite.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy import special

from .errors import DimensionMismatchError, ZeroVectorError

# Hard cap on vMF concentration. Keeps log C_d(kappa) finite in f64 and
# stops a cluster from degenerating into a point mass.
KAPPA_MAX = 1e6

_NORM_EPS = 1e-12

# How far a row's norm may sit from 1 and still count as unit length: the
# bound for the GEMEMB1 normalized flag and for the rows fit() accepts.
UNIT_TOL = 1e-5

# Entries in one row block (2^17 float64 = 1 MB): a row-wise pass's scratch.
BLOCK_ENTRIES = 1 << 17


def row_blocks(n: int, width: int) -> list[slice]:
    """Slices covering rows [0, n) in order, BLOCK_ENTRIES // width rows each."""
    step = max(1, BLOCK_ENTRIES // max(width, 1))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def row_norms(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm(X, axis=1) in float64, same bits, by row blocks: no full-size temporary."""
    norms = np.empty(X.shape[0])
    for b in row_blocks(*X.shape):
        norms[b] = np.linalg.norm(X[b].astype(np.float64, copy=False), axis=1)
    return norms


def normalize(v: np.ndarray) -> np.ndarray:
    """Project a vector (or each row of a matrix) onto the unit sphere.

    Raises ZeroVectorError when any norm falls below 1e-12: a zero vector
    has no direction and silently returning garbage would poison every
    downstream dot product.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        n = float(np.linalg.norm(v))
        if n < _NORM_EPS:
            raise ZeroVectorError(f"cannot normalize vector with norm {n:.3e}")
        return v / n
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms < _NORM_EPS):
        bad = int(np.argmin(norms))
        raise ZeroVectorError(f"row {bad} has norm {norms[bad]:.3e}")
    return v / norms[:, None]


def as_embeddings(X: np.ndarray) -> np.ndarray:
    """Validate an (n, d) array of unit rows (UNIT_TOL) and return it as float64."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d array, got shape {X.shape}")
    n, d = X.shape
    if n < 1 or d < 2:
        raise DimensionMismatchError(f"need n >= 1 and d >= 2, got shape {X.shape}")
    norms = row_norms(X)
    if not np.all(np.abs(norms - 1.0) <= UNIT_TOL):  # NaN rows fail too
        bad = int(np.argmax(np.abs(norms - 1.0)))
        raise ZeroVectorError(
            f"row {bad} has norm {norms[bad]:.6f}; embeddings must be unit length"
        )
    return X


def _log_bessel_series(nu: float, x: float) -> float:
    """log I_nu(x) by the ascending series, summed in the log domain.

    Term m is (2m + nu) log(x/2) - lgamma(m+1) - lgamma(nu+m+1). Used when
    the scaled Bessel function underflows (x far below nu), where the
    series is short and every term is finite in log space.
    """
    half = math.log(x / 2.0)
    # Term magnitudes peak near m* solving m(m + nu) = (x/2)^2.
    m_peak = 0.5 * (-nu + math.sqrt(nu * nu + x * x))
    m_max = int(m_peak) + 32 + int(6.0 * math.sqrt(m_peak + 1.0))
    m = np.arange(m_max + 1, dtype=np.float64)
    terms = (2.0 * m + nu) * half - special.gammaln(m + 1.0) - special.gammaln(nu + m + 1.0)
    return float(special.logsumexp(terms))


def log_bessel_i(nu: float, x: float) -> float:
    """log of the modified Bessel function I_nu(x) for nu >= 0, x >= 0.

    Primary path is the exponentially scaled scipy routine,
    log(ive(nu, x)) + x. When that underflows (large order, comparatively
    small argument) we fall back to the ascending series in log space.
    Covers orders up to a few thousand and arguments up to KAPPA_MAX.
    """
    if nu < 0 or x < 0:
        raise ValueError(f"need nu >= 0 and x >= 0, got nu={nu}, x={x}")
    if x == 0.0:
        return 0.0 if nu == 0.0 else -math.inf
    v = float(special.ive(nu, x))
    if v > 0.0 and math.isfinite(v):
        return math.log(v) + x
    return _log_bessel_series(nu, x)


def log_vmf_norm_const(d: int, kappa: float) -> float:
    """log C_d(kappa), the vMF normalizing constant on the (d-1)-sphere.

    C_d(kappa) = kappa^(d/2-1) / ((2 pi)^(d/2) I_{d/2-1}(kappa)); the
    kappa -> 0 limit is the inverse surface area of the sphere, matched
    exactly so the density is continuous at kappa = 0.
    """
    if d < 2:
        raise DimensionMismatchError(f"need d >= 2, got {d}")
    if not 0.0 <= kappa <= KAPPA_MAX:
        raise ValueError(f"kappa must lie in [0, {KAPPA_MAX:g}], got {kappa}")
    if kappa == 0.0:
        # log(Gamma(d/2) / (2 pi^(d/2))): uniform density on the sphere.
        return math.lgamma(d / 2.0) - math.log(2.0) - (d / 2.0) * math.log(math.pi)
    nu = d / 2.0 - 1.0
    return nu * math.log(kappa) - (d / 2.0) * math.log(2.0 * math.pi) - log_bessel_i(nu, kappa)


def log_vmf_norm_consts(d: int, kappas: np.ndarray) -> np.ndarray:
    """log C_d(kappa) for each concentration in kappas, as one vector."""
    return np.array([log_vmf_norm_const(d, float(kap)) for kap in kappas])


def vmf_log_density(x: np.ndarray, mu: np.ndarray, kappa: float) -> float | np.ndarray:
    """log f(x | mu, kappa) = log C_d(kappa) + kappa mu.x.

    `x` may be one unit vector (returns a float) or a stack of rows
    (returns a vector). At kappa = 0 this is the uniform log-density,
    independent of x.
    """
    x = np.asarray(x, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    d = mu.shape[-1]
    if x.shape[-1] != d:
        raise DimensionMismatchError(f"x has dimension {x.shape[-1]}, mu has {d}")
    out = log_vmf_norm_const(d, kappa) + kappa * (x @ mu)
    return float(out) if out.ndim == 0 else out


def mean_resultant_length(d: int, kappa: float) -> float:
    """A_d(kappa) = I_{d/2}(kappa) / I_{d/2-1}(kappa), the expected mu.x: a
    ratio of scaled values, which keeps 1 - A_d accurate at large kappa, or of
    log-domain values where the numerator is subnormal (order >> kappa)."""
    if kappa == 0.0:
        return 0.0
    num = float(special.ive(d / 2.0, kappa))
    if num >= sys.float_info.min:
        return num / float(special.ive(d / 2.0 - 1.0, kappa))
    return math.exp(log_bessel_i(d / 2.0, kappa) - log_bessel_i(d / 2.0 - 1.0, kappa))


def sample_uniform_sphere(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform on the unit (d-1)-sphere (normalized Gaussians)."""
    g = rng.standard_normal((n, d))
    return normalize(g)


def _sample_cosines(kappa: float, d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample n values of w = mu.x under vMF(kappa) in dimension d.

    Wood's envelope: w = (1 - (1+b) z) / (1 - (1-b) z) with z ~ Beta(m/2, m/2),
    m = d - 1, accepted when kappa w + m log(1 - x0 w) - c >= log u. The b
    below is the standard root written in rationalized form so it stays
    accurate for large kappa.
    """
    m = d - 1
    b = m / (2.0 * kappa + math.sqrt(4.0 * kappa * kappa + m * m))
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + m * math.log(1.0 - x0 * x0)
    out = np.empty(n, dtype=np.float64)
    filled = 0
    while filled < n:
        todo = n - filled
        size = max(todo + (todo // 4) + 16, 32)
        z = rng.beta(0.5 * m, 0.5 * m, size=size)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.random(size=size)
        ok = kappa * w + m * np.log1p(-x0 * w) - c >= np.log(u)
        accepted = w[ok][:todo]
        out[filled : filled + accepted.size] = accepted
        filled += accepted.size
    return out


def sample_vmf(mu: np.ndarray, kappa: float, n: int, seed: int | np.random.Generator) -> np.ndarray:
    """Draw n unit vectors from vMF(mu, kappa); kappa = 0 gives uniform.

    Deterministic for a fixed seed. Tangent directions are isotropic in
    the hyperplane orthogonal to mu; the returned rows are renormalized so
    each has exact unit length.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    mu = normalize(np.asarray(mu, dtype=np.float64))
    d = mu.shape[0]
    if d < 2:
        raise DimensionMismatchError(f"need d >= 2, got {d}")
    if not 0.0 <= kappa <= KAPPA_MAX:
        raise ValueError(f"kappa must lie in [0, {KAPPA_MAX:g}], got {kappa}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if kappa == 0.0:
        return sample_uniform_sphere(n, d, rng)
    w = _sample_cosines(kappa, d, n, rng)
    g = rng.standard_normal((n, d))
    g -= (g @ mu)[:, None] * mu[None, :]
    v = normalize(g)
    x = w[:, None] * mu[None, :] + np.sqrt(np.clip(1.0 - w * w, 0.0, None))[:, None] * v
    return normalize(x)


def concentration_lower_bound(d: int, eps: float, n: int) -> float:
    """1 - 2 exp(-d eps^2 / 2) minus a 5 sqrt(1/n) finite-sample slack."""
    return 1.0 - 2.0 * math.exp(-d * eps * eps / 2.0) - 5.0 * math.sqrt(1.0 / n)


def concentration_check(d: int, eps: float, n: int, seed: int) -> float:
    """Empirical P(|<x, e_1>| <= eps) for x uniform on the (d-1)-sphere.

    Samples in chunks so only the first coordinate is kept; the fixed
    direction can be taken as e_1 by rotational symmetry.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    rng = np.random.default_rng(seed)
    chunk = max(1, min(n, 262_144 // max(d, 1) + 1))
    hits = 0
    done = 0
    while done < n:
        m = min(chunk, n - done)
        g = rng.standard_normal((m, d))
        first = g[:, 0] / np.linalg.norm(g, axis=1)
        hits += int(np.count_nonzero(np.abs(first) <= eps))
        done += m
    return hits / n

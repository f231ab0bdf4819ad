"""Shared fixtures, small random-instance factories and a memory probe."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def random_unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def random_simplex(rng: np.random.Generator, k: int) -> np.ndarray:
    return rng.dirichlet(np.ones(k))


def random_gamma(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    return rng.dirichlet(np.ones(k), size=n)


def random_params(rng: np.random.Generator, k: int, d: int, kappa_hi: float = 50.0):
    from spheremix.objective import MixtureParams

    means = random_unit_rows(rng, k, d)
    kappas = rng.uniform(0.1, kappa_hi, size=k)
    return MixtureParams(means=means, kappas=kappas)


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the peak bytes tracemalloc saw allocated
    while it ran, counting only what was allocated after the call began."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)

"""Objective pieces: mass, balance penalty, entropy, ELBO, surrogate."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from conftest import random_gamma, random_params, random_simplex, random_unit_rows
from spheremix.errors import DimensionMismatchError
from spheremix.geometry import normalize, vmf_log_density
from spheremix.objective import (
    MixtureParams,
    balance_gradient,
    balance_regularizer,
    empirical_mass,
    entropy_total,
    log_component_scores,
    objective_value,
    posterior,
    surrogate_value,
)


def log_marginal(X, theta):
    """log sum_k alpha_k f(x_i | mu_k, kappa_k) for each row of X."""
    return special.logsumexp(log_component_scores(X, theta), axis=1)


def simplex_arrays(k_min=2, k_max=8):
    return (
        hnp.arrays(
            np.float64,
            st.integers(k_min, k_max),
            elements=st.floats(0.01, 10.0),
        )
        .map(lambda v: v / v.sum())
    )


class TestMixtureParams:
    @pytest.mark.parametrize("kappa", [np.nan, -1.0, 2e6])
    def test_rejects_bad_kappa(self, kappa):
        theta = MixtureParams(means=np.eye(2), kappas=np.array([1.0, kappa]))
        with pytest.raises(ValueError):
            theta.validate()

    def test_rejects_nan_mean(self):
        theta = MixtureParams(means=np.array([[1.0, 0.0], [np.nan, 0.0]]), kappas=np.ones(2))
        with pytest.raises(DimensionMismatchError):
            theta.validate()


class TestEmpiricalMass:
    def test_one_hot_counting(self):
        g = np.tile([1.0, 0.0], (3, 1))
        np.testing.assert_allclose(empirical_mass(g), [1.0, 0.0])

    def test_uniform_rows(self):
        g = np.full((5, 4), 0.25)
        np.testing.assert_allclose(empirical_mass(g), 0.25)

    def test_hand_average(self):
        g = np.array([[0.2, 0.8], [0.6, 0.4]])
        np.testing.assert_allclose(empirical_mass(g), [0.4, 0.6])

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            empirical_mass(np.array([[0.7, 0.7]]))
        with pytest.raises(ValueError):
            empirical_mass(np.array([[1.2, -0.2]]))

    @given(st.integers(1, 30), st.integers(2, 6), st.integers(0, 999))
    def test_output_on_simplex(self, n, k, seed):
        g = random_gamma(np.random.default_rng(seed), n, k)
        pi = empirical_mass(g)
        assert abs(pi.sum() - 1.0) <= 1e-9
        assert np.all(pi >= 0)


class TestBalanceRegularizer:
    def test_zero_at_uniform(self):
        for k in (2, 3, 7):
            assert balance_regularizer(np.full(k, 1.0 / k), 123.0) == 0.0

    def test_hand_values(self):
        assert abs(balance_regularizer(np.array([1.0, 0.0]), 2.0) - (-0.5)) <= 1e-15
        pi = np.array([0.5, 0.5, 0.0, 0.0])
        assert abs(balance_regularizer(pi, 1.0) - (-0.125)) <= 1e-15

    def test_nonpositive_and_zero_only_at_uniform(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pi = random_simplex(rng, 5)
            r = balance_regularizer(pi, 3.0)
            assert r <= 0.0
            if not np.allclose(pi, 0.2):
                assert r < 0.0

    def test_gradient_hand_values(self):
        np.testing.assert_allclose(balance_gradient(np.full(3, 1 / 3), 9.0), 0.0, atol=1e-15)
        got = balance_gradient(np.array([0.5, 0.5, 0.0, 0.0]), 1.0)
        np.testing.assert_allclose(got, [-0.25, -0.25, 0.25, 0.25])

    def test_gradient_linear_in_lam(self):
        pi = np.array([0.7, 0.2, 0.1])
        np.testing.assert_array_equal(balance_gradient(pi, 8.0), 2.0 * balance_gradient(pi, 4.0))

    @given(simplex_arrays())
    def test_gradient_sums_to_zero(self, pi):
        assert abs(balance_gradient(pi, 5.0).sum()) <= 1e-12

    @given(simplex_arrays(), st.integers(0, 999), st.floats(0.01, 0.99))
    def test_concavity(self, pi, seed, t):
        pi2 = random_simplex(np.random.default_rng(seed), len(pi))
        mid = balance_regularizer(t * pi + (1 - t) * pi2, 7.0)
        chord = t * balance_regularizer(pi, 7.0) + (1 - t) * balance_regularizer(pi2, 7.0)
        assert mid >= chord - 1e-12

    def test_finite_difference_gradient(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(20):
            k = int(rng.integers(2, 8))
            pi = random_simplex(rng, k)
            lam = float(rng.uniform(0.5, 100.0))
            grad = balance_gradient(pi, lam)
            for j in range(k):
                e = np.zeros(k)
                e[j] = h
                fd = (balance_regularizer(pi + e, lam) - balance_regularizer(pi - e, lam)) / (2 * h)
                denom = max(1.0, abs(grad[j]))
                assert abs(fd - grad[j]) / denom <= 1e-6

    def test_affine_gradient_equality(self):
        # the gradient map is affine, so the Lipschitz bound is an equality
        rng = np.random.default_rng(8)
        lam = 37.0
        for _ in range(1000):
            k = int(rng.integers(2, 9))
            a, b = random_simplex(rng, k), random_simplex(rng, k)
            lhs = np.linalg.norm(balance_gradient(a, lam) - balance_gradient(b, lam))
            rhs = lam * np.linalg.norm(a - b)
            assert abs(lhs - rhs) <= 1e-10


class TestRowEntropy:
    """entropy_total on one row: -sum p log p with 0 log 0 = 0."""

    def test_one_hot_zero(self):
        assert entropy_total(np.array([[0.0, 1.0, 0.0]])) == 0.0

    def test_uniform_log_k(self):
        for k in (2, 5, 11):
            assert abs(entropy_total(np.full((1, k), 1.0 / k)) - math.log(k)) <= 1e-12

    def test_half_half(self):
        assert abs(entropy_total(np.array([[0.5, 0.5]])) - math.log(2.0)) <= 1e-15

    @given(simplex_arrays())
    def test_range(self, row):
        h = entropy_total(row[None, :])
        assert -1e-12 <= h <= math.log(len(row)) + 1e-12


class TestLogMarginal:
    def test_single_component_equals_density(self):
        rng = np.random.default_rng(1)
        mu = normalize(rng.standard_normal(5))
        theta = MixtureParams(means=mu[None, :], kappas=np.array([12.0]))
        x = normalize(rng.standard_normal(5))
        assert abs(log_marginal(x[None, :], theta)[0] - vmf_log_density(x, mu, 12.0)) <= 1e-12

    def test_duplicate_components_collapse(self):
        rng = np.random.default_rng(2)
        mu = normalize(rng.standard_normal(4))
        theta = MixtureParams(means=np.stack([mu, mu]), kappas=np.array([7.0, 7.0]))
        x = normalize(rng.standard_normal(4))
        assert abs(log_marginal(x[None, :], theta)[0] - vmf_log_density(x, mu, 7.0)) <= 1e-12

    def test_two_uniform_components_d3(self):
        theta = MixtureParams(means=np.eye(3)[:2], kappas=np.zeros(2))
        x = normalize(np.array([1.0, 1.0, 1.0]))
        assert abs(log_marginal(x[None, :], theta)[0] - (-math.log(4 * math.pi))) <= 1e-12

    def test_dimension_mismatch(self):
        theta = MixtureParams(means=np.eye(3)[:2], kappas=np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            log_marginal(np.array([[1.0, 0.0]]), theta)

    def test_finite_at_kappa_extremes(self):
        rng = np.random.default_rng(3)
        X = random_unit_rows(rng, 20, 8)
        theta = MixtureParams(means=random_unit_rows(rng, 3, 8), kappas=np.array([0.0, 1.0, 9e5]))
        assert np.all(np.isfinite(log_marginal(X, theta)))


class TestObjective:
    def test_single_uniform_component(self):
        theta = MixtureParams(means=np.eye(3)[:1], kappas=np.zeros(1))
        X = normalize(np.array([[0.3, -0.2, 1.0]]))
        g = np.ones((1, 1))
        got = objective_value(theta, g, X, lam=42.0)
        assert abs(got - (-math.log(4 * math.pi))) <= 1e-12

    def test_elbo_tight_at_posterior(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, k, d = int(rng.integers(2, 40)), int(rng.integers(1, 5)), int(rng.integers(2, 10))
            X = random_unit_rows(rng, n, d)
            theta = random_params(rng, k, d)
            g = posterior(theta, X)
            lhs = objective_value(theta, g, X, 0.0)
            rhs = float(np.sum(log_marginal(X, theta)))
            assert abs(lhs - rhs) <= 1e-8

    def test_elbo_jensen_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n, k, d = int(rng.integers(2, 30)), int(rng.integers(2, 5)), int(rng.integers(2, 8))
            X = random_unit_rows(rng, n, d)
            theta = random_params(rng, k, d)
            g = random_gamma(rng, n, k)
            assert objective_value(theta, g, X, 0.0) <= float(np.sum(log_marginal(X, theta))) + 1e-8


class TestSurrogate:
    def test_tight_at_anchor(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n, k, d = int(rng.integers(2, 50)), int(rng.integers(2, 6)), int(rng.integers(2, 8))
            X = random_unit_rows(rng, n, d)
            theta = random_params(rng, k, d)
            g = random_gamma(rng, n, k)
            pi = empirical_mass(g)
            lam = float(rng.choice([0.0, 1.0, 50.0, 5000.0]))
            s = surrogate_value(theta, g, pi, X, lam)
            f = objective_value(theta, g, X, lam)
            assert abs(s - f) <= 1e-8 * max(1.0, abs(f))

    def test_minorizes_everywhere(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n, k, d = int(rng.integers(2, 50)), int(rng.integers(2, 6)), int(rng.integers(2, 8))
            X = random_unit_rows(rng, n, d)
            theta = random_params(rng, k, d)
            anchor = random_gamma(rng, n, k)
            probe = random_gamma(rng, n, k)
            lam = float(rng.choice([0.0, 10.0, 5000.0]))
            s = surrogate_value(theta, probe, empirical_mass(anchor), X, lam)
            f = objective_value(theta, probe, X, lam)
            assert s <= f + 1e-8 * max(1.0, abs(f))

    def test_lam_zero_reduces_to_elbo(self):
        rng = np.random.default_rng(9)
        n, k, d = 12, 3, 5
        X = random_unit_rows(rng, n, d)
        theta = random_params(rng, k, d)
        g = random_gamma(rng, n, k)
        anchor = random_simplex(rng, k)
        assert surrogate_value(theta, g, anchor, X, 0.0) == objective_value(theta, g, X, 0.0)

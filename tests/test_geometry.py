"""Sphere primitives: log Bessel I, vMF density, sampling, concentration.

The Bessel oracle is a frozen grid of log I_nu(x) values computed once
with mpmath (ascending series summed at 40 decimal digits); agreement is
judged in the log domain, i.e. |got - ref| / max(1, |ref|), which is the
relative error of I itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spheremix.errors import DimensionMismatchError, ZeroVectorError
from spheremix.geometry import (
    UNIT_TOL,
    as_embeddings,
    concentration_check,
    concentration_lower_bound,
    log_bessel_i,
    log_vmf_norm_const,
    mean_resultant_length,
    normalize,
    sample_uniform_sphere,
    sample_vmf,
    vmf_log_density,
)

# mpmath ascending series, dps=40, frozen. Covers the scipy.ive path
# (order <~ argument) and the log-series fallback (order >> argument).
BESSEL_GRID = {
    (0.0, 1e-08): 2.500000000000000089e-17,
    (0.0, 0.001): 2.4999998437500174652e-7,
    (0.0, 0.5): 0.061549719185481303941,
    (0.0, 1.0): 0.23591435850717864869,
    (0.0, 10.0): 7.9429720831186955545,
    (0.0, 100.0): 96.779732689942583717,
    (0.0, 1000.0): 995.62730888986946467,
    (0.0, 10000.0): 9994.475903781432301,
    (0.0, 100000.0): 99993.324599984316463,
    (0.0, 1000000.0): 999992.17330631281325,
    (0.5, 1e-08): -9.4361317246209101413,
    (0.5, 0.001): -3.6796688254691348369,
    (0.5, 0.5): -0.53104008831178197809,
    (0.5, 1.0): -0.064351991073531798753,
    (0.5, 10.0): 7.9297689182371507916,
    (0.5, 100.0): 96.778476373801281574,
    (0.5, 1000.0): 995.62718382730425873,
    (0.5, 10000.0): 9994.4758912808072359,
    (0.5, 100000.0): 99993.324598734310213,
    (0.5, 1000000.0): 999992.17330618781319,
    (1.0, 1e-08): -19.113827924512310748,
    (1.0, 0.001): -7.6009023345420849448,
    (1.0, 0.5): -1.3552054470253344645,
    (1.0, 1.0): -0.57064798749083128142,
    (1.0, 10.0): 7.8902038341042122935,
    (1.0, 100.0): 96.774707457591448463,
    (1.0, 1000.0): 995.62680863963998492,
    (1.0, 10000.0): 9994.4758537789320718,
    (1.0, 100000.0): 99993.324594984291463,
    (1.0, 1000000.0): 999992.173305812813,
    (7.0, 1e-08): -142.32195683265158962,
    (7.0, 0.001): -61.731478546609990739,
    (7.0, 0.5): -18.221412776219336206,
    (7.0, 1.0): -13.345995653624480248,
    (7.0, 10.0): 5.4723781669517725639,
    (7.0, 100.0): 96.533597175032079137,
    (7.0, 1000.0): 995.60279672691832508,
    (7.0, 10000.0): 9994.4734536590190997,
    (7.0, 100000.0): 99993.32435498309155,
    (7.0, 1000000.0): 999992.173281812801,
    (8.0, 1e-08): -163.51522629884373631,
    (8.0, 0.001): -71.411822551304131214,
    (8.0, 0.5): -21.688015756497921702,
    (8.0, 1.0): -16.122041020366328801,
    (8.0, 10.0): 4.7541627226111338054,
    (8.0, 100.0): 96.458290659491800513,
    (8.0, 1000.0): 995.59529304368491646,
    (8.0, 10000.0): 9994.4727036215856827,
    (8.0, 100000.0): 99993.324279982716616,
    (8.0, 1000000.0): 999992.17327431279725,
    (31.5, 1e-08): -681.9067650357521506,
    (31.5, 0.001): -319.24961288149764768,
    (31.5, 0.5): -123.48753476716112311,
    (31.5, 1.0): -101.64763017645606041,
    (31.5, 10.0): -28.363239674856652534,
    (31.5, 100.0): 91.834444258414762723,
    (31.5, 1000.0): 995.13097669267295409,
    (31.5, 10000.0): 9994.4262888415740475,
    (31.5, 100000.0): 99993.319638709550969,
    (31.5, 1000000.0): 999992.17281018756523,
    (127.0, 1e-08): -2919.0095946363614701,
    (127.0, 0.001): -1456.8680605831893358,
    (127.0, 0.5): -667.61234380519821048,
    (127.0, 1.0): -579.58118704419640993,
    (127.0, 10.0): -286.95966840529008013,
    (127.0, 100.0): 23.559676930161610736,
    (127.0, 1000.0): 987.56959181512957981,
    (127.0, 10000.0): 9993.6694242966513131,
    (127.0, 100000.0): 99993.243954591926775,
    (127.0, 1000000.0): 999992.16524180879184,
    (511.5, 1e-08): -12459.664048561289388,
    (511.5, 0.001): -6570.8026732285297466,
    (511.5, 0.5): -3392.0305089348614547,
    (511.5, 1.0): -3037.4853602250081087,
    (511.5, 10.0): -1859.6647947920799606,
    (511.5, 100.0): -677.08613108220319551,
    (511.5, 1000.0): 867.40424219623440164,
    (511.5, 10000.0): 9981.3964878914023541,
    (511.5, 100000.0): 99992.016435045645626,
    (511.5, 1000000.0): 999992.04249012525727,
    (2048.0, 1e-08): -52717.070561772048584,
    (2048.0, 0.001): -29138.599209512898769,
    (2048.0, 0.5): -16411.081793441688124,
    (2048.0, 1.0): -14991.516276146870826,
    (2048.0, 10.0): -10275.809926668412635,
    (2048.0, 100.0): -5558.9081126851622023,
    (2048.0, 1000.0): -725.7941217878487944,
    (2048.0, 10000.0): 9785.4743841245293916,
    (2048.0, 100000.0): 99972.353708063100602,
    (2048.0, 1000000.0): 999990.07615399724515,
    (4096.0, 1e-08): -108268.88723964647311,
    (4096.0, 0.001): -61111.944535128356483,
    (4096.0, 0.5): -35656.909748736055558,
    (4096.0, 1.0): -32817.778851397325952,
    (4096.0, 10.0): -23386.384269492643539,
    (4096.0, 100.0): -13954.391673444444098,
    (4096.0, 1000.0): -4463.0385607071160135,
    (4096.0, 10000.0): 9166.7547018073202584,
    (4096.0, 100000.0): 99909.449823126322028,
    (4096.0, 1000000.0): 999983.78470584660489,
}


def log_err(got: float, ref: float) -> float:
    return abs(got - ref) / max(1.0, abs(ref))


class TestLogBesselI:
    def test_frozen_grid(self):
        for (nu, x), ref in BESSEL_GRID.items():
            got = log_bessel_i(nu, x)
            assert log_err(got, ref) <= 1e-9, (nu, x, got, ref)

    def test_high_order_cell(self):
        # order 383 = d/2 - 1 for 768-dim embeddings, argument ~ learned kappa
        ref = 815.3124259166902032  # mpmath series, dps=40, frozen
        assert abs(log_bessel_i(383.0, 900.0) - ref) / abs(ref) <= 1e-8

    def test_half_order_closed_form(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh(x)
        for x in (0.25, 1.0, 5.0, 30.0):
            ref = 0.5 * math.log(2.0 / (math.pi * x)) + x + math.log1p(-math.exp(-2 * x)) - math.log(2.0)
            assert log_err(log_bessel_i(0.5, x), ref) <= 1e-12
        assert abs(log_bessel_i(0.5, 1.0) - (-0.0643519910735318)) <= 1e-12

    def test_at_zero_argument(self):
        assert log_bessel_i(0.0, 0.0) == 0.0
        assert log_bessel_i(3.0, 0.0) == -math.inf

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_bessel_i(-1.0, 1.0)
        with pytest.raises(ValueError):
            log_bessel_i(1.0, -1.0)

    def test_monotone_in_argument(self):
        xs = np.logspace(-6, 6, 49)
        for nu in (0.0, 0.5, 7.0, 383.0, 2048.0):
            vals = [log_bessel_i(nu, x) for x in xs]
            assert all(b > a for a, b in zip(vals, vals[1:])), nu

    def test_three_term_recurrence(self):
        # I_{nu-1}(x) - I_{nu+1}(x) = (2 nu / x) I_nu(x), in the log domain
        for nu in (1.0, 8.0, 31.5, 127.0, 511.5, 2048.0):
            for x in (0.5, 10.0, 100.0, 1e4):
                lo = log_bessel_i(nu - 1.0, x)
                mid = log_bessel_i(nu, x)
                hi = log_bessel_i(nu + 1.0, x)
                lhs = lo + math.log1p(-math.exp(hi - lo))
                rhs = math.log(2.0 * nu / x) + mid
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs)), (nu, x)


class TestNormalize:
    def test_pythagorean(self):
        np.testing.assert_allclose(normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_identity_on_unit(self):
        np.testing.assert_array_equal(normalize(np.array([1.0, 0.0, 0.0])), [1.0, 0.0, 0.0])

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            normalize(np.zeros(2))

    def test_matrix_rows(self):
        rows = normalize(np.array([[3.0, 4.0], [0.0, -2.0]]))
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0)

    def test_matrix_zero_row_raises(self):
        with pytest.raises(ZeroVectorError):
            normalize(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8))
    def test_unit_norm_property(self, coords):
        v = np.asarray(coords)
        if np.linalg.norm(v) < 1e-6:
            return
        assert abs(np.linalg.norm(normalize(v)) - 1.0) <= 1e-9


class TestAsEmbeddings:
    def test_accepts_unit_rows(self):
        X = normalize(np.array([[3.0, 4.0], [0.0, -2.0]]))
        np.testing.assert_array_equal(as_embeddings(X), X)

    def test_accepts_rows_within_unit_tol(self):
        # The GEMEMB1 normalized flag allows rows 1e-5 off unit length, so
        # fit takes every flagged file the reader takes.
        X = normalize(np.array([[3.0, 4.0], [0.0, -2.0]]))
        as_embeddings(X * (1.0 + 0.9 * UNIT_TOL))
        with pytest.raises(ZeroVectorError, match="row 0"):
            as_embeddings(X * (1.0 + 1.1 * UNIT_TOL))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0])
    def test_rejects_bad_row(self, bad):
        X = np.array([[1.0, 0.0], [bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ZeroVectorError, match="row 1"):
            as_embeddings(X)


class TestVmfLogDensity:
    def test_uniform_sphere_d3(self):
        mu = np.array([0.0, 0.0, 1.0])
        x = normalize(np.array([1.0, 2.0, -0.5]))
        assert abs(vmf_log_density(x, mu, 0.0) - (-math.log(4 * math.pi))) <= 1e-12

    def test_uniform_circle_d2(self):
        mu = np.array([1.0, 0.0])
        x = normalize(np.array([-0.3, 0.7]))
        assert abs(vmf_log_density(x, mu, 0.0) - (-math.log(2 * math.pi))) <= 1e-12

    def test_antipodal_gap_is_two_kappa(self):
        rng = np.random.default_rng(3)
        mu = normalize(rng.standard_normal(16))
        for kappa in (0.5, 10.0, 900.0):
            gap = vmf_log_density(mu, mu, kappa) - vmf_log_density(-mu, mu, kappa)
            assert abs(gap - 2 * kappa) <= 1e-8 * max(1.0, 2 * kappa)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            vmf_log_density(np.ones(3) / math.sqrt(3), np.array([1.0, 0.0]), 1.0)

    def test_stack_matches_scalar(self):
        rng = np.random.default_rng(5)
        mu = normalize(rng.standard_normal(8))
        X = sample_uniform_sphere(10, 8, rng)
        batch = vmf_log_density(X, mu, 7.0)
        for i in range(10):
            assert abs(batch[i] - vmf_log_density(X[i], mu, 7.0)) <= 1e-12

    @pytest.mark.parametrize("d,area", [(2, 2 * math.pi), (3, 4 * math.pi)])
    def test_density_integrates_to_one(self, d, area):
        # Monte Carlo over 1e6 uniform points; integral = area * E[f]
        rng = np.random.default_rng(11)
        X = sample_uniform_sphere(1_000_000, d, rng)
        mu = np.zeros(d)
        mu[0] = 1.0
        for kappa in (0.0, 2.0, 8.0):
            vals = np.exp(vmf_log_density(X, mu, kappa))
            integral = area * float(vals.mean())
            assert abs(integral - 1.0) <= 0.01, (d, kappa, integral)

    def test_norm_const_continuous_at_zero(self):
        # the kappa = 0 branch is an explicit limit; it must join the
        # closed form continuously and the peak density C e^kappa must grow
        for d in (2, 3, 16, 768):
            v0 = log_vmf_norm_const(d, 0.0)
            v_eps = log_vmf_norm_const(d, 1e-8)
            assert abs(v0 - v_eps) <= 1e-6
            assert log_vmf_norm_const(d, 10.0) + 10.0 > v0


class TestSampleVmf:
    def test_uniform_mean_dot_near_zero(self):
        d, n = 16, 10_000
        rng = np.random.default_rng(7)
        p = normalize(rng.standard_normal(d))
        X = sample_vmf(np.eye(d)[0], 0.0, n, seed=7)
        assert abs(float(np.mean(X @ p))) <= 4.0 * math.sqrt(1.0 / (d * n))

    def test_high_concentration_hugs_mean(self):
        mu = normalize(np.arange(1.0, 9.0))
        X = sample_vmf(mu, 1e4, 100, seed=0)
        assert float(np.min(X @ mu)) > 0.99

    def test_deterministic_given_seed(self):
        mu = normalize(np.ones(6))
        a = sample_vmf(mu, 25.0, 500, seed=42)
        b = sample_vmf(mu, 25.0, 500, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_rows_unit_norm(self):
        X = sample_vmf(np.eye(5)[2], 3.0, 200, seed=1)
        np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("d", [4, 16])
    @pytest.mark.parametrize("kappa", [1.0, 10.0, 100.0])
    def test_moment_matches_mean_resultant_length(self, d, kappa):
        mu = np.eye(d)[0]
        X = sample_vmf(mu, kappa, 100_000, seed=d * 1000 + int(kappa))
        r_hat = float(np.linalg.norm(X.mean(axis=0)))
        assert abs(r_hat - mean_resultant_length(d, kappa)) <= 1e-2

    def test_kappa_zero_matches_uniform_path(self):
        X = sample_vmf(np.eye(3)[0], 0.0, 1000, seed=9)
        # symmetry: first-coordinate mean small, norms exact
        assert abs(float(X[:, 0].mean())) < 0.1
        np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)

    @given(st.integers(0, 2**31 - 1))
    def test_seed_reproducibility_property(self, seed):
        mu = np.eye(4)[0]
        np.testing.assert_array_equal(
            sample_vmf(mu, 5.0, 8, seed=seed), sample_vmf(mu, 5.0, 8, seed=seed)
        )


class TestConcentration:
    def test_lemma_bound_cells(self):
        for d, eps in [(4, 0.5), (64, 0.3), (1024, 0.2)]:
            frac = concentration_check(d, eps, 100_000, seed=0)
            assert frac >= concentration_lower_bound(d, eps, 100_000), (d, eps, frac)

    def test_trivial_full_band(self):
        assert concentration_check(2, 1.0, 1000, seed=0) == 1.0

    def test_high_dimension_near_one(self):
        frac = concentration_check(1024, 0.2, 100_000, seed=3)
        assert frac >= 1.0 - 2.0 * math.exp(-20.48) - 5.0 * math.sqrt(1e-5)

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            concentration_check(4, 0.0, 100, seed=0)
        with pytest.raises(ValueError):
            concentration_check(4, 1.5, 100, seed=0)

import math

import numpy as np
import pytest

from linphot import (
    DarkNoiseModel,
    InvalidParameterError,
    UnsupportedOracleError,
    analytic_pv_cdf_gaussian,
    analytic_pv_gaussian,
    analytic_voltage_moments,
    apply_bernoulli,
    block_jackknife_se,
    make_fock,
    make_gain,
    make_poisson,
    make_thermal,
    sample_moments,
    sample_voltage,
    simulate_ensemble,
)
from linphot.detector import _segment_sums
from linphot.streams import substream


class TestMakeGain:
    def test_degenerate_point_mass(self):
        g = make_gain("gaussian", 100.0, 0.0)
        assert g.cumulants == (100.0, 0.0, 0.0, 0.0, 0.0)
        assert g.central_moments == (0.0, 0.0, 0.0, 0.0)

    def test_gamma_family_cumulants(self):
        g = make_gain("gamma", 100.0, 10.0)  # shape 100, scale 1
        assert g.cumulants[2] == pytest.approx(200.0, rel=1e-12)
        shape, theta = 100.0, 1.0
        for r in range(1, 6):
            assert g.cumulants[r - 1] == pytest.approx(
                shape * theta**r * math.factorial(r - 1), rel=1e-12
            )

    def test_gaussian_high_cumulants_vanish(self):
        g = make_gain("gaussian", 100.0, 2.0)
        assert g.cumulants == (100.0, 4.0, 0.0, 0.0, 0.0)
        assert g.central_moments == pytest.approx((4.0, 0.0, 48.0, 0.0))

    def test_empirical_matches_gaussian_shape(self):
        x = np.linspace(40.0, 160.0, 4001)
        dens = np.exp(-0.5 * (x - 100.0) ** 2 / 7.0**2)
        g = make_gain("empirical", 100.0, empirical_table=(x, dens))
        assert g.gamma_bar == pytest.approx(100.0, rel=1e-12)
        assert g.sigma2 == pytest.approx(49.0, rel=1e-5)
        assert g.cumulants[2] == pytest.approx(0.0, abs=1e-3)

    def test_empirical_rescales_to_requested_mean(self):
        x = np.linspace(0.0, 10.0, 2001)
        dens = np.where(x < 5.0, x, 10.0 - x)  # triangle, mean 5
        g = make_gain("empirical", 80.0, empirical_table=(x, dens))
        assert g.gamma_bar == pytest.approx(80.0, rel=1e-12)

    def test_empirical_sampling_moments(self):
        x = np.linspace(0.0, 10.0, 2001)
        dens = np.where(x < 5.0, x, 10.0 - x)
        g = make_gain("empirical", 5.0, empirical_table=(x, dens))
        draws = g.sample(substream(21), 10**5)
        assert draws.mean() == pytest.approx(5.0, abs=5 * draws.std() / math.sqrt(draws.size))
        mset = sample_moments(draws, 3)
        assert mset.central_moment(2) == pytest.approx(g.sigma2, rel=0.02)

    def test_errors(self):
        with pytest.raises(InvalidParameterError):
            make_gain("lognormal", 100.0, 1.0)
        with pytest.raises(InvalidParameterError):
            make_gain("gaussian", 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            make_gain("gaussian", 100.0, -1.0)
        with pytest.raises(InvalidParameterError):
            make_gain("empirical", 100.0)
        with pytest.raises(InvalidParameterError):
            make_gain("empirical", 100.0, empirical_table=([0, 1], [1, -1]))


def test_dark_noise_validation():
    with pytest.raises(InvalidParameterError):
        DarkNoiseModel(sigma0=-1.0)
    assert DarkNoiseModel(sigma0=0.0).sample(substream(1), 5).tolist() == [0.0] * 5


class TestSampleVoltage:
    def test_dark_only_zero(self):
        v = sample_voltage(0, make_gain("gaussian", 100.0, 2.0), DarkNoiseModel(0.0), substream(2))
        assert v == 0.0

    def test_degenerate_chain_exact(self):
        v = sample_voltage(3, make_gain("gaussian", 100.0, 0.0), DarkNoiseModel(0.0), substream(3))
        assert v == 300.0

    def test_single_photon_mean(self):
        gain = make_gain("gaussian", 100.0, 2.0)
        dark = DarkNoiseModel(0.0)
        rng = substream(4)
        n = 20000
        vals = np.array([sample_voltage(1, gain, dark, rng) for _ in range(n)])
        assert vals.mean() == pytest.approx(100.0, abs=5 * 2.0 / math.sqrt(n))

    def test_single_photon_mean_million_shots(self):
        # one gain draw per shot: fock(1) at full efficiency
        ens = simulate_ensemble(
            make_fock(1), 1.0, make_gain("gaussian", 100.0, 2.0),
            DarkNoiseModel(0.0), 10**6, seed=30,
        )
        assert ens.samples.mean() == pytest.approx(100.0, abs=5 * 2.0 / 10**3)

    def test_invalid_m(self):
        with pytest.raises(InvalidParameterError):
            sample_voltage(-1, make_gain("gaussian", 1.0, 0.0), DarkNoiseModel(0.0), substream(5))


def test_segment_sums_against_loop():
    rng = np.random.default_rng(6)
    counts = rng.integers(0, 5, 200)
    counts[::7] = 0  # exercise empty segments
    draws = rng.normal(0, 1, int(counts.sum()))
    got = _segment_sums(draws, counts)
    pos = 0
    for i, c in enumerate(counts):
        expected = draws[pos : pos + c].sum()
        pos += c
        assert got[i] == pytest.approx(expected, abs=1e-12)
    assert _segment_sums(np.array([]), np.zeros(3, dtype=int)).tolist() == [0, 0, 0]


class TestSimulateEnsemble:
    def test_vacuum_source_gives_dark_draws(self):
        ens = simulate_ensemble(
            make_poisson(0.0), 1.0, make_gain("gaussian", 100.0, 2.0),
            DarkNoiseModel(10.0), 50_000, seed=31,
        )
        assert ens.samples.mean() == pytest.approx(0.0, abs=5 * 10.0 / math.sqrt(50_000))
        assert ens.samples.std() == pytest.approx(10.0, rel=0.05)

    def test_noiseless_single_photon(self):
        ens = simulate_ensemble(
            make_fock(1), 1.0, make_gain("gaussian", 100.0, 0.0),
            DarkNoiseModel(0.0), 1000, seed=32,
        )
        assert np.all(ens.samples == 100.0)

    def test_mean_identity_reference(self):
        ens = simulate_ensemble(
            make_poisson(50.0), 0.5, make_gain("gaussian", 100.0, 2.0),
            DarkNoiseModel(10.0), 10**5, seed=33,
        )
        se = ens.samples.std(ddof=1) / math.sqrt(ens.n_samples)
        assert ens.samples.mean() == pytest.approx(2500.0, abs=5 * se)

    def test_same_seed_reproduces(self):
        args = (make_thermal(5.0), 0.4, make_gain("gamma", 50.0, 5.0), DarkNoiseModel(5.0))
        a = simulate_ensemble(*args, 40_000, seed=34)
        b = simulate_ensemble(*args, 40_000, seed=34)
        assert np.array_equal(a.samples, b.samples)

    def test_same_seed_reproduces_across_chunks(self):
        n = (1 << 18) + 1234  # spans two chunks
        args = (make_poisson(3.0), 0.7, make_gain("gaussian", 10.0, 0.5), DarkNoiseModel(1.0))
        a = simulate_ensemble(*args, n, seed=35)
        b = simulate_ensemble(*args, n, seed=35)
        assert np.array_equal(a.samples, b.samples)
        # the chunk grid defines the substreams: chunk 0 does not depend on n
        first = simulate_ensemble(*args, 1 << 18, seed=35)
        assert np.array_equal(a.samples[: 1 << 18], first.samples)

    def test_gain_scale_multiplies_voltages(self):
        args = (make_poisson(5.0), 0.5, make_gain("gaussian", 100.0, 2.0), DarkNoiseModel(10.0))
        base = simulate_ensemble(*args, 20_000, seed=36)
        doubled = simulate_ensemble(*args, 20_000, seed=36, gain_scale=2.0)
        np.testing.assert_allclose(doubled.samples, 2.0 * base.samples, rtol=1e-15)

    @pytest.mark.parametrize(
        "source,eta,family,sigma,sigma0",
        [
            ("poisson", 0.5, "gaussian", 2.0, 10.0),
            ("thermal", 0.3, "gamma", 8.0, 5.0),
            ("fock", 0.8, "gaussian", 5.0, 0.0),
        ],
    )
    def test_mean_and_variance_identities(self, source, eta, family, sigma, sigma0):
        src = {"poisson": make_poisson(40.0), "thermal": make_thermal(20.0), "fock": make_fock(30)}[source]
        gain = make_gain(family, 100.0, sigma)
        dark = DarkNoiseModel(sigma0)
        ens = simulate_ensemble(src, eta, gain, dark, 2 * 10**5, seed=37)
        det = ens.truth
        x = ens.samples
        se_mean = x.std(ddof=1) / math.sqrt(x.size)
        assert x.mean() == pytest.approx(det.mean_m * 100.0, abs=5 * se_mean)
        var_expected = 100.0**2 * det.central_moments[0] + det.mean_m * sigma**2 + sigma0**2
        se_var = block_jackknife_se(x, np.var, n_blocks=20)
        assert np.var(x) == pytest.approx(var_expected, abs=5 * se_var)

    def test_empirical_gain_chain_runs(self):
        grid = np.linspace(20.0, 180.0, 1001)
        dens = np.exp(-0.5 * (grid - 100.0) ** 2 / 15.0**2)
        gain = make_gain("empirical", 100.0, empirical_table=(grid, dens))
        ens = simulate_ensemble(make_poisson(10.0), 0.5, gain, DarkNoiseModel(5.0), 50_000, seed=38)
        se = ens.samples.std(ddof=1) / math.sqrt(ens.n_samples)
        assert ens.samples.mean() == pytest.approx(500.0, abs=5 * se)

    def test_invalid_args(self):
        src = make_poisson(1.0)
        gain = make_gain("gaussian", 1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            simulate_ensemble(src, 1.5, gain, DarkNoiseModel(0.0), 100, seed=1)
        with pytest.raises(InvalidParameterError):
            simulate_ensemble(src, 0.5, gain, DarkNoiseModel(0.0), 0, seed=1)


class TestAnalyticPv:
    def test_vacuum_is_dark_gaussian(self):
        det = apply_bernoulli(make_poisson(0.0), 1.0)
        gain = make_gain("gaussian", 100.0, 2.0)
        dark = DarkNoiseModel(5.0)
        v = np.array([-5.0, 0.0, 5.0])
        dens = analytic_pv_gaussian(det, gain, dark, v)
        expected = np.exp(-0.5 * (v / 5.0) ** 2) / math.sqrt(2 * math.pi * 25.0)
        np.testing.assert_allclose(dens, expected, rtol=1e-12)

    def test_single_photon_component(self):
        det = apply_bernoulli(make_fock(1), 1.0)
        gain = make_gain("gaussian", 100.0, 2.0)
        dark = DarkNoiseModel(5.0)
        var = 4.0 + 25.0
        v = np.array([90.0, 100.0, 110.0])
        dens = analytic_pv_gaussian(det, gain, dark, v)
        expected = np.exp(-0.5 * (v - 100.0) ** 2 / var) / math.sqrt(2 * math.pi * var)
        np.testing.assert_allclose(dens, expected, rtol=1e-12)

    def test_poisson2_mixture_value_at_200(self):
        det = apply_bernoulli(make_poisson(2.0), 1.0)
        gain = make_gain("gaussian", 100.0, 2.0)
        dark = DarkNoiseModel(5.0)
        # oracle: direct sum of e^-2 2^k / k! * N(200; 100k, 4k + 25)
        expected = 0.0
        for k in range(60):
            w = math.exp(-2) * 2.0**k / math.factorial(k)
            var = 4.0 * k + 25.0
            expected += w * math.exp(-0.5 * (200.0 - 100.0 * k) ** 2 / var) / math.sqrt(
                2 * math.pi * var
            )
        got = analytic_pv_gaussian(det, gain, dark, np.array([200.0]))[0]
        assert got == pytest.approx(expected, rel=1e-10)

    def test_density_integrates_to_one(self):
        det = apply_bernoulli(make_poisson(20.0), 0.6)
        gain = make_gain("gaussian", 100.0, 5.0)
        dark = DarkNoiseModel(10.0)
        mset = analytic_voltage_moments(det, gain, dark, 2)
        lo = mset.mean - 8 * math.sqrt(mset.central_moment(2))
        hi = mset.mean + 8 * math.sqrt(mset.central_moment(2))
        grid = np.linspace(lo, hi, 20001)
        dens = analytic_pv_gaussian(det, gain, dark, grid)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)

    def test_unsupported_families(self):
        det = apply_bernoulli(make_poisson(2.0), 0.5)
        with pytest.raises(UnsupportedOracleError):
            analytic_pv_gaussian(det, make_gain("gamma", 100.0, 5.0), DarkNoiseModel(5.0), [0.0])
        with pytest.raises(UnsupportedOracleError):
            # zero-variance dark component at k = 0
            analytic_pv_gaussian(det, make_gain("gaussian", 100.0, 5.0), DarkNoiseModel(0.0), [0.0])

    def test_monte_carlo_matches_cdf_kolmogorov(self):
        src = make_poisson(20.0)
        eta = 0.5
        gain = make_gain("gaussian", 100.0, 5.0)
        dark = DarkNoiseModel(10.0)
        n = 10**6
        ens = simulate_ensemble(src, eta, gain, dark, n, seed=39)
        x = np.sort(ens.samples)
        cdf = analytic_pv_cdf_gaussian(ens.truth, gain, dark, x)
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
        bound = 5 * math.sqrt(math.log(2 / 0.001) / (2 * n))
        assert ks < bound

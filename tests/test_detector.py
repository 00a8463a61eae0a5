import math

import numpy as np
import pytest

from linphot import (
    DarkNoiseModel,
    InvalidParameterError,
    analytic_voltage_moments,
    apply_bernoulli,
    from_pmf,
    make_fock,
    make_gain,
    make_poisson,
    make_thermal,
    sample_moments,
    simulate_ensemble,
)
from linphot.streams import CHUNK_SIZE, substream
from oracles import (
    analytic_pv_cdf_gaussian,
    analytic_pv_gaussian,
    block_jackknife_se,
    broadcast_ensemble_samples,
    gain_central_moments,
)


class TestMakeGain:
    def test_degenerate_point_mass(self):
        g = make_gain("gaussian", 100.0, 0.0)
        assert g.cumulants == (100.0, 0.0, 0.0, 0.0, 0.0)
        assert gain_central_moments(g) == (0.0, 0.0, 0.0, 0.0)

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
        assert gain_central_moments(g) == pytest.approx((4.0, 0.0, 48.0, 0.0))

    def test_errors(self):
        with pytest.raises(InvalidParameterError):
            make_gain("lognormal", 100.0, 1.0)
        with pytest.raises(InvalidParameterError):
            make_gain("gaussian", 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            make_gain("gaussian", 100.0, -1.0)
        with pytest.raises(InvalidParameterError):
            make_gain("empirical", 100.0)


def test_dark_noise_validation():
    with pytest.raises(InvalidParameterError):
        DarkNoiseModel(sigma0=-1.0)
    assert DarkNoiseModel(sigma0=0.0).sample(substream(1), 5).tolist() == [0.0] * 5


@pytest.mark.parametrize("eta", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("sigma0", [0.0, 10.0])
@pytest.mark.parametrize(
    "gain",
    # spreads whose sigma and theta are not powers of two, so every rounding shows
    [make_gain("gaussian", 100.0, 3.0), make_gain("gamma", 100.0, 7.0), make_gain("gaussian", 100.0, 0.0)],
    ids=["gaussian", "gamma", "point-mass"],
)
@pytest.mark.parametrize(
    "source", [make_poisson(30.0), from_pmf([0.1, 0.2, 0.3, 0.4])], ids=["poisson", "table"]
)
def test_in_place_gain_sums_are_the_broadcast_draws(source, gain, sigma0, eta):
    # two chunks: a full one and 17 shots
    dark = DarkNoiseModel(sigma0)
    ens = simulate_ensemble(source, eta, gain, dark, CHUNK_SIZE + 17, seed=44, stream_key=(9,))
    expected = broadcast_ensemble_samples(source, eta, gain, dark, CHUNK_SIZE + 17, 44, (9,))
    assert ens.samples.tobytes() == expected.tobytes()


class TestSimulateEnsemble:
    def test_vacuum_source_gives_dark_draws(self):
        ens = simulate_ensemble(
            make_poisson(0.0), 1.0, make_gain("gaussian", 100.0, 2.0),
            DarkNoiseModel(10.0), 50_000, seed=31,
        )
        assert ens.samples.mean() == pytest.approx(0.0, abs=5 * 10.0 / math.sqrt(50_000))
        assert ens.samples.std() == pytest.approx(10.0, rel=0.05)

    def test_vacuum_source_with_gamma_gain_is_all_zero(self):
        # zero photons give a gamma sum of shape 0, which numpy draws as exactly 0
        ens = simulate_ensemble(
            make_poisson(0.0), 0.5, make_gain("gamma", 100.0, 10.0),
            DarkNoiseModel(0.0), 10_000, seed=41,
        )
        assert np.all(ens.samples == 0.0)

    def test_dark_only_zero(self):
        # zero photons give a gaussian sum of scale 0, drawn as its mean, 0
        ens = simulate_ensemble(
            make_poisson(0.0), 0.5, make_gain("gaussian", 100.0, 2.0),
            DarkNoiseModel(0.0), 10_000, seed=2,
        )
        assert np.all(ens.samples == 0.0)

    def test_noiseless_single_photon(self):
        ens = simulate_ensemble(
            make_fock(1), 1.0, make_gain("gaussian", 100.0, 0.0),
            DarkNoiseModel(0.0), 1000, seed=32,
        )
        assert np.all(ens.samples == 100.0)

    def test_degenerate_chain_exact(self):
        ens = simulate_ensemble(
            make_fock(3), 1.0, make_gain("gaussian", 100.0, 0.0),
            DarkNoiseModel(0.0), 1000, seed=3,
        )
        assert np.all(ens.samples == 300.0)

    def test_single_photon_mean_million_shots(self):
        # one gain draw per shot: fock(1) at full efficiency
        ens = simulate_ensemble(
            make_fock(1), 1.0, make_gain("gaussian", 100.0, 2.0),
            DarkNoiseModel(0.0), 10**6, seed=30,
        )
        assert ens.samples.mean() == pytest.approx(100.0, abs=5 * 2.0 / 10**3)

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
        # an output gain g is the chain with gamma_bar, sigma and sigma0 times g;
        # a power-of-two g scales every draw exactly
        def run(family, sigma, sigma0, g):
            gain = make_gain(family, g * 100.0, g * sigma)
            return simulate_ensemble(make_poisson(5.0), 0.5, gain, DarkNoiseModel(g * sigma0), 20_000, seed=36)

        for model in [("gaussian", 2.0, 10.0), ("gamma", 5.0, 10.0), ("gaussian", 0.0, 0.0)]:
            for g in (0.5, 2.0):
                assert np.array_equal(run(*model, g).samples, g * run(*model, 1.0).samples), (model, g)

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
        det = apply_bernoulli(src, eta)
        x = ens.samples
        se_mean = x.std(ddof=1) / math.sqrt(x.size)
        assert x.mean() == pytest.approx(det.mean_n * 100.0, abs=5 * se_mean)
        var_expected = 100.0**2 * det.central_moments[0] + det.mean_n * sigma**2 + sigma0**2
        se_var = block_jackknife_se(x, np.var, n_blocks=20)
        assert np.var(x) == pytest.approx(var_expected, abs=5 * se_var)

    def test_invalid_args(self):
        src = make_poisson(1.0)
        gain = make_gain("gaussian", 1.0, 0.0)
        for eta in (1.5, -0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParameterError, match=r"eta must lie in \[0, 1\]"):
                simulate_ensemble(src, eta, gain, DarkNoiseModel(0.0), 100, seed=1)
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
        with pytest.raises(InvalidParameterError, match="requires gaussian gain"):
            analytic_pv_gaussian(det, make_gain("gamma", 100.0, 5.0), DarkNoiseModel(5.0), [0.0])
        with pytest.raises(InvalidParameterError, match="zero-variance component"):
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
        cdf = analytic_pv_cdf_gaussian(apply_bernoulli(src, eta), gain, dark, x)
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
        bound = 5 * math.sqrt(math.log(2 / 0.001) / (2 * n))
        assert ks < bound


class TestCompoundSumSampler:
    """One gain draw per shot in the bright regime, against independent oracles."""

    def test_bright_gaussian_matches_mixture_cdf(self):
        # the gain term of the variance (5000 * 100^2) equals the photon
        # term (100^2 * 5000), so a wrong sum variance moves the CDF visibly
        gain = make_gain("gaussian", 100.0, 100.0)
        dark = DarkNoiseModel(10.0)
        n = 20_000
        src = make_poisson(1e4)
        ens = simulate_ensemble(src, 0.5, gain, dark, n, seed=42)
        x = np.sort(ens.samples)
        cdf = analytic_pv_cdf_gaussian(apply_bernoulli(src, 0.5), gain, dark, x)
        ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert ks < math.sqrt(math.log(2 / 0.001) / (2 * n))

    @pytest.mark.parametrize(
        "source,sigma",
        [(make_thermal(1000.0), 30.0), (make_poisson(1e4), 50.0)],
        ids=["thermal-1000", "poisson-1e4"],
    )
    def test_bright_gamma_central_moments(self, source, sigma):
        gain = make_gain("gamma", 100.0, sigma)
        dark = DarkNoiseModel(10.0)
        ens = simulate_ensemble(source, 0.5, gain, dark, 10**5, seed=43)
        exact = analytic_voltage_moments(apply_bernoulli(source, 0.5), gain, dark, 4)
        sampled = sample_moments(ens.samples, 4)
        for r in (2, 3, 4):
            se = block_jackknife_se(
                ens.samples, lambda v, r=r: np.mean((v - v.mean()) ** r), n_blocks=20
            )
            assert sampled.central_moment(r) == pytest.approx(exact.central_moment(r), abs=5 * se)

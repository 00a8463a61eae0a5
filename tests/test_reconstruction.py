import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linphot import (
    DarkNoiseModel,
    InvalidParameterError,
    VoltageEnsemble,
    apply_bernoulli,
    compare,
    expected_rebinned_pmf,
    make_fock,
    make_gain,
    make_poisson,
    rebin,
    sample_m,
    self_consistency_check,
    simulate_ensemble,
    subtract_offset,
    total_variation,
)
from linphot.reconstruction import MAX_REBIN_BINS
from linphot.streams import substream

GAIN = 100.0


def ensemble_from(samples, eta=0.5):
    samples = np.asarray(samples, dtype=float)
    return VoltageEnsemble(samples=samples, eta=eta, n_samples=samples.size, seed=0)


class TestSubtractOffset:
    def test_zero_is_identity(self):
        ens = ensemble_from([5.0, 6.0])
        assert subtract_offset(ens, 0.0) is ens

    def test_shift(self):
        ens = subtract_offset(ensemble_from([5.0, 6.0]), 5.0)
        assert ens.samples.tolist() == [0.0, 1.0]

    def test_simulated_offset_recovered(self):
        dark = DarkNoiseModel(sigma0=8.0)
        dark_only = simulate_ensemble(
            make_poisson(0.0), 1.0, make_gain("gaussian", GAIN, 2.0), dark, 50_000, seed=50
        )
        ens = ensemble_from(dark_only.samples + 12.3)
        measured = float(ens.samples.mean())
        assert measured == pytest.approx(12.3, abs=5 * 8.0 / math.sqrt(50_000))
        fixed = subtract_offset(ens, measured)
        assert fixed.samples.mean() == pytest.approx(0.0, abs=1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidParameterError):
            subtract_offset(ensemble_from([1.0]), float("nan"))


class TestRebin:
    def test_exact_multiples(self):
        ens = ensemble_from(np.full(100, 3 * GAIN))
        result = rebin(ens, GAIN)
        assert result.pmf_hat[3] == 1.0
        assert result.mean_m_hat == 3.0
        assert result.underflow_fraction == 0.0

    def test_nan_never_reaches_rebin(self):
        # a NaN used to be cast to INT64_MIN and counted as underflow
        with pytest.raises(InvalidParameterError, match="2 of 4 samples are not finite"):
            rebin(ensemble_from([np.nan, np.nan, GAIN, 2 * GAIN]), GAIN)

    def test_huge_voltage_raises_instead_of_wrapping_to_underflow(self):
        # the int64 cast used to wrap 1e300 to INT64_MIN: one m = 0 underflow
        with pytest.raises(InvalidParameterError, match=r"voltage 1e\+300 .*gamma_bar=100"):
            rebin(ensemble_from([0.0, 2 * GAIN, 1e300]), GAIN)

    def test_outlier_bin_is_bounded(self):
        # 1e10 V at gamma_bar 100 used to make bincount allocate 800 MB
        assert 1e10 / GAIN > MAX_REBIN_BINS
        with pytest.raises(InvalidParameterError, match=r"voltage 1e\+10 .*gamma_bar=100"):
            rebin(ensemble_from([0.0, GAIN, 1e10]), GAIN)

    def test_huge_negative_voltage_is_underflow(self):
        result = rebin(ensemble_from([-1e300, 0.0, GAIN]), GAIN)
        assert result.counts.tolist() == [2, 1]
        assert result.underflow_fraction == pytest.approx(1 / 3)

    def test_bin_edges_left_closed(self):
        ens = ensemble_from([-0.5, -0.51, 0.49, 0.5, 1.49])
        result = rebin(ens, 1.0)
        # [-0.5, 0.5) -> 0; -0.51 underflows; [0.5, 1.5) -> 1
        assert result.counts.tolist() == [3, 2]
        assert result.underflow_fraction == pytest.approx(0.2)

    def test_noiseless_chain_equals_latent_counts(self):
        src = make_poisson(30.0)
        eta = 0.6
        m = sample_m(src, eta, substream(51), size=200_000)
        ens = ensemble_from(m * GAIN, eta=eta)  # sigma = sigma0 = 0 voltages
        result = rebin(ens, GAIN)
        counts = np.bincount(m)
        assert np.array_equal(result.counts, counts)
        sim = simulate_ensemble(
            src, eta, make_gain("gaussian", GAIN, 0.0), DarkNoiseModel(0.0), 50_000, seed=52
        )
        assert np.all(sim.samples % GAIN == 0)

    def test_mass_conservation(self):
        rng = np.random.default_rng(53)
        ens = ensemble_from(rng.normal(200.0, 300.0, 10_000))
        result = rebin(ens, GAIN)
        assert result.counts.sum() == ens.n_samples
        assert result.pmf_hat.sum() == pytest.approx(1.0, abs=1e-12)

    def test_invalid_gamma(self):
        with pytest.raises(InvalidParameterError):
            rebin(ensemble_from([1.0]), 0.0)
        with pytest.raises(InvalidParameterError):
            rebin(ensemble_from([1.0]), -2.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.05, max_value=20.0))
    def test_scaling_covariance(self, g):
        rng = np.random.default_rng(54)
        base = rng.normal(500.0, 250.0, 5000)
        a = rebin(ensemble_from(base), GAIN)
        b = rebin(ensemble_from(base * g), GAIN * g)
        assert np.array_equal(a.counts, b.counts)
        assert a.underflow_fraction == b.underflow_fraction


class TestSelfConsistency:
    def test_exact_chain_zero_difference(self):
        src = make_poisson(30.0)
        m = sample_m(src, 0.5, substream(55), size=100_000)
        ens = ensemble_from(m * GAIN)
        result = rebin(ens, GAIN)
        report = self_consistency_check(
            result, float(ens.samples.mean()), se_mean_v=float(ens.samples.std() / 316.0)
        )
        assert report.difference == pytest.approx(0.0, abs=1e-12)
        assert report.passed

    def test_narrow_chain_small_difference(self):
        # bin width from the infinite-sample calibration intercept
        src = make_poisson(50.0)
        gain = make_gain("gaussian", GAIN, 2.0)
        dark = DarkNoiseModel(10.0)
        ens = simulate_ensemble(src, 0.5, gain, dark, 10**6, seed=56)
        gamma_est = GAIN * (1 + gain.sigma2 / GAIN**2)
        result = rebin(ens, gamma_est)
        mean_v = float(ens.samples.mean())
        se = float(ens.samples.std(ddof=1) / 1000.0)
        report = self_consistency_check(result, mean_v, se_mean_v=se)
        assert report.difference < 0.05
        assert report.passed

    def test_wide_gain_negative_control_fails(self):
        # sigma/gamma = 0.5 inflates the intercept by 25 percent; at low
        # photon numbers the misaligned bins shift the reconstructed mean
        src = make_fock(1)
        gain = make_gain("gaussian", GAIN, 0.5 * GAIN)
        dark = DarkNoiseModel(10.0)
        ens = simulate_ensemble(src, 0.9, gain, dark, 2 * 10**5, seed=57)
        gamma_est = GAIN * (1 + gain.sigma2 / GAIN**2)  # = 125
        result = rebin(ens, gamma_est)
        mean_v = float(ens.samples.mean())
        se = float(ens.samples.std(ddof=1) / math.sqrt(ens.n_samples))
        report = self_consistency_check(result, mean_v, se_mean_v=se)
        assert not report.passed


class TestCompare:
    def test_identical(self):
        det = apply_bernoulli(make_poisson(5.0), 0.5)
        counts = np.round(det.pmf * 10**6).astype(int)
        result = rebin(
            ensemble_from(np.repeat(np.arange(counts.size), counts) * GAIN), GAIN
        )
        metrics = compare(result, det)
        assert metrics.tv_distance == pytest.approx(0.0, abs=1e-4)
        assert metrics.fidelity == pytest.approx(1.0, abs=1e-4)

    def test_disjoint(self):
        det = apply_bernoulli(make_fock(5), 1.0)
        result = rebin(ensemble_from(np.zeros(100)), GAIN)
        metrics = compare(result, det)
        assert metrics.tv_distance == pytest.approx(1.0)
        assert metrics.fidelity == pytest.approx(0.0)

    def test_fock_binomial_reconstruction(self):
        src = make_fock(40)
        gain = make_gain("gaussian", GAIN, 2.0)
        dark = DarkNoiseModel(10.0)
        ens = simulate_ensemble(src, 0.6, gain, dark, 2 * 10**5, seed=58)
        result = rebin(ens, GAIN)
        metrics = compare(result, apply_bernoulli(src, 0.6))
        assert metrics.tv_distance < 0.02


def test_tv_distance_nondecreasing_in_gain_spread():
    src = make_poisson(20.0)
    eta = 0.5
    dark = DarkNoiseModel(0.1 * GAIN)
    det = apply_bernoulli(src, eta)
    # the exact misassignment bias rises along the whole chain
    exact = []
    for rel in [0.01, 0.05, 0.1, 0.2]:
        gain = make_gain("gaussian", GAIN, rel * GAIN)
        exact.append(total_variation(expected_rebinned_pmf(det, gain, dark, GAIN), det.pmf))
    assert exact == pytest.approx([4.36e-8, 2.31e-4, 3.40e-3, 1.178e-2], rel=1e-2)
    assert all(b > a for a, b in zip(exact, exact[1:]))
    # Monte Carlo only on the steps 20 x 10^5 shots resolve: the bias rise
    # 0.01 -> 0.05 (2.3e-4) is lost in the sampling TV of 10^5 shots
    spreads = [0.05, 0.1, 0.2]
    avg = []
    for rel in spreads:
        gain = make_gain("gaussian", GAIN, rel * GAIN)
        tvs = []
        for seed in range(20):  # common seeds across spreads
            ens = simulate_ensemble(src, eta, gain, dark, 10**5, seed=seed)
            tvs.append(compare(rebin(ens, GAIN), det).tv_distance)
        avg.append(np.mean(tvs))
    assert all(b >= a for a, b in zip(avg, avg[1:]))


class TestExpectedRebinnedPmf:
    def test_matches_detected_pmf_for_narrow_gain(self):
        det = apply_bernoulli(make_poisson(40.0), 0.5)
        gain = make_gain("gaussian", GAIN, 2.0)
        dark = DarkNoiseModel(10.0)
        pred = expected_rebinned_pmf(det, gain, dark, GAIN)
        size = max(pred.size, det.pmf.size)
        tv = 0.5 * np.abs(
            np.pad(pred, (0, size - pred.size)) - np.pad(det.pmf, (0, size - det.pmf.size))
        ).sum()
        assert tv < 1e-3

    def test_predicts_empirical_rebinning(self):
        det_src = make_poisson(20.0)
        gain = make_gain("gaussian", GAIN, 20.0)
        dark = DarkNoiseModel(10.0)
        ens = simulate_ensemble(det_src, 0.5, gain, dark, 2 * 10**5, seed=59)
        pred = expected_rebinned_pmf(apply_bernoulli(det_src, 0.5), gain, dark, GAIN)
        got = rebin(ens, GAIN).pmf_hat
        size = max(pred.size, got.size)
        tv = 0.5 * np.abs(
            np.pad(pred, (0, size - pred.size)) - np.pad(got, (0, size - got.size))
        ).sum()
        assert tv < 0.01  # sampling noise only

    def test_requires_gaussian_noise(self):
        det = apply_bernoulli(make_poisson(5.0), 0.5)
        with pytest.raises(InvalidParameterError, match="requires gaussian gain"):
            expected_rebinned_pmf(det, make_gain("gamma", GAIN, 5.0), DarkNoiseModel(1.0), GAIN)
        with pytest.raises(InvalidParameterError, match="zero-variance component"):
            expected_rebinned_pmf(det, make_gain("gaussian", GAIN, 5.0), DarkNoiseModel(0.0), GAIN)

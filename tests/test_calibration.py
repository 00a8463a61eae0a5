import math

import numpy as np
import pytest

from linphot import (
    DarkNoiseModel,
    EtaSeriesPoint,
    InsufficientDesignError,
    InvalidParameterError,
    SingularFitError,
    analytic_voltage_moments,
    apply_bernoulli,
    eta_point_from_samples,
    fit_fano_line,
    gain_scaling_check,
    make_fock,
    make_gain,
    make_poisson,
    make_thermal,
    mean_constancy_check,
    run_eta_series,
    simulate_ensemble,
)
from linphot.moments import _SUM_BLOCK
from oracles import default_eta_series, fsum_eta_point

GAIN = 100.0


def synthetic_points(slope, intercept, xs, se=1.0):
    return [
        EtaSeriesPoint(
            eta=0.1 * (i + 1),
            mean_v=x,
            fano_v=intercept + slope * x,
            se_mean_v=1.0,
            se_fano_v=se,
            n_samples=1000,
        )
        for i, x in enumerate(xs)
    ]


class TestEtaPoint:
    def test_hand_statistics(self):
        point = eta_point_from_samples(0.5, [100.0, 200.0, 300.0], dark_variance=0.0)
        assert point.mean_v == pytest.approx(200.0)
        # mu2 = (100^2 + 0 + 100^2)/3
        assert point.fano_v == pytest.approx((20000.0 / 3) / 200.0)
        assert point.se_mean_v == pytest.approx(math.sqrt(20000.0 / 3 / 3))
        # d = (-100, 0, 100) and F = 100/3 give d (d - F) = (40000/3, 0, 20000/3),
        # whose plug-in sd (20000/3) sqrt(2/3) over 200 sqrt(3) is 100 sqrt(2) / 9
        assert point.se_fano_v == pytest.approx(100.0 * math.sqrt(2.0) / 9.0, rel=1e-12)

    def test_dark_subtraction(self):
        rng = np.random.default_rng(41)
        x = rng.normal(50.0, 3.0, 20000)
        point = eta_point_from_samples(0.2, x, dark_variance=4.0)
        assert point.fano_v == pytest.approx((np.var(x) - 4.0) / x.mean(), rel=1e-9)
        assert point.se_fano_v > 0

    def test_too_few_samples(self):
        with pytest.raises(InvalidParameterError):
            eta_point_from_samples(0.1, [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_raise(self, bad):
        # a raw array with NaN used to give an all-NaN point
        with pytest.raises(InvalidParameterError, match="finite"):
            eta_point_from_samples(0.5, [100.0, bad, 300.0])


def exact_se_fano(source, eta, gain, dark, n):
    """The delta-method SE of fano_v from the exact voltage moments."""
    mset = analytic_voltage_moments(apply_bernoulli(source, eta), gain, dark, order=4)
    mu2, mu3, mu4 = (mset.central_moment(r) for r in (2, 3, 4))
    fano = (mu2 - dark.sigma0**2) / mset.mean
    return math.sqrt((mu4 - mu2**2 - 2 * fano * mu3 + fano**2 * mu2) / n) / abs(mset.mean)


class TestFanoStandardError:
    # ``scatter`` is the between-seed relative sd of se_fano_v (300 seeds)
    @pytest.mark.parametrize("eta", [0.05, 0.5])
    @pytest.mark.parametrize(
        "source,gain,n,scatter",
        [
            (make_poisson(100.0), make_gain("gaussian", GAIN, 2.0), 3 * 10**4, 0.013),
            (make_thermal(100.0), make_gain("gamma", GAIN, 5.0), 10**4, 0.084),
        ],
        ids=["poisson", "thermal"],
    )
    def test_matches_exact_moments(self, source, gain, n, scatter, eta):
        dark = DarkNoiseModel(10.0)
        ens = simulate_ensemble(source, eta, gain, dark, n, seed=31)
        point = eta_point_from_samples(eta, ens.samples, dark_variance=dark.sigma0**2)
        exact = exact_se_fano(source, eta, gain, dark, n)
        assert point.se_fano_v == pytest.approx(exact, rel=5 * scatter)

    def test_covers_the_spread_of_fano_v(self):
        src = make_poisson(100.0)
        gain = make_gain("gaussian", GAIN, 2.0)
        dark = DarkNoiseModel(10.0)
        points = [
            eta_point_from_samples(
                0.5, simulate_ensemble(src, 0.5, gain, dark, 10**4, seed).samples, 100.0
            )
            for seed in range(200)
        ]
        empirical = np.std([p.fano_v for p in points], ddof=1)
        mean_se = np.mean([p.se_fano_v for p in points])
        # 200 ensembles give the sd to about 6%, so 0.25 is 4 of its SEs
        assert empirical / mean_se == pytest.approx(1.0, abs=0.25)


class TestFitFanoLine:
    def test_exact_line_recovered(self):
        pts = synthetic_points(0.3, 7.0, [10.0, 25.0, 40.0, 80.0])
        fit = fit_fano_line(pts)
        assert fit.slope == pytest.approx(0.3, abs=1e-12)
        assert fit.intercept == pytest.approx(7.0, abs=1e-12)
        assert fit.chi2_dof == pytest.approx(0.0, abs=1e-12)
        assert fit.valid

    def test_weighting_prefers_precise_points(self):
        pts = synthetic_points(0.0, 10.0, [10.0, 20.0, 30.0])
        noisy = EtaSeriesPoint(0.9, 40.0, 500.0, 1.0, 1e9, 1000)
        fit = fit_fano_line(list(pts) + [noisy])
        assert fit.intercept == pytest.approx(10.0, abs=1e-6)

    def test_negative_intercept_flagged_not_clamped(self):
        pts = synthetic_points(1.0, -5.0, [10.0, 20.0, 30.0])
        fit = fit_fano_line(pts)
        assert not fit.valid
        assert fit.intercept == pytest.approx(-5.0, abs=1e-10)

    def test_spread_correction(self):
        pts = synthetic_points(0.0, 101.0, [10.0, 20.0, 30.0])
        fit = fit_fano_line(pts, sigma2_rel=0.01)
        assert fit.gamma_bar_corrected == pytest.approx(101.0 / 1.01, rel=1e-12)

    def test_errors(self):
        pts = synthetic_points(0.3, 7.0, [10.0, 25.0, 40.0])
        with pytest.raises(InsufficientDesignError):
            fit_fano_line(pts[:2])
        degenerate = synthetic_points(0.0, 7.0, [10.0, 10.0, 10.0])
        with pytest.raises(SingularFitError):
            fit_fano_line(degenerate)
        bad_se = synthetic_points(0.3, 7.0, [10.0, 25.0, 40.0], se=0.0)
        with pytest.raises(InvalidParameterError):
            fit_fano_line(bad_se)


class TestRunEtaSeries:
    def test_preconditions(self):
        src = make_poisson(10.0)
        gain = make_gain("gaussian", GAIN, 2.0)
        dark = DarkNoiseModel(10.0)
        with pytest.raises(InsufficientDesignError):
            run_eta_series(src, gain, dark, [0.5, 0.5, 0.5], 10**4, seed=1)
        with pytest.raises(InvalidParameterError):
            run_eta_series(src, gain, dark, [0.1, 0.5, 1.5], 10**4, seed=1)
        with pytest.raises(InvalidParameterError):
            run_eta_series(src, gain, dark, [0.1, 0.3, 0.5], 100, seed=1)

    def test_coherent_fano_flat(self):
        src = make_poisson(100.0)
        pts = run_eta_series(
            src, make_gain("gaussian", GAIN, 2.0), DarkNoiseModel(10.0),
            [0.1, 0.2, 0.3, 0.4, 0.5], 2 * 10**4, seed=2,
        )
        fit = fit_fano_line(pts)
        assert abs(fit.slope) < 3 * fit.slope_se

    def test_thermal_mean_doubles_with_eta(self):
        src = make_thermal(50.0)
        pts = run_eta_series(
            src, make_gain("gaussian", GAIN, 2.0), DarkNoiseModel(10.0),
            [0.2, 0.4, 0.6], 5 * 10**4, seed=3,
        )
        ratio = pts[1].mean_v / pts[0].mean_v
        se = ratio * math.sqrt(
            (pts[1].se_mean_v / pts[1].mean_v) ** 2 + (pts[0].se_mean_v / pts[0].mean_v) ** 2
        )
        assert ratio == pytest.approx(2.0, abs=5 * se)

    def test_fock_noiseless_fano_line(self):
        src = make_fock(10)
        pts = run_eta_series(
            src, make_gain("gaussian", GAIN, 0.0), DarkNoiseModel(0.0),
            [0.2, 0.5, 0.8], 5 * 10**4, seed=4,
        )
        for p in pts:
            assert p.fano_v == pytest.approx(GAIN * (1 - p.eta), abs=5 * p.se_fano_v)


class TestSlopeSign:
    @pytest.mark.parametrize(
        "source,sign",
        [(make_poisson(100.0), 0), (make_thermal(50.0), 1), (make_fock(50), -1)],
        ids=["coherent", "thermal", "fock"],
    )
    def test_mandel_classification(self, source, sign):
        pts = run_eta_series(
            source, make_gain("gaussian", GAIN, 2.0), DarkNoiseModel(10.0),
            default_eta_series(0.5, 6), 2 * 10**4, seed=5,
        )
        fit = fit_fano_line(pts)
        z = fit.slope / fit.slope_se
        if sign == 0:
            assert abs(z) < 3
        elif sign > 0:
            assert z > 3
        else:
            assert z < -3


def test_intercept_invariant_under_eta_subrange():
    src = make_poisson(100.0)
    pts = run_eta_series(
        src, make_gain("gaussian", GAIN, 2.0), DarkNoiseModel(10.0),
        default_eta_series(0.5, 10), 2 * 10**4, seed=6,
    )
    full = fit_fano_line(pts)
    for sub in (pts[:6], pts[4:]):
        part = fit_fano_line(sub)
        combined = math.sqrt(full.intercept_se**2 + part.intercept_se**2)
        assert abs(part.intercept - full.intercept) < 3 * combined


def test_intercept_bias_and_correction():
    sigma_rel = 0.1  # inflation (1 + 0.01)
    src = make_poisson(100.0)
    pts = run_eta_series(
        src, make_gain("gaussian", GAIN, sigma_rel * GAIN), DarkNoiseModel(10.0),
        default_eta_series(0.5, 10), 10**5, seed=7,
    )
    fit = fit_fano_line(pts, sigma2_rel=sigma_rel**2)
    assert fit.intercept == pytest.approx(GAIN * 1.01, abs=3 * fit.intercept_se)
    assert fit.gamma_bar_corrected == pytest.approx(GAIN, abs=3 * fit.intercept_se)


class TestMeanConstancy:
    def test_clean_chain_passes(self):
        src = make_poisson(100.0)
        etas = default_eta_series(0.5, 6)
        pts = run_eta_series(
            src, make_gain("gaussian", GAIN, 2.0), DarkNoiseModel(10.0),
            etas, 2 * 10**4, seed=8,
        )
        fit = fit_fano_line(pts, sigma2_rel=4e-4)
        report = mean_constancy_check(
            pts, fit.intercept, [e * 100.0 for e in etas], sigma2_rel=4e-4
        )
        assert report.passed
        for row in report.rows:
            assert 99.0 < row.ratio < 101.0

    def test_saturating_detector_fails(self):
        src = make_poisson(100.0)
        gain = make_gain("gaussian", GAIN, 2.0)
        dark = DarkNoiseModel(10.0)
        etas = default_eta_series(0.5, 6)
        vmax = 3000.0
        pts = []
        for i, eta in enumerate(etas):
            ens = simulate_ensemble(src, eta, gain, dark, 2 * 10**4, seed=9, stream_key=(9, i))
            clipped = vmax * np.tanh(ens.samples / vmax)  # nonlinear response
            pts.append(eta_point_from_samples(eta, clipped, dark_variance=100.0))
        report = mean_constancy_check(pts, GAIN, [e * 100.0 for e in etas])
        assert not report.passed

    def test_reference_length_mismatch(self):
        pts = synthetic_points(0.0, 10.0, [10.0, 20.0, 30.0])
        with pytest.raises(InvalidParameterError):
            mean_constancy_check(pts, 10.0, [1.0, 2.0])


class TestGainScaling:
    def test_unity_factor_exact_and_doubling_within_se(self):
        src = make_poisson(60.0)
        gain = make_gain("gaussian", GAIN, 2.0)
        dark = DarkNoiseModel(10.0)
        etas = default_eta_series(0.5, 5)
        baseline = fit_fano_line(run_eta_series(src, gain, dark, etas, 2 * 10**4, seed=10))
        report = gain_scaling_check(
            src, gain, dark, etas, [1.0, 2.0], 2 * 10**4, seed=10, baseline=baseline,
        )
        row1, row2 = report.rows
        assert report.baseline_intercept == baseline.intercept
        assert report.baseline_intercept_se == baseline.intercept_se
        assert row1.ratio == 1.0 and row1.passed
        assert row2.passed and abs(row2.ratio - 2.0) <= 3 * row2.ratio_se
        assert all(c.passed for c in report.mean_constancy)

    def test_invalid_factor(self):
        with pytest.raises(InvalidParameterError):
            gain_scaling_check(
                make_poisson(10.0), make_gain("gaussian", GAIN, 2.0), DarkNoiseModel(10.0),
                [0.1, 0.3, 0.5], [0.0], 10**4, seed=11,
                baseline=fit_fano_line(synthetic_points(0.0, 10.0, [10.0, 20.0, 30.0])),
            )

    def test_baseline_must_be_valid_and_match_the_sweep(self):
        args = (make_poisson(10.0), make_gain("gaussian", GAIN, 2.0), DarkNoiseModel(10.0))
        etas = [p.eta for p in synthetic_points(0.0, 10.0, [10.0, 20.0, 30.0])]
        negative = fit_fano_line(synthetic_points(0.0, -10.0, [10.0, 20.0, 30.0]))
        with pytest.raises(InvalidParameterError, match="invalid"):
            gain_scaling_check(*args, etas, [2.0], 10**4, seed=12, baseline=negative)
        valid = fit_fano_line(synthetic_points(0.0, 10.0, [10.0, 20.0, 30.0]))
        with pytest.raises(InvalidParameterError, match="efficiencies"):
            gain_scaling_check(*args, [0.1, 0.3, 0.5], [2.0], 10**4, seed=12, baseline=valid)


def test_eta_point_is_the_fsum_point_over_three_blocks():
    gain, dark = make_gain("gaussian", GAIN, 5.0), DarkNoiseModel(10.0)
    ens = simulate_ensemble(make_poisson(2000.0), 0.5, gain, dark, 3 * _SUM_BLOCK + 17, 7)
    assert eta_point_from_samples(0.5, ens.samples, 100.0) == fsum_eta_point(0.5, ens.samples, 100.0)

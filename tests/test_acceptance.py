"""Acceptance suite: one test per release criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion.
"""

import contextlib
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from linphot import (
    DarkNoiseModel,
    analytic_voltage_moments,
    apply_bernoulli,
    compare,
    expected_rebinned_pmf,
    fit_fano_line,
    gain_scaling_check,
    make_fock,
    make_gain,
    make_multimode_thermal,
    make_poisson,
    make_thermal,
    rebin,
    run_experiment,
    run_eta_series,
    sample_moments,
    self_consistency_check,
    simulate_ensemble,
)
from linphot.config import from_dict
from linphot.moments import cumulants_from_raw, raw_moments_from_cumulants
from oracles import CumulantSet, block_jackknife_se, detected_fano, moments_from_cumulants

GAIN = 100.0
REFERENCE_ETAS = list(np.linspace(0.05, 0.5, 10))


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {name}")
        raise
    print(f"[PASS] criterion {num}: {name}")


def pad_tv(a, b):
    size = max(a.size, b.size)
    return 0.5 * float(
        np.abs(np.pad(a, (0, size - a.size)) - np.pad(b, (0, size - b.size))).sum()
    )


def test_criterion_1_moment_cumulant_algebra():
    with criterion(1, "moment-cumulant algebra reproduces the order-5 polynomials"):
        # symbolic: the recursion must reproduce the five expansions exactly
        k1, k2, k3, k4, k5 = sympy.symbols("k1:6")
        raw = raw_moments_from_cumulants([k1, k2, k3, k4, k5])
        printed = [
            k1,
            k2 + k1**2,
            k3 + 3 * k2 * k1 + k1**3,
            k4 + 4 * k3 * k1 + 3 * k2**2 + 6 * k2 * k1**2 + k1**4,
            k5
            + 5 * k4 * k1
            + 10 * k3 * k2
            + 10 * k3 * k1**2
            + 15 * k2**2 * k1
            + 10 * k2 * k1**3
            + k1**5,
        ]
        for got, want in zip(raw, printed):
            assert sympy.expand(got - want) == 0

        # exact integer coefficients on random rational inputs
        rng = np.random.default_rng(101)
        for _ in range(50):
            kappa = [Fraction(int(rng.integers(-20, 20)), int(rng.integers(1, 7))) for _ in range(5)]
            raws = raw_moments_from_cumulants(kappa)
            subs = dict(zip([k1, k2, k3, k4, k5], kappa))
            for got, want in zip(raws, printed):
                assert got == Fraction(str(want.subs(subs)))
            assert cumulants_from_raw(raws) == kappa

        # numeric: gamma / poisson / gaussian analytic moments at 1e-10
        shape, theta = 4.0, 1.5
        gamma_kappa = [shape * theta**r * math.factorial(r - 1) for r in range(1, 6)]
        mset = moments_from_cumulants(CumulantSet.from_kappa(gamma_kappa))
        for j in range(1, 6):
            analytic = theta**j * math.prod(shape + i for i in range(j))
            assert mset.raw_moment(j) == pytest.approx(analytic, rel=1e-10)

        lam = 2.0
        mset = moments_from_cumulants(CumulantSet.from_kappa([lam] * 5))
        n = np.arange(0, 80)
        pmf = np.exp(-lam) * lam**n / np.array([math.factorial(int(v)) for v in n])
        for j in range(1, 6):
            assert mset.raw_moment(j) == pytest.approx(float(np.sum(n**j * pmf)), rel=1e-10)

        mu, s2 = 0.7, 1.9
        mset = moments_from_cumulants(CumulantSet.from_kappa([mu, s2, 0, 0, 0]))
        gauss_raw = [
            mu,
            mu**2 + s2,
            mu**3 + 3 * mu * s2,
            mu**4 + 6 * mu**2 * s2 + 3 * s2**2,
            mu**5 + 10 * mu**3 * s2 + 15 * mu * s2**2,
        ]
        for j in range(1, 6):
            assert mset.raw_moment(j) == pytest.approx(gauss_raw[j - 1], rel=1e-10)


def test_criterion_2_loss_channel_suite():
    with criterion(2, "loss channel satisfies the mean and fano identities plus closures"):
        sources = [
            make_poisson(8.0),
            make_thermal(6.0),
            make_multimode_thermal(12.0, 4),
            make_fock(9),
        ]
        for src in sources:
            for eta in (0.05, 0.2, 0.4, 0.6, 0.8, 1.0):
                det = apply_bernoulli(src, eta)
                assert det.mean_m == pytest.approx(eta * src.mean_n, rel=1e-9)
                expected = eta * src.mandel_q + 1.0
                if expected == 0.0:
                    assert det.central_moments[0] == pytest.approx(0.0, abs=1e-10)
                else:
                    assert detected_fano(det) == pytest.approx(expected, rel=1e-9)

        for thinned, ref in [
            (apply_bernoulli(make_poisson(50.0), 0.2), make_poisson(10.0)),
            (apply_bernoulli(make_thermal(10.0), 0.3), make_thermal(3.0)),
        ]:
            size = max(thinned.pmf.size, ref.pmf.size)
            gap = np.abs(
                np.pad(thinned.pmf, (0, size - thinned.pmf.size))
                - np.pad(ref.pmf, (0, size - ref.pmf.size))
            )
            assert np.max(gap) < 1e-10  # per-entry closure


def test_criterion_3_exact_moment_oracle():
    with criterion(3, "voltage-moment engine matches the r=2,3 identities and Monte Carlo"):
        det = apply_bernoulli(make_poisson(100.0), 0.25)
        fano_m = detected_fano(det)
        mu3_m = det.central_moments[1]
        dark0 = DarkNoiseModel(0.0)
        for family in ("gaussian", "gamma"):
            gain = make_gain(family, GAIN, 2.0)
            mset = analytic_voltage_moments(det, gain, dark0, 3)
            lhs2 = mset.central_moment(2) / mset.mean
            rhs2 = GAIN * (fano_m + gain.sigma2 / GAIN**2)
            assert abs(lhs2 - rhs2) / abs(rhs2) < 1e-10
            lhs3 = mset.central_moment(3) / mset.mean
            rhs3 = GAIN**2 * (
                mu3_m / det.mean_m
                + 3 * fano_m * gain.sigma2 / GAIN**2
                + gain.central_moments[1] / GAIN**3
            )
            assert abs(lhs3 - rhs3) / abs(rhs3) < 1e-10

        # Monte Carlo agreement for r <= 4 at N = 1e6, within 5 jackknife SE
        gain = make_gain("gaussian", GAIN, 2.0)
        dark = DarkNoiseModel(10.0)
        ens = simulate_ensemble(make_poisson(100.0), 0.25, gain, dark, 10**6, seed=301)
        exact = analytic_voltage_moments(det, gain, dark, 4)
        sampled = sample_moments(ens.samples, 4)
        se_mean = float(ens.samples.std(ddof=1)) / 1000.0
        assert sampled.mean == pytest.approx(exact.mean, abs=5 * se_mean)
        for r in (2, 3, 4):
            se = block_jackknife_se(
                ens.samples, lambda x, r=r: np.mean((x - x.mean()) ** r), n_blocks=20
            )
            assert sampled.central_moment(r) == pytest.approx(
                exact.central_moment(r), abs=5 * se
            )


def test_criterion_4_narrow_gain_scaling_law():
    with criterion(4, "scaling-law deviation equals the gain-spread ratio (4e-4 coherent)"):
        det = apply_bernoulli(make_poisson(100.0), 0.25)
        gain = make_gain("gaussian", GAIN, 0.02 * GAIN)
        dark0 = DarkNoiseModel(0.0)
        fano_m = detected_fano(det)
        exact = analytic_voltage_moments(det, gain, dark0, 2)
        # the narrow approximation: the same map with a point-mass gain
        approx = analytic_voltage_moments(det, make_gain("gaussian", GAIN, 0.0), dark0, 2)
        gap = abs(
            exact.central_moment(2) / exact.mean - approx.central_moment(2) / approx.mean
        ) / (approx.central_moment(2) / approx.mean)
        predicted = (gain.sigma2 / GAIN**2) / fano_m
        assert abs(gap - predicted) / predicted < 1e-10
        assert predicted == pytest.approx(4e-4, rel=1e-6)

        # Monte Carlo confirmation within 5 SE
        ens = simulate_ensemble(make_poisson(100.0), 0.25, gain, dark0, 10**6, seed=401)
        fano_stat = lambda x: np.mean((x - x.mean()) ** 2) / x.mean()
        sample_fano = float(fano_stat(ens.samples))
        se = block_jackknife_se(ens.samples, fano_stat, n_blocks=20)
        assert sample_fano == pytest.approx(
            exact.central_moment(2) / exact.mean, abs=5 * se
        )


def test_criterion_5_calibration_reference_runs():
    with criterion(5, "fano-line fit recovers intercept and slope on the reference runs"):
        gain = make_gain("gaussian", GAIN, 2.0)
        dark = DarkNoiseModel(10.0)
        sigma2_rel = gain.sigma2 / GAIN**2

        coherent = run_eta_series(
            make_poisson(100.0), gain, dark, REFERENCE_ETAS, 10**5, seed=501
        )
        fit = fit_fano_line(coherent, sigma2_rel=sigma2_rel)
        target = GAIN * (1 + sigma2_rel)
        assert abs(fit.intercept - target) <= 3 * fit.intercept_se
        assert abs(fit.slope) <= 3 * fit.slope_se
        print(
            f"  coherent: intercept {fit.intercept:.4f} +- {fit.intercept_se:.4f} "
            f"(target {target:.4f}), slope {fit.slope:.2e} +- {fit.slope_se:.2e}"
        )

        thermal = run_eta_series(
            make_thermal(50.0), gain, dark, REFERENCE_ETAS, 10**5, seed=502
        )
        tfit = fit_fano_line(thermal, sigma2_rel=sigma2_rel)
        assert abs(tfit.slope - 1.0) <= 3 * tfit.slope_se  # Q/<n> = 50/50
        print(f"  thermal: slope {tfit.slope:.5f} +- {tfit.slope_se:.5f} (target 1)")


def test_criterion_6_gain_scaling_and_mean_constancy():
    with criterion(6, "intercept scales with known output gain; mean stays constant"):
        gain = make_gain("gaussian", GAIN, 2.0)
        dark = DarkNoiseModel(10.0)
        baseline = fit_fano_line(
            run_eta_series(make_poisson(100.0), gain, dark, REFERENCE_ETAS, 10**5, seed=601),
            sigma2_rel=gain.sigma2 / GAIN**2,
        )
        report = gain_scaling_check(
            make_poisson(100.0),
            gain,
            dark,
            REFERENCE_ETAS,
            [0.5, 2.0],
            10**5,
            seed=601,
            baseline=baseline,
        )
        for row in report.rows:
            assert row.passed, f"factor {row.factor}: ratio {row.ratio} +- {row.ratio_se}"
            print(
                f"  factor {row.factor:g}: intercept ratio {row.ratio:.5f} "
                f"+- {row.ratio_se:.5f}"
            )
        for mc in report.mean_constancy:
            assert mc.passed
            assert all(row.passed for row in mc.rows)
        assert report.passed


def test_criterion_7_reconstruction():
    with criterion(7, "rebinning reconstructs P_m (narrow gain) and flags wide gain"):
        gain = make_gain("gaussian", GAIN, 2.0)
        dark = DarkNoiseModel(10.0)
        cases = [
            ("coherent", make_poisson(50.0), 0.5),
            ("thermal", make_thermal(50.0), 0.3),
            ("fock", make_fock(40), 0.6),
        ]
        for i, (name, src, eta) in enumerate(cases):
            ens = simulate_ensemble(src, eta, gain, dark, 10**6, seed=701 + i)
            result = rebin(ens, GAIN)
            det = apply_bernoulli(src, eta)
            metrics = compare(result, det)
            # pilot oracle: misassignment alone must sit far below the budget
            pilot = pad_tv(expected_rebinned_pmf(det, gain, dark, GAIN), det.pmf)
            assert pilot < 0.01
            assert metrics.tv_distance < 0.02
            print(
                f"  {name}: TV {metrics.tv_distance:.5f} "
                f"(misassignment floor {pilot:.2e}), fidelity {metrics.fidelity:.5f}"
            )

        # exact-gain fixture: bitwise count equality
        exact_gain = make_gain("gaussian", GAIN, 0.0)
        ens = simulate_ensemble(
            make_poisson(50.0), 0.5, exact_gain, DarkNoiseModel(0.0), 10**5, seed=710
        )
        latent = np.rint(ens.samples / GAIN).astype(int)
        assert np.all(ens.samples == latent * GAIN)
        result = rebin(ens, GAIN)
        assert np.array_equal(result.counts, np.bincount(latent))

        # negative control: sigma/gamma = 0.5 through the blind protocol
        wide = make_gain("gaussian", GAIN, 0.5 * GAIN)
        src = make_fock(1)
        etas = list(np.linspace(0.09, 0.9, 10))
        points = run_eta_series(src, wide, dark, etas, 10**5, seed=720)
        fit = fit_fano_line(points)
        assert fit.valid
        ens = simulate_ensemble(src, 0.9, wide, dark, 10**6, seed=721)
        result = rebin(ens, fit.intercept)
        mean_v = float(ens.samples.mean())
        se_mean_v = float(ens.samples.std(ddof=1) / 1000.0)
        verdict = self_consistency_check(result, mean_v, se_mean_v=se_mean_v)
        assert not verdict.passed, verdict
        print(
            f"  wide-gain control: intercept {fit.intercept:.2f} "
            f"(true gain {GAIN:g}), |diff| {verdict.difference:.4f} "
            f"> tol {verdict.tolerance:.4f} -> flagged"
        )

        # the same chain with a narrow gain passes the check
        narrow = make_gain("gaussian", GAIN, 0.02 * GAIN)
        ens = simulate_ensemble(src, 0.9, narrow, dark, 10**6, seed=722)
        result = rebin(ens, GAIN * (1 + narrow.sigma2 / GAIN**2))
        verdict = self_consistency_check(
            result,
            float(ens.samples.mean()),
            se_mean_v=float(ens.samples.std(ddof=1) / 1000.0),
        )
        assert verdict.passed


def test_criterion_8_determinism():
    with criterion(8, "fixed config and seed reproduce byte-identical artifacts"):
        raw = {
            "schema_version": 1,
            "source": {"kind": "thermal", "mean": 15.0},
            "gain": {"family": "gaussian", "gamma_bar": 100.0, "sigma": 2.0},
            "dark": {"sigma0": 10.0},
            "eta_series": [0.1, 0.3, 0.5],
            "n_samples": 10_000,
            "seed": 801,
        }
        import tempfile
        from pathlib import Path

        config = from_dict(raw)
        with tempfile.TemporaryDirectory() as td:
            a = run_experiment(config, Path(td) / "a")
            b = run_experiment(config, Path(td) / "b")
            for name, path in a.files.items():
                assert path.read_bytes() == b.files[name].read_bytes(), name

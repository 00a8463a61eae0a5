"""Self-calibration of the mean conversion factor.

The variance-to-mean ratio of the voltages, corrected for the known (or
separately measured) baseline variance, is linear in the mean voltage when
the detection efficiency is swept.  A weighted straight-line fit of that
ratio against the mean voltage estimates the mean single-photon response
from the intercept and the normalized photon-number excess noise from the
slope; each point's weight is the delta-method standard error of its ratio.
Two consistency checks accompany the fit: the intercept must scale by g
when an output gain g multiplies every voltage, and the mean voltage per
detected photon must be constant across the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import DarkNoiseModel, GainModel, make_gain, simulate_ensemble
from .errors import (
    InsufficientDesignError,
    InvalidParameterError,
    SingularFitError,
)
from .moments import exact_sum
from .sources import PhotonNumberDistribution
from .streams import ETA_SERIES, GAIN_SCALING

MIN_ETA_POINTS = 3
MIN_SAMPLES_PER_POINT = 10_000


@dataclass(frozen=True)
class EtaSeriesPoint:
    """Summary statistics of one ensemble in the efficiency sweep."""

    eta: float
    mean_v: float
    fano_v: float
    se_mean_v: float
    se_fano_v: float
    n_samples: int


@dataclass(frozen=True)
class CalibrationFit:
    """Weighted straight-line fit of fano_v against mean_v.

    ``intercept`` is the raw gamma_bar estimate; when the true relative gain
    variance is supplied, ``gamma_bar_corrected`` removes the known
    intercept inflation.  ``chi2_dof`` is near 1 when the weights are right.
    """

    slope: float
    intercept: float
    slope_se: float
    intercept_se: float
    chi2_dof: float
    points: tuple
    valid: bool
    gamma_bar_corrected: float | None = None


@dataclass(frozen=True)
class MeanConstancyRow:
    eta: float
    ratio: float
    se_ratio: float
    z_vs_pooled: float
    z_vs_gamma: float
    passed: bool


@dataclass(frozen=True)
class MeanConstancyReport:
    """Constancy of mean_v / <m> across the sweep, compared to the intercept."""

    rows: tuple
    pooled_ratio: float
    passed: bool


@dataclass(frozen=True)
class GainScalingRow:
    factor: float
    intercept: float
    intercept_se: float
    ratio: float
    ratio_se: float
    z: float
    passed: bool


@dataclass(frozen=True)
class GainScalingReport:
    """Intercepts measured under known output-gain factors, vs the baseline."""

    baseline_intercept: float
    baseline_intercept_se: float
    rows: tuple
    mean_constancy: tuple
    passed: bool


def eta_point_from_samples(
    eta: float,
    samples,
    dark_variance: float = 0.0,
) -> EtaSeriesPoint:
    """Reduce one voltage ensemble to its sweep-point statistics.

    The known (or separately measured) baseline variance D is subtracted
    before the ratio F = (mu2 - D) / mean is formed.  Its delta-method
    standard error is sd(d (d - F)) / (|mean| sqrt(n)) with d = x - mean,
    i.e. sqrt((mu4 - mu2^2 - 2 F mu3 + F^2 mu2) / n) / |mean|; being only a
    fit weight, it takes numpy's own sum where mean and mu2 are correctly
    rounded (``moments.exact_sum``).
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise InvalidParameterError("need at least 2 samples per point")
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError("samples must be finite (found NaN or inf)")
    n = x.size
    mean = exact_sum(x) / n
    d = x - mean
    mu2 = exact_sum(d**2) / n
    fano = (mu2 - dark_variance) / mean
    se_mean = math.sqrt(mu2 / n)
    se_fano = float(np.std(d * (d - fano))) / (abs(mean) * math.sqrt(n))
    return EtaSeriesPoint(
        eta=float(eta),
        mean_v=mean,
        fano_v=fano,
        se_mean_v=se_mean,
        se_fano_v=se_fano,
        n_samples=n,
    )


def _check_eta_list(eta_list) -> list[float]:
    etas = [float(e) for e in eta_list]
    if len(set(etas)) < MIN_ETA_POINTS:
        raise InsufficientDesignError(
            f"need at least {MIN_ETA_POINTS} distinct eta values, got {len(set(etas))}"
        )
    for i, e in enumerate(etas):
        if not (0.0 < e <= 1.0):
            raise InvalidParameterError(f"eta_list[{i}]: must be in (0, 1], got {e}")
    return etas


def iter_eta_series(
    source: PhotonNumberDistribution,
    gain: GainModel,
    dark: DarkNoiseModel,
    eta_list,
    n_samples: int,
    seed: int,
    *,
    stream_tag: tuple = (ETA_SERIES,),
):
    """Yield (point, ensemble) pairs for each efficiency in the sweep, unchecked."""
    dark_var = dark.sigma0**2
    for i, eta in enumerate(eta_list):
        ens = simulate_ensemble(
            source,
            eta,
            gain,
            dark,
            n_samples,
            seed,
            stream_key=tuple(stream_tag) + (i,),
        )
        yield eta_point_from_samples(eta, ens.samples, dark_variance=dark_var), ens


def run_eta_series(
    source: PhotonNumberDistribution,
    gain: GainModel,
    dark: DarkNoiseModel,
    eta_list,
    n_samples: int,
    seed: int,
    *,
    stream_tag: tuple = (ETA_SERIES,),
) -> list[EtaSeriesPoint]:
    """Check the sweep design, simulate it and return one point per eta."""
    etas = _check_eta_list(eta_list)
    if n_samples < MIN_SAMPLES_PER_POINT:
        raise InvalidParameterError(
            f"n_samples must be >= {MIN_SAMPLES_PER_POINT}, got {n_samples}"
        )
    return [
        point
        for point, _ in iter_eta_series(
            source, gain, dark, etas, n_samples, seed, stream_tag=stream_tag
        )
    ]


def fit_fano_line(points, sigma2_rel: float | None = None) -> CalibrationFit:
    """Weighted least squares of fano_v on mean_v.

    Weights are the inverse squared per-point standard errors; parameter
    standard errors come from the weighted normal equations.  An intercept
    at or below zero flags the fit invalid instead of being clamped.
    """
    points = tuple(points)
    if len(points) < MIN_ETA_POINTS:
        raise InsufficientDesignError(
            f"need at least {MIN_ETA_POINTS} points, got {len(points)}"
        )
    x = np.array([p.mean_v for p in points])
    y = np.array([p.fano_v for p in points])
    se = np.array([p.se_fano_v for p in points])
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(np.isfinite(se))):
        raise InvalidParameterError("points contain non-finite statistics")
    if np.any(se <= 0):
        raise InvalidParameterError("all points need positive se_fano_v")
    if np.ptp(x) == 0:
        raise SingularFitError("all mean_v values coincide; cannot fit a line")

    w = 1.0 / se**2
    s = w.sum()
    sx = (w * x).sum()
    sy = (w * y).sum()
    sxx = (w * x * x).sum()
    sxy = (w * x * y).sum()
    delta = s * sxx - sx * sx
    if not (delta > 0) or delta <= 1e-14 * s * sxx:
        raise SingularFitError("degenerate design matrix")
    slope = (s * sxy - sx * sy) / delta
    intercept = (sxx * sy - sx * sxy) / delta
    slope_se = math.sqrt(s / delta)
    intercept_se = math.sqrt(sxx / delta)
    resid = y - (intercept + slope * x)
    ss_res = float((w * resid**2).sum())
    valid = bool(np.isfinite(intercept) and intercept > 0)
    corrected = None
    if sigma2_rel is not None:
        corrected = intercept / (1.0 + float(sigma2_rel))
    return CalibrationFit(
        slope=float(slope),
        intercept=float(intercept),
        slope_se=slope_se,
        intercept_se=intercept_se,
        chi2_dof=ss_res / (len(points) - 2),
        points=points,
        valid=valid,
        gamma_bar_corrected=corrected,
    )


def mean_constancy_check(
    points,
    gamma_bar_est: float,
    reference_mean_m_per_eta,
    *,
    gamma_bar_se: float = 0.0,
    sigma2_rel: float = 0.0,
) -> MeanConstancyReport:
    """Check that mean_v per detected photon is flat and equals the intercept.

    ``reference_mean_m_per_eta`` supplies <m> for each point (eta times the
    known source mean).  ``gamma_bar_se`` folds the intercept's own
    uncertainty into the comparison; ``sigma2_rel`` widens it further by the
    known intercept inflation when the gain spread is known.  A point
    passes within 5 standard errors.
    """
    points = tuple(points)
    refs = [float(r) for r in reference_mean_m_per_eta]
    if len(refs) != len(points):
        raise InvalidParameterError("one reference <m> needed per point")
    ratios = np.array([p.mean_v / r for p, r in zip(points, refs)])
    ses = np.array([p.se_mean_v / r for p, r in zip(points, refs)])
    w = 1.0 / ses**2
    pooled = float((w * ratios).sum() / w.sum())
    bias_allow = abs(gamma_bar_est) * float(sigma2_rel)
    rows = []
    for p, ratio, se_r in zip(points, ratios, ses):
        se_g = math.sqrt(se_r**2 + float(gamma_bar_se) ** 2)
        z_pooled = (ratio - pooled) / se_r
        z_gamma = (ratio - gamma_bar_est) / se_g
        ok = abs(ratio - pooled) <= 5.0 * se_r and (
            abs(ratio - gamma_bar_est) <= 5.0 * se_g + bias_allow
        )
        rows.append(
            MeanConstancyRow(
                eta=p.eta,
                ratio=float(ratio),
                se_ratio=float(se_r),
                z_vs_pooled=float(z_pooled),
                z_vs_gamma=float(z_gamma),
                passed=bool(ok),
            )
        )
    return MeanConstancyReport(
        rows=tuple(rows),
        pooled_ratio=pooled,
        passed=all(r.passed for r in rows),
    )


def gain_scaling_check(
    source: PhotonNumberDistribution,
    gain: GainModel,
    dark: DarkNoiseModel,
    eta_list,
    factors,
    n_samples: int,
    seed: int,
    *,
    baseline: CalibrationFit,
) -> GainScalingReport:
    """Re-run the sweep under known output-gain factors and compare intercepts.

    An output gain g multiplying every voltage is the same chain with
    gamma_bar, sigma and sigma0 each multiplied by g; it leaves the relative
    gain spread untouched, so the fitted intercept must scale by exactly g,
    within 3 standard errors.  ``baseline`` is the unscaled
    fit of the same sweep, normally the main one.  Each factor uses an
    independent substream; a factor of exactly 1 reuses the baseline fit.
    """
    factors = [float(g) for g in factors]
    for i, g in enumerate(factors):
        if not (math.isfinite(g) and g > 0):
            raise InvalidParameterError(f"factors[{i}]: must be positive, got {g}")
    etas = _check_eta_list(eta_list)
    if not baseline.valid:
        raise InvalidParameterError("baseline fit is invalid (intercept <= 0)")
    if [p.eta for p in baseline.points] != etas:
        raise InvalidParameterError("baseline fit must cover the efficiencies of eta_list")
    refs = [e * source.mean_n for e in etas]
    sigma2_rel = gain.sigma2 / gain.gamma_bar**2

    def _series(factor_index: int, g: float) -> CalibrationFit:
        pts = run_eta_series(
            source,
            make_gain(gain.family, g * gain.gamma_bar, g * gain.sigma),
            DarkNoiseModel(g * dark.sigma0),
            etas,
            n_samples,
            seed,
            stream_tag=(GAIN_SCALING, factor_index),
        )
        return fit_fano_line(pts, sigma2_rel=sigma2_rel)

    rows = []
    constancy = []
    for i, g in enumerate(factors):
        fit = baseline if g == 1.0 else _series(i + 1, g)
        ratio = fit.intercept / baseline.intercept
        if fit is baseline:
            ratio_se = 0.0
            z = 0.0
            ok = True
        else:
            ratio_se = abs(ratio) * math.sqrt(
                (fit.intercept_se / fit.intercept) ** 2
                + (baseline.intercept_se / baseline.intercept) ** 2
            )
            z = (ratio - g) / ratio_se
            ok = abs(ratio - g) <= 3.0 * ratio_se
        rows.append(
            GainScalingRow(
                factor=g,
                intercept=fit.intercept,
                intercept_se=fit.intercept_se,
                ratio=float(ratio),
                ratio_se=float(ratio_se),
                z=float(z),
                passed=bool(ok),
            )
        )
        constancy.append(
            mean_constancy_check(
                fit.points,
                fit.intercept,
                refs,
                gamma_bar_se=fit.intercept_se,
                sigma2_rel=sigma2_rel,
            )
        )
    passed = all(r.passed for r in rows) and all(c.passed for c in constancy)
    return GainScalingReport(
        baseline_intercept=baseline.intercept,
        baseline_intercept_se=baseline.intercept_se,
        rows=tuple(rows),
        mean_constancy=tuple(constancy),
        passed=passed,
    )

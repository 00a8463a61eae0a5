"""Recover the detected-photon histogram from a voltage ensemble.

After the zero of the voltage scale is set from a dark record, each
voltage is assigned to the nearest integer multiple of the mean
single-photon response (bins of that width, centered on the multiples).
Negative assignments fold into the zero bin and are reported as underflow
rather than being dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .detector import DarkNoiseModel, GainModel, VoltageEnsemble
from .errors import InvalidParameterError
from .sources import MAX_N_MAX, PhotonNumberDistribution

# highest photon-count bin rebin allocates (a 128 MB count array), the
# same bound as on the photon numbers a source PMF is evaluated at
MAX_REBIN_BINS = MAX_N_MAX


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Rebinned counts normalized to a probability mass function."""

    pmf_hat: np.ndarray
    counts: np.ndarray
    gamma_bar_used: float
    underflow_fraction: float
    mean_m_hat: float
    n_samples: int
    tv_distance: float | None = None
    fidelity: float | None = None

    def __post_init__(self):
        self.pmf_hat.setflags(write=False)
        self.counts.setflags(write=False)


class SelfConsistencyReport(NamedTuple):
    """Agreement of the reconstructed mean with mean_v / gamma_bar."""

    mean_v_over_gamma: float
    difference: float
    tolerance: float
    passed: bool


def subtract_offset(ensemble: VoltageEnsemble, dark_mean: float) -> VoltageEnsemble:
    """Shift every sample by the measured dark mean (zero-setting)."""
    dark_mean = float(dark_mean)
    if not math.isfinite(dark_mean):
        raise InvalidParameterError("dark_mean must be finite")
    if dark_mean == 0.0:
        return ensemble
    return replace(ensemble, samples=ensemble.samples - dark_mean)


def rebin(ensemble: VoltageEnsemble, gamma_bar: float) -> ReconstructionResult:
    """Bin voltages into photon counts: m = round(v / gamma_bar).

    Bin m covers [(m - 1/2) gamma_bar, (m + 1/2) gamma_bar); samples below
    the zero bin are counted into m = 0 and reported as underflow.  A sample
    above bin MAX_REBIN_BINS is an outlier no detector produces and raises
    InvalidParameterError.
    """
    gamma_bar = float(gamma_bar)
    if not (math.isfinite(gamma_bar) and gamma_bar > 0):
        raise InvalidParameterError(f"gamma_bar must be positive, got {gamma_bar}")
    # bin in float: an integer cast first would wrap huge voltages negative
    bins = np.floor(ensemble.samples / gamma_bar + 0.5)
    under = bins < 0
    underflow = float(np.count_nonzero(under)) / bins.size
    bins[under] = 0
    top = int(np.argmax(bins))
    if bins[top] > MAX_REBIN_BINS:
        raise InvalidParameterError(
            f"voltage {ensemble.samples[top]:g} is {bins[top]:g} bins of "
            f"gamma_bar={gamma_bar:g} above zero; rebin allows at most {MAX_REBIN_BINS}"
        )
    idx = bins.astype(np.int64)
    counts = np.bincount(idx)
    n = idx.size
    pmf_hat = counts / n
    mean_m_hat = float(counts @ np.arange(counts.size)) / n
    return ReconstructionResult(
        pmf_hat=pmf_hat,
        counts=counts,
        gamma_bar_used=gamma_bar,
        underflow_fraction=underflow,
        mean_m_hat=mean_m_hat,
        n_samples=n,
    )


def self_consistency_check(
    result: ReconstructionResult,
    ensemble_mean_v: float,
    se_mean_v: float = 0.0,
    se_gamma_bar: float = 0.0,
) -> SelfConsistencyReport:
    """Check the reconstructed mean against mean_v / gamma_bar.

    The tolerance is 5 standard errors of mean_v / gamma_bar plus half
    the underflow fraction (the folding-bias allowance); a nonzero
    ``se_gamma_bar`` widens it by the bin-width uncertainty.
    """
    g = result.gamma_bar_used
    target = ensemble_mean_v / g
    diff = abs(result.mean_m_hat - target)
    se = math.sqrt(
        (se_mean_v / g) ** 2 + (ensemble_mean_v * se_gamma_bar / g**2) ** 2
    )
    tol = 5.0 * se + 0.5 * result.underflow_fraction
    return SelfConsistencyReport(
        mean_v_over_gamma=target,
        difference=diff,
        tolerance=tol,
        passed=bool(diff <= tol),
    )


def _pad_common(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    size = max(a.size, b.size)
    return (
        np.pad(a, (0, size - a.size)),
        np.pad(b, (0, size - b.size)),
    )


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance of two PMFs; the shorter one is zero-padded."""
    a, b = _pad_common(p, q)
    return 0.5 * float(np.abs(a - b).sum())


def compare(
    result: ReconstructionResult, reference: PhotonNumberDistribution
) -> ReconstructionResult:
    """Copy of ``result`` with its TV distance and fidelity to ``reference``."""
    p_hat, p_ref = _pad_common(result.pmf_hat, reference.pmf)
    return replace(
        result,
        tv_distance=total_variation(p_hat, p_ref),
        fidelity=float(np.sqrt(p_hat * p_ref).sum()),
    )


def _gaussian_components(
    detected: PhotonNumberDistribution, gain: GainModel, dark: DarkNoiseModel
):
    if gain.family != "gaussian":
        raise InvalidParameterError(
            f"closed-form voltage density requires gaussian gain, got {gain.family!r}"
        )
    k = np.arange(detected.pmf.size)
    var = k * gain.sigma2 + dark.sigma0**2
    mask = detected.pmf > 0
    if np.any(var[mask] == 0):
        raise InvalidParameterError(
            "mixture has a zero-variance component; need sigma > 0 or sigma0 > 0"
        )
    centers = k * gain.gamma_bar
    return detected.pmf[mask], centers[mask], var[mask]


def expected_rebinned_pmf(
    detected: PhotonNumberDistribution,
    gain: GainModel,
    dark: DarkNoiseModel,
    gamma_bar_used: float,
) -> np.ndarray:
    """Infinite-sample PMF the rebinning converges to (misassignment oracle).

    Integrates each gaussian voltage component over the bin edges of the
    chosen bin width, out to ten standard deviations above the top
    component; mass below the zero bin folds into bin 0, matching
    :func:`rebin`.  Requires a gaussian gain family with no zero-variance
    component, and scipy, which is in the ``test`` extra only: no command
    calls this oracle.
    """
    from scipy.special import ndtr

    gamma_bar_used = float(gamma_bar_used)
    if not (math.isfinite(gamma_bar_used) and gamma_bar_used > 0):
        raise InvalidParameterError(f"gamma_bar_used must be positive, got {gamma_bar_used}")
    p, centers, var = _gaussian_components(detected, gain, dark)
    sd = np.sqrt(var)
    top = float(np.max(centers + 10.0 * sd))
    n_bins = max(1, int(math.ceil(top / gamma_bar_used + 0.5)))
    edges = (np.arange(n_bins + 1) + 0.5) * gamma_bar_used
    upper = ndtr((edges[:, None] - centers[None, :]) / sd) @ p
    pmf = np.empty(n_bins + 1)
    pmf[0] = upper[0]  # includes all mass below the zero bin (folded)
    pmf[1:] = np.diff(upper)
    return pmf

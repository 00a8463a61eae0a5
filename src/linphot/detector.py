"""Linear detector and electronics chain: voltage ensembles.

A shot with m detected photons produces v = (sum of m independent
single-photon gain draws) + baseline noise.  The gain draw
distribution is gaussian or gamma, parameterized by its mean
``gamma_bar`` and spread ``sigma``; the baseline (dark) noise is
zero-mean gaussian, so the zero of the voltage scale is already set.
An amplifier of gain g after the detector is the same chain with
``gamma_bar``, ``sigma`` and ``sigma0`` each multiplied by g.

Each random draw has one owner: ``loss.sample_m`` draws the detected
counts, :meth:`GainModel.sample_sums` each shot's summed gain and
:meth:`DarkNoiseModel.sample` the dark noise.  The sum of m gains is
drawn in one step, Normal(m gamma_bar, m sigma^2) or Gamma(m k, theta),
so a shot costs the same however many photons it holds.  The
gaussian-mixture density and CDF are the closed-form oracles for
gaussian gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UnsupportedOracleError
from .loss import DetectedPhotonDistribution, _check_eta, sample_m
from .moments import central_from_raw, raw_moments_from_cumulants
from .sources import PhotonNumberDistribution
from .streams import chunk_sizes, substream

GAIN_FAMILIES = ("gaussian", "gamma")


@dataclass(frozen=True, eq=False)
class GainModel:
    """Distribution of the single-photon voltage conversion factor.

    ``cumulants`` holds kappa_1..kappa_5 and ``central_moments`` holds the
    central moments of order 2..5 of one gain draw.
    """

    family: str
    gamma_bar: float
    sigma2: float
    central_moments: tuple
    cumulants: tuple

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def sample_sums(self, rng: np.random.Generator, counts) -> np.ndarray:
        """For each count m, draw the sum of m independent gain values.

        Exact in distribution: Normal(m gamma_bar, m sigma^2) for the
        gaussian family and Gamma(m k, theta) for the gamma family, one
        draw per count; a zero count gives exactly 0 (numpy returns loc for
        scale 0 and 0 for shape 0).
        """
        counts = np.asarray(counts)
        if self.sigma2 == 0.0:
            return counts * self.gamma_bar
        if self.family == "gaussian":
            return rng.normal(counts * self.gamma_bar, self.sigma * np.sqrt(counts))
        shape = self.gamma_bar**2 / self.sigma2
        scale = self.sigma2 / self.gamma_bar
        return rng.gamma(counts * shape, scale)


@dataclass(frozen=True)
class DarkNoiseModel:
    """Zero-light voltage statistics: zero-mean gaussian of width sigma0."""

    sigma0: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma0) and self.sigma0 >= 0):
            raise InvalidParameterError(f"sigma0 must be >= 0, got {self.sigma0}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.sigma0 == 0.0:
            return np.zeros(size)
        return rng.normal(0.0, self.sigma0, size)


@dataclass(frozen=True, eq=False)
class VoltageEnsemble:
    """Recorded voltages for one run at fixed efficiency."""

    samples: np.ndarray
    eta: float
    n_samples: int
    seed: int

    def __post_init__(self):
        bad = np.count_nonzero(~np.isfinite(self.samples))
        if bad:
            raise InvalidParameterError(f"{bad} of {self.samples.size} samples are not finite")
        self.samples.setflags(write=False)


def make_gain(family: str, gamma_bar, sigma=0.0) -> GainModel:
    """Build a gain model with cumulants and central moments through order 5.

    Parameterized by (gamma_bar, sigma); sigma = 0 gives the degenerate
    point mass for either family.
    """
    if family not in GAIN_FAMILIES:
        raise InvalidParameterError(
            f"family must be one of {GAIN_FAMILIES}, got {family!r}"
        )
    gamma_bar = float(gamma_bar)
    if not (math.isfinite(gamma_bar) and gamma_bar > 0):
        raise InvalidParameterError(f"gamma_bar must be positive, got {gamma_bar}")
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma >= 0):
        raise InvalidParameterError(f"sigma must be >= 0, got {sigma}")

    sigma2 = sigma * sigma
    if sigma2 == 0.0:
        kappa = (gamma_bar, 0.0, 0.0, 0.0, 0.0)
    elif family == "gaussian":
        kappa = (gamma_bar, sigma2, 0.0, 0.0, 0.0)
    else:  # gamma: shape k = gamma_bar^2/sigma^2, scale theta = sigma^2/gamma_bar
        shape = gamma_bar**2 / sigma2
        theta = sigma2 / gamma_bar
        kappa = tuple(shape * theta**r * math.factorial(r - 1) for r in range(1, 6))
    central = tuple(central_from_raw(raw_moments_from_cumulants(kappa)))
    return GainModel(
        family=family,
        gamma_bar=gamma_bar,
        sigma2=sigma2,
        central_moments=central,
        cumulants=kappa,
    )


def _simulate_chunk(source, eta, gain, dark, size, seed, key) -> np.ndarray:
    rng = substream(seed, key)
    v = gain.sample_sums(rng, sample_m(source, eta, rng, size=size))
    return v + dark.sample(rng, size)


def simulate_ensemble(
    source: PhotonNumberDistribution,
    eta,
    gain: GainModel,
    dark: DarkNoiseModel,
    n_samples: int,
    seed: int,
    *,
    stream_key: tuple = (),
) -> VoltageEnsemble:
    """Simulate n_samples independent voltage shots.

    Shots are generated on a fixed chunk grid of substreams keyed by
    (seed, stream_key, chunk index), so the output depends only on those
    and on the models.  Each chunk draws, in this order, the detected
    counts (:func:`loss.sample_m`: n from the source, then Binomial(n,
    eta)), each shot's summed gain in one draw
    (:meth:`GainModel.sample_sums`) and the dark noise
    (:meth:`DarkNoiseModel.sample`).  The detected-count PMF the shots are
    drawn from is ``loss.apply_bernoulli(source, eta)``.
    """
    eta = _check_eta(eta)
    if n_samples < 1:
        raise InvalidParameterError(f"n_samples must be >= 1, got {n_samples}")
    v = np.concatenate(
        [
            _simulate_chunk(source, eta, gain, dark, size, seed, tuple(stream_key) + (ci,))
            for ci, size in enumerate(chunk_sizes(n_samples))
        ]
    )
    return VoltageEnsemble(samples=v, eta=eta, n_samples=int(n_samples), seed=int(seed))


def _gaussian_components(
    detected: DetectedPhotonDistribution, gain: GainModel, dark: DarkNoiseModel
):
    if gain.family != "gaussian":
        raise UnsupportedOracleError(
            f"closed-form voltage density requires gaussian gain, got {gain.family!r}"
        )
    k = np.arange(detected.pmf.size)
    var = k * gain.sigma2 + dark.sigma0**2
    mask = detected.pmf > 0
    if np.any(var[mask] == 0):
        raise UnsupportedOracleError(
            "mixture has a zero-variance component; need sigma > 0 or sigma0 > 0"
        )
    centers = k * gain.gamma_bar
    return detected.pmf[mask], centers[mask], var[mask]


def _mixture_eval(v, p, centers, var, kernel, max_entries=1 << 22):
    # blockwise so neither a million-point grid nor the thousands of
    # components of a bright source allocate the full (N, K) matrix
    v = np.asarray(v, dtype=float)
    out = np.empty(v.size)
    sd = np.sqrt(var)
    block = max(1, max_entries // centers.size)
    for lo in range(0, v.size, block):
        z = (v[lo : lo + block, None] - centers[None, :]) / sd
        out[lo : lo + block] = kernel(z, sd) @ p
    return out


def analytic_pv_gaussian(
    detected: DetectedPhotonDistribution,
    gain: GainModel,
    dark: DarkNoiseModel,
    v_grid,
) -> np.ndarray:
    """Closed-form voltage density: gaussian mixture over detected counts.

    Component k is Normal(k gamma_bar, k sigma^2 + sigma0^2), weighted by
    the detected-count PMF.
    """
    p, centers, var = _gaussian_components(detected, gain, dark)
    return _mixture_eval(
        v_grid,
        p,
        centers,
        var,
        lambda z, sd: np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * sd),
    )


def analytic_pv_cdf_gaussian(
    detected: DetectedPhotonDistribution,
    gain: GainModel,
    dark: DarkNoiseModel,
    v,
) -> np.ndarray:
    """CDF of the gaussian-mixture voltage density (for distribution tests)."""
    from scipy.special import ndtr

    p, centers, var = _gaussian_components(detected, gain, dark)
    return _mixture_eval(v, p, centers, var, lambda z, sd: ndtr(z))

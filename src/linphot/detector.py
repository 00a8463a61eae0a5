"""Linear detector and electronics chain.

A shot with m detected photons produces v = g * (sum of m independent
single-photon gain draws + baseline noise) + raw offset.  The gain draw
distribution is parameterized by its mean ``gamma_bar`` and spread
``sigma``; the baseline (dark) noise is zero-mean gaussian after the
offset convention is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.special import ndtr

from .errors import InvalidParameterError, UnsupportedOracleError
from .loss import DetectedPhotonDistribution, apply_bernoulli
from .moments import (
    central_from_raw,
    cumulants_from_raw,
    raw_from_central,
    raw_moments_from_cumulants,
)
from .sources import PhotonNumberDistribution, sample_n
from .streams import chunk_sizes, substream

GAIN_FAMILIES = ("gaussian", "gamma", "empirical")


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
    grid: np.ndarray | None = field(default=None, repr=False)
    pdf: np.ndarray | None = field(default=None, repr=False)
    inv_cdf_u: np.ndarray | None = field(default=None, repr=False)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` independent gain values."""
        if self.sigma2 == 0.0 and self.family != "empirical":
            return np.full(size, self.gamma_bar)
        if self.family == "gaussian":
            return rng.normal(self.gamma_bar, math.sqrt(self.sigma2), size)
        if self.family == "gamma":
            shape = self.gamma_bar**2 / self.sigma2
            scale = self.sigma2 / self.gamma_bar
            return rng.gamma(shape, scale, size)
        u = rng.random(size)
        return np.interp(u, self.inv_cdf_u, self.grid)


@dataclass(frozen=True)
class DarkNoiseModel:
    """Zero-light voltage statistics: gaussian of width sigma0.

    ``offset_raw`` is the mean of the raw record before the zero of the
    voltage scale is set; the working distribution is zero-mean.
    """

    sigma0: float
    offset_raw: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma0) and self.sigma0 >= 0):
            raise InvalidParameterError(f"sigma0 must be >= 0, got {self.sigma0}")
        if not math.isfinite(self.offset_raw):
            raise InvalidParameterError("offset_raw must be finite")

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
    gain_scale: float = 1.0
    truth: DetectedPhotonDistribution | None = None

    def __post_init__(self):
        bad = np.count_nonzero(~np.isfinite(self.samples))
        if bad:
            raise InvalidParameterError(f"{bad} of {self.samples.size} samples are not finite")
        self.samples.setflags(write=False)


def make_gain(
    family: str, gamma_bar, sigma=0.0, empirical_table=None
) -> GainModel:
    """Build a gain model with cumulants and central moments through order 5.

    gaussian / gamma: parameterized by (gamma_bar, sigma); sigma = 0 gives
    the degenerate point mass for either family.  empirical: the table
    (grid, density) fixes the shape, which is rescaled so its mean equals
    ``gamma_bar``; sigma is then derived from the table and the argument is
    ignored.
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

    if family == "empirical":
        if empirical_table is None:
            raise InvalidParameterError("empirical family requires empirical_table")
        grid = np.asarray(empirical_table[0], dtype=float)
        dens = np.asarray(empirical_table[1], dtype=float)
        if grid.ndim != 1 or grid.size < 2 or grid.shape != dens.shape:
            raise InvalidParameterError("empirical_table must be two equal-length 1-d arrays")
        if np.any(np.diff(grid) <= 0) or grid[0] < 0:
            raise InvalidParameterError("empirical grid must be increasing and nonnegative")
        if np.any(dens < 0) or not np.all(np.isfinite(dens)) or not np.all(np.isfinite(grid)):
            raise InvalidParameterError("empirical density must be finite and nonnegative")
        z = np.trapezoid(dens, grid)
        if z <= 0:
            raise InvalidParameterError("empirical density integrates to zero")
        dens = dens / z
        mean_raw = np.trapezoid(grid * dens, grid)
        if mean_raw <= 0:
            raise InvalidParameterError("empirical table must have positive mean")
        grid = grid * (gamma_bar / mean_raw)
        dens = dens * (mean_raw / gamma_bar)
        central = tuple(
            float(np.trapezoid((grid - gamma_bar) ** r * dens, grid)) for r in range(2, 6)
        )
        raw = raw_from_central(gamma_bar, central)
        kappa = tuple(cumulants_from_raw(raw))
        cdf = cumulative_trapezoid(dens, grid, initial=0.0)
        cdf = cdf / cdf[-1]
        return GainModel(
            family=family,
            gamma_bar=gamma_bar,
            sigma2=central[0],
            central_moments=central,
            cumulants=kappa,
            grid=grid,
            pdf=dens,
            inv_cdf_u=cdf,
        )

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


def sample_voltage(
    m: int, gain: GainModel, dark: DarkNoiseModel, rng: np.random.Generator
) -> float:
    """One voltage shot for exactly m detected photons."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 0:
        raise InvalidParameterError(f"m must be a nonnegative integer, got {m!r}")
    v = float(dark.sample(rng, 1)[0]) + dark.offset_raw
    if m > 0:
        if gain.sigma2 == 0.0 and gain.family != "empirical":
            v += m * gain.gamma_bar
        else:
            v += math.fsum(gain.sample(rng, int(m)))
    return v


def _segment_sums(draws: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-shot sums of consecutive draw segments of the given lengths."""
    out = np.zeros(counts.size)
    if draws.size == 0:
        return out
    starts = np.cumsum(counts) - counts
    out = np.add.reduceat(np.append(draws, 0.0), starts)
    out[counts == 0] = 0.0
    return out


def _simulate_chunk(source, eta, gain, dark, size, seed, key) -> np.ndarray:
    rng = substream(seed, key)
    n = sample_n(source, rng, size=size)
    m = rng.binomial(n, eta)
    if gain.sigma2 == 0.0 and gain.family != "empirical":
        v = m * gain.gamma_bar
    else:
        draws = gain.sample(rng, int(m.sum()))
        v = _segment_sums(draws, m)
    if dark.sigma0 > 0:
        v = v + rng.normal(0.0, dark.sigma0, size)
    return v


def simulate_ensemble(
    source: PhotonNumberDistribution,
    eta,
    gain: GainModel,
    dark: DarkNoiseModel,
    n_samples: int,
    seed: int,
    *,
    stream_key: tuple = (),
    gain_scale: float = 1.0,
    keep_truth: bool = True,
) -> VoltageEnsemble:
    """Simulate n_samples independent voltage shots.

    Shots are generated on a fixed chunk grid of substreams keyed by
    (seed, stream_key, chunk index), so the output depends only on those
    and on the models.  ``gain_scale`` models a known post-detector
    amplification / digitizer-scale factor applied to every voltage.
    """
    eta = float(eta)
    if not (0.0 <= eta <= 1.0):
        raise InvalidParameterError(f"eta must lie in [0, 1], got {eta}")
    if n_samples < 1:
        raise InvalidParameterError(f"n_samples must be >= 1, got {n_samples}")
    gain_scale = float(gain_scale)
    if not (math.isfinite(gain_scale) and gain_scale > 0):
        raise InvalidParameterError(f"gain_scale must be positive, got {gain_scale}")

    v = np.concatenate(
        [
            _simulate_chunk(source, eta, gain, dark, size, seed, tuple(stream_key) + (ci,))
            for ci, size in enumerate(chunk_sizes(n_samples))
        ]
    )
    if gain_scale != 1.0:
        v = v * gain_scale
    if dark.offset_raw != 0.0:
        v = v + dark.offset_raw
    truth = apply_bernoulli(source, eta) if keep_truth else None
    return VoltageEnsemble(
        samples=v,
        eta=eta,
        n_samples=int(n_samples),
        seed=int(seed),
        gain_scale=gain_scale,
        truth=truth,
    )


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
    centers = k * gain.gamma_bar + dark.offset_raw
    return detected.pmf[mask], centers[mask], var[mask]


def _mixture_eval(v, p, centers, var, kernel, block=1 << 16):
    # blockwise so a million-point grid never allocates the full (N, K) matrix
    v = np.asarray(v, dtype=float)
    out = np.empty(v.size)
    sd = np.sqrt(var)
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
    p, centers, var = _gaussian_components(detected, gain, dark)
    return _mixture_eval(v, p, centers, var, lambda z, sd: ndtr(z))

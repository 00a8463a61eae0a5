"""Linear detector and electronics chain: voltage ensembles.

A shot with m detected photons produces v = (sum of m independent
single-photon gain draws) + baseline noise.  The gain draw
distribution is gaussian or gamma, parameterized by its mean
``gamma_bar`` and spread ``sigma``; the baseline (dark) noise is
zero-mean gaussian, so the zero of the voltage scale is already set.
An amplifier of gain g after the detector is the same chain with
``gamma_bar``, ``sigma`` and ``sigma0`` each multiplied by g.

Each random draw has one owner: ``loss.sample_m`` draws the detected
counts (a named source's from its thinned law in one numpy call, a
table's as n by inverse CDF, then Binomial(n, eta)),
:meth:`GainModel.sample_sums` each shot's summed gain and
:meth:`DarkNoiseModel.sample` the dark noise.  The sum of m gains is
drawn in one step, Normal(m gamma_bar, m sigma^2) or Gamma(m k, theta),
so a shot costs the same however many photons it holds.  The sum is
formed in place from numpy's standard draws, with the bits of
``normal(loc, scale)`` (loc + scale z) and ``gamma(k, theta)``
(theta times a standard gamma draw), and the dark noise is added to it
in place.  A command draws its ensembles through one ordered stream
(``calibration.iter_ensembles``); each ensemble owns its substream, so
the draws do not depend on which thread makes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .loss import _check_eta, sample_m
from .sources import PhotonNumberDistribution
from .streams import chunk_sizes, substream

GAIN_FAMILIES = ("gaussian", "gamma")


@dataclass(frozen=True, eq=False)
class GainModel:
    """Distribution of the single-photon voltage conversion factor.

    ``cumulants`` holds kappa_1..kappa_5 of one gain draw.
    """

    family: str
    gamma_bar: float
    sigma2: float
    cumulants: tuple

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def sample_sums(self, rng: np.random.Generator, counts) -> np.ndarray:
        """For each count m, draw the sum of m independent gain values.

        Exact in distribution: Normal(m gamma_bar, m sigma^2) for the
        gaussian family and Gamma(m k, theta) for the gamma family, one
        draw per count; a zero count gives exactly 0 (numpy returns loc for
        scale 0 and 0 for shape 0).  The draws are numpy's standard normal
        and standard gamma, scaled in place: the bits of ``normal(m gamma_bar,
        sigma sqrt(m))`` and ``gamma(m k, theta)`` without their broadcast
        temporaries.
        """
        counts = np.asarray(counts)
        if self.sigma2 == 0.0:
            return counts * self.gamma_bar
        if self.family == "gaussian":
            sums = rng.standard_normal(counts.shape)
            sums *= self.sigma * np.sqrt(counts)
            sums += counts * self.gamma_bar
            return sums
        shape = self.gamma_bar**2 / self.sigma2
        sums = rng.standard_gamma(counts * shape)
        sums *= self.sigma2 / self.gamma_bar
        return sums


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
    """Build a gain model with its cumulants through order 5.

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
    return GainModel(family=family, gamma_bar=gamma_bar, sigma2=sigma2, cumulants=kappa)


def _simulate_chunk(source, eta, gain, dark, size, seed, key) -> np.ndarray:
    rng = substream(seed, key)
    v = gain.sample_sums(rng, sample_m(source, eta, rng, size=size))
    v += dark.sample(rng, size)
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
) -> VoltageEnsemble:
    """Simulate n_samples independent voltage shots.

    Shots are generated on a fixed chunk grid of substreams keyed by
    (seed, stream_key, chunk index), so the output depends only on those
    and on the models.  Each chunk draws, in this order, the detected
    counts (:func:`loss.sample_m`: from a named source's thinned law, or
    n from a table, then Binomial(n, eta)), each shot's summed gain in one draw
    (:meth:`GainModel.sample_sums`) and the dark noise
    (:meth:`DarkNoiseModel.sample`).  The detected-count PMF the shots are
    drawn from is ``loss.apply_bernoulli(source, eta)``.  An ensemble of
    one chunk is that chunk's array, not a copy of it.
    """
    eta = _check_eta(eta)
    if n_samples < 1:
        raise InvalidParameterError(f"n_samples must be >= 1, got {n_samples}")
    chunks = [
        _simulate_chunk(source, eta, gain, dark, size, seed, tuple(stream_key) + (ci,))
        for ci, size in enumerate(chunk_sizes(n_samples))
    ]
    v = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return VoltageEnsemble(samples=v, eta=eta, n_samples=int(n_samples), seed=int(seed))

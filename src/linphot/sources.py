"""Photon-number distributions of the light entering the apparatus.

All constructors return a truncated PMF: entries are kept until the
cumulative tail mass drops below a configurable epsilon, and the PMF is
*not* renormalized afterwards; the missing probability is carried in
``tail_mass`` so downstream sums can propagate the truncation error.

The named families also carry their law under binomial loss, which stays
in the family: Poisson(mu) thins to Poisson(eta mu), the ``modes``-mode
thermal NB(M, mu/M) to NB(M, eta mu/M) and Fock(n) to Binomial(n, eta).
``loss.apply_bernoulli`` evaluates that rule instead of a kernel sum.

``scipy.stats`` (about a second to import) is imported inside the
functions that evaluate a law, here and in ``loss``, as is
``scipy.special`` in ``detector`` and ``reconstruction``: commands that
only read artifacts, such as ``linphot check``, never load it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import InvalidParameterError
from .moments import pmf_moments

DEFAULT_TAIL_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class PhotonNumberDistribution:
    """Truncated photon-number PMF with its low-order statistics."""

    pmf: np.ndarray
    n_max: int
    tail_mass: float
    mean_n: float
    mandel_q: float | None
    label: str
    cdf: np.ndarray = field(repr=False, default=None)
    # (k, eta) -> closed-form detected PMF at counts k; None for tables
    _thin: Callable[[np.ndarray, float], np.ndarray] | None = field(repr=False, default=None)

    def __post_init__(self):
        if self.cdf is None:
            object.__setattr__(self, "cdf", np.cumsum(self.pmf))
        self.pmf.setflags(write=False)
        self.cdf.setflags(write=False)

    def validate(self, tail_eps: float = DEFAULT_TAIL_EPS) -> None:
        """Assert the structural invariants; raises AssertionError on breach."""
        total = math.fsum(self.pmf)
        assert np.all(self.pmf >= 0)
        assert 1.0 - self.tail_mass - 1e-15 <= total <= 1.0 + 1e-15
        assert self.tail_mass <= tail_eps
        mean, central = pmf_moments(self.pmf, order=2)
        assert abs(mean - self.mean_n) <= 1e-12 * max(1.0, abs(mean))
        if mean > 0:
            q = (central[0] - mean) / mean
            assert abs(q - self.mandel_q) <= 1e-12 * max(1.0, abs(q))
        else:
            assert self.mandel_q is None


def _finalize(pmf: np.ndarray, label: str, thin=None) -> PhotonNumberDistribution:
    pmf = np.ascontiguousarray(pmf, dtype=float)
    tail = max(0.0, 1.0 - math.fsum(pmf))
    mean, central = pmf_moments(pmf, order=2)
    q = (central[0] - mean) / mean if mean > 0 else None
    return PhotonNumberDistribution(
        pmf=pmf,
        n_max=pmf.size - 1,
        tail_mass=tail,
        mean_n=mean,
        mandel_q=q,
        label=label,
        _thin=thin,
    )


def _thin_poisson(mean, k, eta):
    from scipy import stats

    return stats.poisson.pmf(k, eta * mean)


def _thin_nbinom(mean, modes, k, eta):
    from scipy import stats

    return stats.nbinom.pmf(k, modes, 1.0 / (1.0 + eta * mean / modes))


def _thin_fock(n, k, eta):
    from scipy import stats

    return stats.binom.pmf(k, n, eta)


def _truncate(pmf: np.ndarray, tail_eps: float) -> np.ndarray:
    cum = np.cumsum(pmf)
    idx = int(np.searchsorted(cum, 1.0 - tail_eps, side="left"))
    return pmf[: min(idx, pmf.size - 1) + 1]


def _check_mean(mean) -> float:
    mean = float(mean)
    if not (math.isfinite(mean) and mean >= 0):
        raise InvalidParameterError(f"mean must be a nonnegative finite real, got {mean}")
    return mean


def _check_eps(tail_eps) -> float:
    tail_eps = float(tail_eps)
    if not (0 < tail_eps < 1):
        raise InvalidParameterError(f"tail_eps must be in (0, 1), got {tail_eps}")
    return tail_eps


def make_poisson(mean, tail_eps: float = DEFAULT_TAIL_EPS) -> PhotonNumberDistribution:
    """Coherent-light photon statistics: Poisson with the given mean."""
    mean = _check_mean(mean)
    tail_eps = _check_eps(tail_eps)
    label = f"poisson(mean={mean:g})"
    thin = partial(_thin_poisson, mean)
    if mean == 0:
        return _finalize(np.array([1.0]), label, thin)
    from scipy import stats

    n_hi = int(stats.poisson.isf(tail_eps, mean)) + 2
    pmf = stats.poisson.pmf(np.arange(n_hi + 1), mean)
    return _finalize(_truncate(pmf, tail_eps), label, thin)


def make_multimode_thermal(
    mean, modes: int, tail_eps: float = DEFAULT_TAIL_EPS
) -> PhotonNumberDistribution:
    """Thermal light split over ``modes`` independent equal modes.

    Negative-binomial PMF with ``modes`` as the shape parameter; the
    single-mode case reduces to the Bose-Einstein (geometric) distribution.
    """
    mean = _check_mean(mean)
    tail_eps = _check_eps(tail_eps)
    if isinstance(modes, bool) or not isinstance(modes, (int, np.integer)) or modes < 1:
        raise InvalidParameterError(f"modes must be a positive integer, got {modes!r}")
    modes = int(modes)
    label = f"multimode_thermal(mean={mean:g}, modes={modes})"
    thin = partial(_thin_nbinom, mean, modes)
    if mean == 0:
        return _finalize(np.array([1.0]), label, thin)
    from scipy import stats

    x = mean / modes  # per-mode mean
    p = 1.0 / (1.0 + x)
    n_hi = int(stats.nbinom.isf(tail_eps, modes, p)) + 2
    pmf = stats.nbinom.pmf(np.arange(n_hi + 1), modes, p)
    return _finalize(_truncate(pmf, tail_eps), label, thin)


def make_thermal(mean, tail_eps: float = DEFAULT_TAIL_EPS) -> PhotonNumberDistribution:
    """Single-mode thermal (Bose-Einstein) photon statistics."""
    dist = make_multimode_thermal(mean, 1, tail_eps=tail_eps)
    return replace(dist, label=f"thermal(mean={float(mean):g})")


def make_fock(n) -> PhotonNumberDistribution:
    """Photon-number eigenstate: all mass at exactly ``n`` photons."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise InvalidParameterError(f"n must be a nonnegative integer, got {n!r}")
    n = int(n)
    pmf = np.zeros(n + 1)
    pmf[n] = 1.0
    return _finalize(pmf, f"fock(n={n})", partial(_thin_fock, n))


def from_pmf(table) -> PhotonNumberDistribution:
    """Normalized distribution from an arbitrary nonnegative table."""
    arr = np.asarray(table, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidParameterError("pmf table must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError("pmf table entries must be finite")
    if np.any(arr < 0):
        raise InvalidParameterError("pmf table entries must be nonnegative")
    total = math.fsum(arr)
    if total <= 0:
        raise InvalidParameterError("pmf table must contain at least one positive entry")
    arr = arr / total
    last = int(np.max(np.nonzero(arr)[0]))
    return _finalize(arr[: last + 1], f"pmf(len={last + 1})")


def sample_n(dist: PhotonNumberDistribution, rng: np.random.Generator, size) -> np.ndarray:
    """Draw ``size`` photon numbers by inverse-CDF lookup over the truncated PMF."""
    u = rng.random(size)
    return np.minimum(np.searchsorted(dist.cdf, u, side="right"), dist.n_max)

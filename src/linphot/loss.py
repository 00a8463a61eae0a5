"""Bernoulli photodetection channel with overall efficiency eta.

Each photon is independently detected with probability eta, so the
detected-count PMF is the binomial mixture of the source PMF.  The channel
is provided both analytically (the detected law, itself a
``PhotonNumberDistribution``) and as a sampler (the detected counts of a
chunk of shots).

Both have the same two paths.  A named source (Poisson, thermal, Fock)
carries its law at each eta, one ``sources._Law``: Poisson(eta mu),
NB(M, eta mu/M) or Binomial(n, eta).  Its PMF is evaluated on 0..n_max in
O(n_max), and its counts are drawn from the untruncated law in one numpy
call, so a count above n_max occurs with probability below the
source's ``tail_eps``.  A table (``from_pmf``, or a detected law fed
to a second stage) is mixed with the exact binomial kernel, evaluated by
the binomial PMF of ``sources``, banded by the Chernoff bound to where it
holds all but ``KERNEL_EPS`` of its mass and built blockwise, so memory
stays bounded and no term underflows before its true value does; its
counts are drawn as n by inverse CDF over the table, then
Binomial(n, eta).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import InvalidParameterError
from .sources import (
    PhotonNumberDistribution,
    _binom_bound,
    _binom_pmf,
    _crossing,
    _finalize,
    _on_grid,
    sample_n,
)

# binomial mass per photon number n that the table kernel may leave out
KERNEL_EPS = 1e-30
# photon numbers (kernel columns) per block of the table kernel
KERNEL_BLOCK = 256


def _check_eta(eta) -> float:
    eta = float(eta)
    if not (math.isfinite(eta) and 0.0 <= eta <= 1.0):
        raise InvalidParameterError(f"eta must lie in [0, 1], got {eta}")
    return eta


def _binomial_mix(pn: np.ndarray, eta: float) -> np.ndarray:
    """sum_n B(m | n, eta) pn[n] for m = 0..n_max.

    The kernel is built one block of KERNEL_BLOCK columns n at a time, on
    the rows where the Chernoff bound of the block's first column (below)
    and last column (above) leaves out at most KERNEL_EPS of the mass.
    """
    n_max = pn.size - 1
    pm = np.zeros(n_max + 1)
    starts = np.arange(0, n_max + 1, KERNEL_BLOCK)
    lasts = np.minimum(starts + KERNEL_BLOCK, n_max + 1) - 1
    limit = -math.log(KERNEL_EPS)
    band = partial(_binom_bound, p=eta, q=1.0 - eta)
    lows = _crossing(partial(band, n=starts), starts * eta, -1, limit)
    highs = _crossing(partial(band, n=lasts), lasts * eta, lasts + 1, limit)
    for c0, c1, r0, r1 in zip(starts, lasts + 1, lows, highs + 1):
        kernel = _binom_pmf(np.arange(r0, r1), np.arange(c0, c1)[:, None], eta, 1.0 - eta)
        pm[r0:r1] += pn[c0:c1] @ kernel
    return pm


def apply_bernoulli(source: PhotonNumberDistribution, eta) -> PhotonNumberDistribution:
    """The law of the detected photons: a table on the source's 0..n_max.

    A named source (``make_poisson``, ``make_multimode_thermal``,
    ``make_thermal``, ``make_fock``) gets the PMF of its law at eta
    evaluated on 0..n_max.  Any other source is a table and goes through
    the exact binomial kernel.  Both paths keep the source's n_max and lose
    no mass to underflow at any photon number.  The result is a table, so
    loss stages cascade:
    ``apply_bernoulli(apply_bernoulli(s, a), b)`` is s at efficiency a b.
    """
    eta = _check_eta(eta)
    if source._law is not None:
        pm = _on_grid(source._law(eta), source.n_max)
    else:
        pm = _binomial_mix(source.pmf, eta)
    return _finalize(pm, f"detected({source.label}, eta={eta:g})")


def sample_m(
    source: PhotonNumberDistribution, eta, rng: np.random.Generator, size
) -> np.ndarray:
    """Draw ``size`` detected counts at efficiency eta.

    A named source draws them from its law at eta in one call (see the
    module docstring); a count may then exceed n_max, with probability
    below the source's ``tail_eps``: the thinned law's mass past n_max is
    at most the source's, which its cut keeps below ``tail_eps``.  A table
    draws n by inverse CDF, then Binomial(n, eta).
    """
    eta = _check_eta(eta)
    if source._law is not None:
        return source._law(eta).draw(rng, size)
    return rng.binomial(sample_n(source, rng, size), eta)

"""Photon-number distributions: of the light entering the apparatus and
of the photons detected from it.

One type, ``PhotonNumberDistribution``, holds every photon-number law: a
source built here, and the detected law ``loss.apply_bernoulli`` returns,
which is a table like ``from_pmf``'s.  Its mean and central moments are
formed once, in ``_finalize``.

Every table of a named law is ``_on_grid``'s: the law's PMF on 0..n_max.
A source is cut at the farthest photon number whose Chernoff bound is at
most -log(tail_eps), so the mass it leaves out is below tail_eps; the PMF
is *not* renormalized.  No PMF is tabulated past ``MAX_N_MAX``: a law that
would need more entries is refused before any array is made.

A named family carries its law once, as a function of the efficiency eta:
binomial loss stays in the family, so Poisson(mu) thins to
Poisson(eta mu), the ``modes``-mode thermal NB(M, mu/M) to
NB(M, eta mu/M) and Fock(n) to Binomial(n, eta).  The law at eta is one
``_Law``: its PMF and bound, which ``loss.apply_bernoulli`` evaluates on
0..n_max instead of a kernel sum, its mean, and its draw rule, one numpy
call for a whole chunk of shots, which ``loss.sample_m`` uses instead of
drawing n and thinning it.  The source's own table is the law at eta = 1.
A table (``from_pmf``, or a detected law) carries no law, so a second loss
stage mixes it with the binomial kernel and samples it by inverse CDF.

The Poisson, binomial and negative-binomial PMFs are evaluated here in
numpy, in Loader's saddle-point form, and only where they do not
underflow; ``loss`` builds its table kernel from the same binomial PMF.
No command loads scipy (about a second to import): only the ``ndtr``
oracle ``reconstruction.expected_rebinned_pmf`` imports ``scipy.special``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .moments import ORDER_MAX, exact_sum, pmf_moments

DEFAULT_TAIL_EPS = 1e-12
# largest photon number at which a PMF is evaluated: 2^24 + 1 entries fill 128 MB
MAX_N_MAX = 2**24


@dataclass(frozen=True, eq=False)
class PhotonNumberDistribution:
    """Truncated photon-number PMF with its low-order statistics."""

    pmf: np.ndarray
    n_max: int
    mean_n: float
    central_moments: tuple  # mu_2(n)..mu_5(n)
    label: str
    # eta -> the _Law of the detected photons; None for tables
    _law: Callable[[float], _Law] | None = field(repr=False, default=None)

    def __post_init__(self):
        self.pmf.setflags(write=False)


def _finalize(pmf: np.ndarray, label: str, law=None) -> PhotonNumberDistribution:
    pmf = np.ascontiguousarray(pmf, dtype=float)
    mean, central = pmf_moments(pmf, order=ORDER_MAX)
    return PhotonNumberDistribution(
        pmf=pmf,
        n_max=pmf.size - 1,
        mean_n=mean,
        central_moments=central,
        label=label,
        _law=law,
    )


# Photon-number laws at integer arguments, in Loader's saddle-point form
# (C. Loader, "Fast and Accurate Computation of Binomial Probabilities",
# 2000; R's dbinom/dpois): each PMF is exp() of stirlerr and bd0 terms, so
# its relative error stays near rounding level far into the tails.

# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n) for n = 0..15
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
# a PMF whose bound exceeds this is 0.0 in double precision
_UNDERFLOW = 746.0


def _stirlerr(n):
    """stirlerr at integers n >= 0: the table, then the Stirling series."""
    n = np.asarray(n, dtype=float)
    r = 1.0 / np.maximum(n, _STIRLERR.size)
    r2 = r * r
    out = 1 / 1680 - r2 / 1188
    for c in (1 / 1260, 1 / 360, 1 / 12):
        out *= -r2
        out += c
    out *= r
    small = n < _STIRLERR.size
    if small.any():
        out = np.where(small, _STIRLERR[np.where(small, n, 0).astype(np.intp)], out)
    return out


def _bd0(x, m):
    """x log(x/m) + m - x for x, m >= 0, summed as a series where x is near m."""
    x, m = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(m, dtype=float))
    out = np.empty(x.shape)
    near = np.abs(x - m) < 0.5 * (x + m)
    xf, mf = x[~near], m[~near]
    with np.errstate(divide="ignore", invalid="ignore"):  # x > 0 = m gives +inf; 0/0 unused
        log_ratio = np.log(xf / mf, out=np.zeros(xf.shape), where=xf > 0)
    out[~near] = xf * log_ratio + mf - xf
    # near: (x - m) v + 2 x v sum_{j>=1} w^j / (2j + 1) with v = (x-m)/(x+m),
    # w = v^2 < 0.25, to the first power of max(w) below 1e-17
    xn, mn = x[near], m[near]
    v = (xn - mn) / (xn + mn)
    w = v * v
    terms = math.ceil(math.log(1e-17) / math.log(w.max(initial=1e-17)))
    acc = np.full(w.shape, 1.0 / (2 * terms + 1))
    for j in range(terms - 1, 0, -1):
        acc *= w
        acc += 1.0 / (2 * j + 1)
    acc *= w
    acc *= 2.0 * xn
    acc += xn - mn
    acc *= v
    out[near] = acc
    return out


def _poisson_pmf(k, mean):
    """Poisson(mean) PMF at integers k >= 0."""
    k = np.asarray(k, dtype=float)
    k1 = np.maximum(k, 1.0)
    pmf = np.exp(-_stirlerr(k1) - _bd0(k1, mean)) / np.sqrt(2 * math.pi * k1)
    return np.where(k == 0, math.exp(-mean), pmf)


def _binom_pmf(x, n, p, q):
    """Binomial(n, p) PMF at integers x (0 outside 0..n); q = 1 - p."""
    x, n = np.asarray(x, dtype=float), np.asarray(n, dtype=float)
    if p == 0 or q == 0:
        return (x == (0 * n if p == 0 else n)).astype(float)
    y = n - x
    inner = (x > 0) & (y > 0)
    xi, yi = (x, y) if inner.all() else (np.where(inner, x, 1.0), np.where(inner, y, 1.0))
    ni = xi + yi
    lc = _stirlerr(ni) - _stirlerr(xi) - _stirlerr(yi) - _bd0(xi, ni * p) - _bd0(yi, ni * q)
    pmf = np.exp(lc) * np.sqrt(ni / (2 * math.pi * xi * yi))
    if inner.all():
        return pmf
    pmf[~inner] = 0.0
    x, n = np.broadcast_arrays(x, n)
    for edge, a, b in ((x == 0, p, q), (y == 0, q, p)):  # q**n and p**n
        ne = n[edge]
        pmf[edge] = np.exp(-_bd0(ne, ne * b) - ne * a if a < 0.1 else ne * math.log(b))
    return pmf


def _binom_bound(x, n, p, q):
    """bd0(x, np) + bd0(n-x, nq), which is >= -log of the Binomial(n, p) PMF
    at x and, by the Chernoff bound, >= -log of its tail beyond x."""
    n = np.asarray(n, dtype=float)
    return _bd0(x, n * p) + _bd0(n - x, n * q)


def _nbinom_pmf(k, r, p, q):
    """NB(r, p) PMF at k >= 0: r/(r+k) Binomial(r | k+r, p)."""
    k = np.asarray(k, dtype=float)
    return r / (r + k) * _binom_pmf(r, k + r, p, q)


def _nbinom_bound(k, r, p, q):
    return _binom_bound(r, np.asarray(k, dtype=float) + r, p, q)


class _Law(NamedTuple):
    """A photon-number law: its PMF and bound at integers, its mean and its draw rule.

    exp(-bound) is at least the PMF and, beyond the mean, its tail;
    ``draw(rng, size)`` draws counts from the untruncated law in one numpy call.
    """

    pmf: Callable
    bound: Callable
    mean: float
    draw: Callable


def _poisson_law(mean, eta=1.0):
    """Poisson(mean) at efficiency eta: Poisson(eta mean)."""
    mu = eta * mean
    return _Law(
        partial(_poisson_pmf, mean=mu), partial(_bd0, m=mu), mu,
        lambda rng, size: rng.poisson(mu, size),
    )


def _nbinom_law(modes, mean, eta=1.0):
    """``modes`` thermal modes of total mean ``mean`` at efficiency eta.

    That is NB(modes, 1/(1+x)), with x = eta mean / modes per mode.
    """
    x = eta * mean / modes
    p = 1.0 / (1.0 + x)
    law = dict(r=modes, p=p, q=x / (1.0 + x))
    return _Law(
        partial(_nbinom_pmf, **law), partial(_nbinom_bound, **law), modes * x,
        lambda rng, size: rng.negative_binomial(modes, p, size),
    )


def _binom_law(n, eta=1.0):
    """Fock(n) at efficiency eta: Binomial(n, eta)."""
    law = dict(n=n, p=eta, q=1.0 - eta)
    return _Law(
        partial(_binom_pmf, **law), partial(_binom_bound, **law), n * eta,
        lambda rng, size: rng.binomial(n, eta, size),
    )


def _crossing(bound, inside, outside, limit):
    """Farthest integer from ``inside`` toward ``outside`` with bound <= limit.

    ``bound`` must be convex with bound(inside) <= limit; it is never
    evaluated at ``outside``.  Elementwise on arrays of start points.
    """
    inside, outside = np.broadcast_arrays(np.asarray(inside, np.int64), np.asarray(outside, np.int64))
    while np.any(np.abs(outside - inside) > 1):
        gap = outside - inside
        mid = inside + np.sign(gap) * (np.abs(gap) // 2)
        ok = bound(mid) <= limit
        inside, outside = np.where(ok, mid, inside), np.where(ok, outside, mid)
    return inside


def _evaluate(pmf, lo, hi):
    """pmf at lo..hi in blocks whose temporaries stay in cache."""
    block = 16384
    return np.concatenate([pmf(np.arange(a, min(a + block, hi + 1))) for a in range(lo, hi + 1, block)])


def _on_grid(law, n_max):
    """The law's PMF on 0..n_max, evaluated only where it does not underflow."""
    pmf, bound, mean, _ = law
    start = min(int(mean), n_max)
    lo = int(_crossing(bound, start, -1, _UNDERFLOW))
    hi = int(_crossing(bound, start, n_max + 1, _UNDERFLOW))
    out = np.zeros(n_max + 1)
    out[lo : hi + 1] = _evaluate(pmf, lo, hi)
    return out


def _truncated(law, tail_eps):
    """The law's PMF on 0..n_max, n_max the farthest photon number whose bound is <= -log(tail_eps).

    Beyond the mean, exp(-bound(k)) is a Chernoff bound on the mass at k
    and past it, so the mass past n_max is below exp(-bound(n_max + 1)) <
    tail_eps.  A law whose cut passes MAX_N_MAX raises
    InvalidParameterError before any entry is made.
    """
    bound, mean = law.bound, law.mean
    limit = -math.log(tail_eps)
    n_max = int(mean)  # the crossing starts there
    if n_max <= MAX_N_MAX:
        top = 2 * n_max + 2
        while bound(top) <= limit:
            top *= 2
        n_max = int(_crossing(bound, n_max, top, limit))
    if n_max > MAX_N_MAX:
        raise InvalidParameterError(
            f"a source of mean {mean:g} is too large to tabulate: its PMF "
            f"reaches photon number {n_max:g}, past MAX_N_MAX = {MAX_N_MAX}"
        )
    return _on_grid(law, n_max)


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
    law = partial(_poisson_law, mean)
    return _finalize(_truncated(law(), tail_eps), label, law)


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
    law = partial(_nbinom_law, modes, mean)
    return _finalize(_truncated(law(), tail_eps), label, law)


def make_thermal(mean, tail_eps: float = DEFAULT_TAIL_EPS) -> PhotonNumberDistribution:
    """Single-mode thermal (Bose-Einstein) photon statistics."""
    dist = make_multimode_thermal(mean, 1, tail_eps=tail_eps)
    return replace(dist, label=f"thermal(mean={float(mean):g})")


def make_fock(n) -> PhotonNumberDistribution:
    """Photon-number eigenstate: all mass at exactly ``n`` photons."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise InvalidParameterError(f"n must be a nonnegative integer, got {n!r}")
    n = int(n)
    if n > MAX_N_MAX:
        raise InvalidParameterError(f"fock n={n} is too large to tabulate: past MAX_N_MAX = {MAX_N_MAX}")
    law = partial(_binom_law, n)
    return _finalize(_on_grid(law(), n), f"fock(n={n})", law)


def from_pmf(table) -> PhotonNumberDistribution:
    """Normalized distribution from an arbitrary nonnegative table."""
    arr = np.asarray(table, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidParameterError("pmf table must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError("pmf table entries must be finite")
    if np.any(arr < 0):
        raise InvalidParameterError("pmf table entries must be nonnegative")
    total = exact_sum(arr)
    if total <= 0:
        raise InvalidParameterError("pmf table must contain at least one positive entry")
    arr = arr / total
    last = int(np.max(np.nonzero(arr)[0]))
    return _finalize(arr[: last + 1], f"pmf(len={last + 1})")


def sample_n(dist: PhotonNumberDistribution, rng: np.random.Generator, size) -> np.ndarray:
    """Draw ``size`` photon numbers by inverse-CDF lookup over the truncated PMF."""
    u = rng.random(size)
    return np.minimum(np.searchsorted(np.cumsum(dist.pmf), u, side="right"), dist.n_max)

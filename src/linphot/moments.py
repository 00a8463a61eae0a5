"""Moment and cumulant machinery.

:func:`exact_sum`, the correctly rounded sum every statistic of the
package is formed with; sample estimators; conversions between raw
moments, central moments and cumulants (orders up to 5); and the exact
voltage moments of a linear detector chain: a voltage sums the responses
to m detected photons plus baseline noise, so its cumulants follow from
those of m and of one response through K_v(t) = K_m(K_X(t)) + sigma0^2 t^2/2.
"""

from __future__ import annotations

import math
from math import comb
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import InvalidParameterError

if TYPE_CHECKING:
    from .detector import DarkNoiseModel, GainModel
    from .sources import PhotonNumberDistribution

ORDER_MIN = 2
ORDER_MAX = 5

# exact_sum: values per block (each temporary ~128 KB) and one bin per
# np.frexp exponent, -1073 (the smallest subnormal) .. 1024
_SUM_BLOCK = 2**14
_SUM_EXP_OFFSET = 1073
_SUM_BINS = _SUM_EXP_OFFSET + 1025


def _check_order(order) -> int:
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise InvalidParameterError(f"order must be an integer, got {order!r}")
    if not ORDER_MIN <= order <= ORDER_MAX:
        raise InvalidParameterError(
            f"order must be in [{ORDER_MIN}, {ORDER_MAX}], got {order}"
        )
    return int(order)


def _significand_bins(x: np.ndarray) -> np.ndarray | None:
    """Exact per-exponent sums of the two significand halves of finite ``x``; None if not finite.

    x = frac 2^e with 1/2 <= |frac| < 1 splits into the integers
    hi = trunc(frac 2^27) and lo = (frac 2^27 - hi) 2^26, so
    x = (hi 2^26 + lo) 2^(e - 53).  A block's bin sums stay below 2^41,
    so the float bincount adds them exactly, and the int64 totals hold
    below 2^36 values.
    """
    bins = np.zeros((2, _SUM_BINS), dtype=np.int64)
    for start in range(0, x.size, _SUM_BLOCK):
        block = x[start : start + _SUM_BLOCK]
        if not np.isfinite(block).all():
            return None
        frac, expo = np.frexp(block)
        expo += _SUM_EXP_OFFSET
        frac *= 2.0**27
        hi = np.trunc(frac)
        frac -= hi
        frac *= 2.0**26
        bins[0] += np.bincount(expo, hi, _SUM_BINS).astype(np.int64)
        bins[1] += np.bincount(expo, frac, _SUM_BINS).astype(np.int64)
    return bins


def exact_sum(values) -> float:
    """The correctly rounded sum of ``values``: bit for bit what ``math.fsum`` returns.

    The significands are summed exactly per binary exponent in numpy, one
    block of values at a time, then combined once as a Python int and
    rounded once by int true division.  Non-finite input and an exact zero
    go to ``math.fsum`` itself, which sets inf, nan, its errors and the
    sign of zero.  One case differs: where ``fsum`` raises "intermediate
    overflow" on a sum that fits ([1e308, 1e308, -1e308]), this returns
    the exact sum.  A sum beyond the float range raises OverflowError.
    """
    x = np.asarray(values, dtype=float).ravel()
    bins = _significand_bins(x)
    total = 0
    if bins is not None:
        used = np.flatnonzero(bins.any(axis=0))
        # one tolist of the occupied bins: numpy scalar indexing per bin is the slow part
        for i, hi, lo in zip(used.tolist(), *bins[:, used].tolist()):
            total += ((hi << 26) + lo) << i
    if total == 0:
        return math.fsum(x.tolist())
    return total / (1 << (_SUM_EXP_OFFSET + 53))


# ---------------------------------------------------------------------------
# pure conversions (plain arithmetic only, so they also work on Fractions or
# symbolic inputs)

def raw_moments_from_cumulants(kappa: Sequence) -> list:
    """Raw moments from cumulants via the standard recursion.

    mu'_j = kappa_j + sum_{s=1}^{j-1} C(j-1, s-1) kappa_s mu'_{j-s}
    """
    raw = []
    for j in range(1, len(kappa) + 1):
        total = kappa[j - 1]
        for s in range(1, j):
            total = total + comb(j - 1, s - 1) * kappa[s - 1] * raw[j - s - 1]
        raw.append(total)
    return raw


def cumulants_from_raw(raw: Sequence) -> list:
    """Exact inverse of :func:`raw_moments_from_cumulants`."""
    kappa = []
    for j in range(1, len(raw) + 1):
        total = raw[j - 1]
        for s in range(1, j):
            total = total - comb(j - 1, s - 1) * kappa[s - 1] * raw[j - s - 1]
        kappa.append(total)
    return kappa


def raw_from_central(mean, central: Sequence) -> list:
    """Raw moments mu'_1..mu'_order from the mean and mu_2..mu_order."""
    cen = [1, 0] + list(central)  # mu_0 = 1, mu_1 = 0
    raw = [mean]
    for r in range(2, len(cen)):
        raw.append(sum(comb(r, j) * cen[j] * mean ** (r - j) for j in range(r + 1)))
    return raw


def _partial_bell(x: Sequence, n: int, k: int):
    """Partial Bell polynomial B_{n,k}(x_1, x_2, ...), by the size of the block holding 1."""
    if n == 0 or k == 0:
        return 1 if n == k else 0
    return sum(
        comb(n - 1, i - 1) * x[i - 1] * _partial_bell(x, n - i, k - 1)
        for i in range(1, n - k + 2)
    )


def compound_cumulants(kappa_m: Sequence, kappa_x: Sequence, dark_variance=0) -> list:
    """Cumulants of v = X_1 + ... + X_m + D; m, the i.i.d. X_i and D independent.

    From kappa_1..kappa_r of m, at least r cumulants of X, and D zero-mean
    gaussian: K_v(t) = K_m(K_X(t)) + dark_variance t^2 / 2, that is
    kappa_r(v) = sum_j kappa_j(m) B_{r,j}(kappa_1(X), ...) + [r = 2] dark_variance.
    """
    return [
        sum(kappa_m[j - 1] * _partial_bell(kappa_x, r, j) for j in range(1, r + 1))
        + (dark_variance if r == 2 else 0)
        for r in range(1, len(kappa_m) + 1)
    ]


# ---------------------------------------------------------------------------
# containers

class MomentSet(NamedTuple):
    """Mean, central moments mu_2..mu_order and raw moments mu'_1..mu'_order."""

    order: int
    mean: float
    central: tuple
    raw: tuple

    @classmethod
    def from_central(cls, mean: float, central: Sequence[float]) -> "MomentSet":
        order = _check_order(len(central) + 1)
        central = tuple(float(c) for c in central)
        raw = tuple(float(r) for r in raw_from_central(float(mean), central))
        return cls(order=order, mean=float(mean), central=central, raw=raw)

    def central_moment(self, r: int) -> float:
        if r == 1:
            return 0.0
        return self.central[r - 2]

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "mean": self.mean,
            "central": {f"mu{r}": self.central[r - 2] for r in range(2, self.order + 1)},
            "raw": {f"mu{r}_raw": self.raw[r - 1] for r in range(1, self.order + 1)},
        }


# ---------------------------------------------------------------------------
# operations

def sample_moments(samples, order: int = 5) -> MomentSet:
    """Plug-in moment estimates of a sample.

    Two passes: the mean first, then all centered powers in a single sweep.
    Every sum is correctly rounded (:func:`exact_sum`), so high orders
    survive large means.
    """
    order = _check_order(order)
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise InvalidParameterError("samples must be one-dimensional")
    if x.size < 2:
        raise InvalidParameterError(f"need at least 2 samples, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError("samples must be finite")
    n = x.size
    mean = exact_sum(x) / n
    d = x - mean
    central = []
    power = d
    for _ in range(2, order + 1):
        power = power * d
        central.append(exact_sum(power) / n)
    return MomentSet.from_central(mean, central)


def pmf_moments(pmf, order: int = 5) -> tuple[float, tuple]:
    """Mean and central moments (2..order) of an integer-indexed PMF.

    The PMF is used as given (possibly summing to slightly less than one
    when truncated); no renormalization is applied.  The powers of k - mean
    are running products, as in :func:`sample_moments`: ``d**r`` calls libm
    ``pow`` for r >= 3, several times slower than a product.
    """
    order = _check_order(order)
    p = np.asarray(pmf, dtype=float)
    k = np.arange(p.size, dtype=float)
    mean = exact_sum(k * p)
    d = k - mean
    central = []
    power = d
    for _ in range(2, order + 1):
        power = power * d
        central.append(exact_sum(p * power))
    return mean, tuple(central)


def analytic_voltage_moments(
    detected: "PhotonNumberDistribution",
    gain: "GainModel",
    dark: "DarkNoiseModel",
    order: int = 5,
) -> MomentSet:
    """Exact mean and central moments of the voltage, by :func:`compound_cumulants`.

    ``detected`` is the law of the detected photons m, as
    ``loss.apply_bernoulli`` returns it; its ``mean_n`` and
    ``central_moments`` give kappa(m).  kappa_2.. of v return to central
    moments as the raw moments of a zero-mean variable, so no moment about
    zero of v is formed.  The cancellation in kappa_4(m) = mu_4 - 3 mu_2^2
    (and kappa_5) errs by the size of the 3 kappa_2(v)^2 that the way back
    adds again, so each mu_r(v) keeps the relative precision of the moments
    of m.  The PMF is not read.
    """
    order = _check_order(order)
    central_m = detected.central_moments[: order - 1]
    kappa_m = [detected.mean_n, *cumulants_from_raw([0.0, *central_m])[1:]]
    kappa_v = compound_cumulants(kappa_m, gain.cumulants, dark.sigma0**2)
    central = raw_moments_from_cumulants([0.0, *kappa_v[1:]])[1:]
    return MomentSet.from_central(kappa_v[0], central)

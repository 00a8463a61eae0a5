"""Moment and cumulant machinery.

:func:`exact_sum`, the correctly rounded sum every statistic of the
package is formed with, by error-free extraction (Rump, Ogita & Oishi,
"Accurate floating-point summation, part I", SIAM J. Sci. Comput. 31
(2008) 189-224); sample estimators, which reduce an ensemble in one
blocked sweep; conversions between raw
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

# exact sums: values per block (each work buffer 128 KB), and the integer
# totals' unit 2^-1074, of which every finite float is a multiple; a total
# of _OVERFLOW units or more rounds past the largest float
_SUM_BLOCK = 2**14
_TINY_EXP = -1074
_UNIT = 1 << -_TINY_EXP
_OVERFLOW = ((1 << 54) - 1) << (970 - _TINY_EXP)


def _check_order(order) -> int:
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise InvalidParameterError(f"order must be an integer, got {order!r}")
    if not ORDER_MIN <= order <= ORDER_MAX:
        raise InvalidParameterError(
            f"order must be in [{ORDER_MIN}, {ORDER_MAX}], got {order}"
        )
    return int(order)


def _slice(v: np.ndarray, e: int, nb: int, q: np.ndarray) -> int:
    """One error-free extraction from ``v``, fewer than 2^nb values with |v| <= 2^e.

    q = (v + s) - s with s = 2^(e+nb) goes to ``q``.  Each q is v rounded
    to a multiple of 2^(e+nb-53), so |q| <= 2^e and every partial sum of q
    is a multiple below 2^(e+nb): their sum is exact in any order.  Each
    v - q is exact, with |v - q| <= 2^(e+nb-53): the ExtractVector step of
    Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31 (2008) 189.  Returns the
    sum of q as an integer count of 2^-1074.
    """
    s = math.ldexp(1.0, e + nb)
    np.add(v, s, out=q)
    q -= s
    g = max(e + nb - 53, _TINY_EXP)
    return int(math.ldexp(np.add.reduce(q), -g)) << (g - _TINY_EXP)


def _block_sum(v: np.ndarray, e: int, slices: int, work: np.ndarray) -> tuple[int, int]:
    """The first ``slices`` extractions from a block ``v`` with |v| <= 2^e.

    Returns their exact sum and a bound on the sum of what is left, both as
    integer counts of 2^-1074.  ``work`` holds the residual; the last
    residual is not formed.  A block whose 2^(e+nb) would overflow sums its
    values from 1 up scaled by 2^-64, which is exact, and the rest as they are.
    """
    n = v.size
    nb = n.bit_length()
    if e + nb > 1023:
        big = np.where(np.abs(v) >= 1.0, v, 0.0)
        high = _block_sum(np.ldexp(big, -64), e - 64, slices, work)
        low = _block_sum(v - big, 0, slices, work)
        return (high[0] << 64) + low[0], (high[1] << 64) + low[1]
    rest = work[:n]
    total, src = 0, v
    for j in range(slices):
        last = j == slices - 1 or e + nb - 53 < _TINY_EXP
        q = rest if last or src is v else np.empty(n)
        total += _slice(src, e, nb, q)
        e += nb - 53
        if last:
            break
        np.subtract(src, q, out=rest)
        src = rest
        if j and not rest.any():  # only past two slices, where the check pays
            return total, 0
    # a residual below 2^-1074 is zero: every float is a multiple of it
    return total, 0 if e < _TINY_EXP else n << (e - _TINY_EXP)


def _rounded(units: int, n: int) -> float:
    """``units`` counts of 2^-1074 over ``n``, rounded once to the nearest float; inf past the float range."""
    if abs(units) < _OVERFLOW * n:
        return units / (n * _UNIT)
    return math.inf if units > 0 else -math.inf


def _exact_totals(sweep, n: int = 1) -> list:
    """The exact sums that ``sweep`` extracts, each over ``n``, correctly rounded.

    ``sweep(slices)`` takes that many extractions from every block and
    returns, per sum, the exact integer total T of the extractions and a
    bound B on the rest, both in counts of 2^-1074.  Correct rounding is
    monotone, so T/n rounds as T does once T - B and T + B round alike;
    until then the sweep is repeated with twice the slices, down to a zero
    rest.  An exact zero is 0.0, and a result past the float range +-inf.
    """
    slices = 2
    while True:
        totals = []
        for t, b in sweep(slices):
            if b and _rounded(t - b, n) != _rounded(t + b, n):
                break
            totals.append(_rounded(t, n))
        else:
            return totals
        slices *= 2


def _block_bounds(x: np.ndarray) -> tuple[list, list, bool]:
    """The min and the max of each block of ``x``, and whether all are finite.

    A block that holds nan has nan for both, one that holds inf has it in
    its min or its max.
    """
    starts = np.arange(0, x.size, _SUM_BLOCK)
    lo, hi = np.minimum.reduceat(x, starts).tolist(), np.maximum.reduceat(x, starts).tolist()
    return lo, hi, all(map(math.isfinite, lo + hi))


def _sum_sweep(x: np.ndarray, bounds: tuple[list, list, bool]):
    """The :func:`_exact_totals` sweep of the sum of a flat finite float array with its :func:`_block_bounds`."""
    lows, highs, _ = bounds
    work = np.empty(min(x.size, _SUM_BLOCK))

    def sweep(slices):
        total = bound = 0
        for lo, hi, start in zip(lows, highs, range(0, x.size, _SUM_BLOCK)):
            reach = max(hi, -lo)
            if reach:
                t, b = _block_sum(x[start : start + _SUM_BLOCK], math.frexp(reach)[1], slices, work)
                total, bound = total + t, bound + b
        return [(total, bound)]

    return sweep


def _exact_sum(x: np.ndarray, bounds: tuple[list, list, bool]) -> float:
    """:func:`exact_sum` of a flat float array with its :func:`_block_bounds`."""
    total = _exact_totals(_sum_sweep(x, bounds))[0] if bounds[2] else 0.0
    if math.isinf(total):
        raise OverflowError("the exact sum is past the float range")
    # non-finite input and an exact zero: fsum sets inf, nan, its errors and the sign of zero
    return total or math.fsum(x.tolist())


def exact_sum(values) -> float:
    """The correctly rounded sum of ``values``: bit for bit what ``math.fsum`` returns.

    Summation by error-free extraction (Rump, Ogita & Oishi, "Accurate
    floating-point summation, part I", SIAM J. Sci. Comput. 31 (2008)
    189-224): each block of values splits into a few slices whose sums are
    exact in numpy, combined as one Python int and rounded once by int true
    division (:func:`_exact_totals`).  Non-finite input and an exact zero
    go to ``math.fsum`` itself, which sets inf, nan, its errors and the
    sign of zero.  One case differs: where ``fsum`` raises "intermediate
    overflow" on a sum that fits ([1e308, 1e308, -1e308]), this returns
    the exact sum.  A sum beyond the float range raises OverflowError.
    """
    x = np.asarray(values, dtype=float).ravel()
    return _exact_sum(x, _block_bounds(x))


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
    """Mean and central moments mu_2..mu_order."""

    order: int
    mean: float
    central: tuple

    @classmethod
    def from_central(cls, mean: float, central: Sequence[float]) -> "MomentSet":
        order = _check_order(len(central) + 1)
        return cls(order=order, mean=float(mean), central=tuple(float(c) for c in central))

    def central_moment(self, r: int) -> float:
        if r == 1:
            return 0.0
        return self.central[r - 2]

    def to_dict(self) -> dict:
        """The moments with the raw moments mu'_1..mu'_order; a raw moment past the float range raises, naming its order."""
        raw = []
        for r in range(1, self.order + 1):
            try:  # mu'_r reads mu_2..mu_r only
                raw.append(float(raw_from_central(self.mean, self.central[: r - 1])[-1]))
            except OverflowError:  # a float power of the mean past the range
                raw.append(math.inf)
            if not math.isfinite(raw[-1]):
                raise InvalidParameterError(f"order {r}: the raw moment mu{r}_raw is past the float range")
        return {
            "order": self.order,
            "mean": self.mean,
            "central": {f"mu{r}": self.central[r - 2] for r in range(2, self.order + 1)},
            "raw": {f"mu{r}_raw": value for r, value in enumerate(raw, start=1)},
        }


# ---------------------------------------------------------------------------
# operations

def sample_moments(samples, order: int = 5) -> MomentSet:
    """Plug-in moment estimates of a sample.

    Two passes: the mean first, then all centered powers in a single sweep
    over blocks of 2^14 values.  Each block forms d = x - mean and the
    running powers d^2 .. d^order in block-sized buffers, with the
    roundings of full-length arrays, and extracts each power's exact sum
    as :func:`exact_sum` does (Rump, Ogita & Oishi 2008).  The bound a
    power's extraction needs is the running power of the block's max |d|,
    which the block's min and max give because rounding is monotone, so no
    power is scanned for its max.  The mean and each central moment are
    the exact sum over n rounded once, returned even where the sum is past
    the float range; an exact zero is 0.0.  An order whose powers pass the
    float range raises InvalidParameterError naming it.
    """
    order = _check_order(order)
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise InvalidParameterError("samples must be one-dimensional")
    if x.size < 2:
        raise InvalidParameterError(f"need at least 2 samples, got {x.size}")
    bounds = lows, highs, finite = _block_bounds(x)
    if not finite:
        raise InvalidParameterError("samples must be finite")
    n = x.size
    (mean,) = _exact_totals(_sum_sweep(x, bounds), n)
    d, power, work = np.empty((3, min(n, _SUM_BLOCK)))

    def sweep(slices):
        sums = [(0, 0)] * (order - 1)
        for lo, hi, start in zip(lows, highs, range(0, n, _SUM_BLOCK)):
            block = x[start : start + _SUM_BLOCK]
            db, pb = d[: block.size], power[: block.size]
            reach = top = max(hi - mean, mean - lo)  # max |d| over the block
            for r in range(order - 1):
                top *= reach  # max |d^(r+2)|, rounded as the powers are; checked before they are formed
                if math.isinf(top):
                    raise InvalidParameterError(f"order {r + 2}: the powers (x - mean)^{r + 2} overflow")
                if r:
                    pb *= db
                else:
                    np.multiply(np.subtract(block, mean, out=db), db, out=pb)
                if top:
                    t, b = _block_sum(pb, math.frexp(top)[1], slices, work)
                    sums[r] = (sums[r][0] + t, sums[r][1] + b)
        return sums

    return MomentSet.from_central(mean, _exact_totals(sweep, n))


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

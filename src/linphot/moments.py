"""Moment and cumulant machinery.

Sample estimators with compensated summation, conversions between raw
moments, central moments and cumulants (orders up to 5), cumulant scaling
for i.i.d. sums, and the closed-form voltage-moment engine for a linear
detector chain (per-photon gain spread plus zero-mean baseline noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    InsufficientDataError,
    InvalidParameterError,
    UnsupportedOrderError,
)

if TYPE_CHECKING:
    from .detector import DarkNoiseModel, GainModel
    from .loss import DetectedPhotonDistribution

ORDER_MIN = 2
ORDER_MAX = 5


def _check_order(order) -> int:
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise UnsupportedOrderError(f"order must be an integer, got {order!r}")
    if not ORDER_MIN <= order <= ORDER_MAX:
        raise UnsupportedOrderError(
            f"order must be in [{ORDER_MIN}, {ORDER_MAX}], got {order}"
        )
    return int(order)


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


def central_from_raw(raw: Sequence) -> list:
    """Central moments mu_2..mu_order from raw moments mu'_1..mu'_order."""
    mean = raw[0]
    rw = [1] + list(raw)  # mu'_0 = 1
    central = []
    for r in range(2, len(rw)):
        central.append(
            sum(comb(r, j) * rw[j] * (-mean) ** (r - j) for j in range(r + 1))
        )
    return central


# ---------------------------------------------------------------------------
# containers

@dataclass(frozen=True)
class MomentSet:
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

    @classmethod
    def from_raw(cls, raw: Sequence[float]) -> "MomentSet":
        order = _check_order(len(raw))
        raw = tuple(float(r) for r in raw)
        central = tuple(float(c) for c in central_from_raw(raw))
        return cls(order=order, mean=raw[0], central=central, raw=raw)

    def central_moment(self, r: int) -> float:
        if r == 1:
            return 0.0
        return self.central[r - 2]

    def raw_moment(self, r: int) -> float:
        return self.raw[r - 1]

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "mean": self.mean,
            "central": {f"mu{r}": self.central[r - 2] for r in range(2, self.order + 1)},
            "raw": {f"mu{r}_raw": self.raw[r - 1] for r in range(1, self.order + 1)},
        }


@dataclass(frozen=True)
class CumulantSet:
    """Cumulants kappa_1..kappa_order."""

    order: int
    kappa: tuple

    @classmethod
    def from_kappa(cls, kappa: Sequence[float]) -> "CumulantSet":
        order = _check_order(len(kappa))
        return cls(order=order, kappa=tuple(float(k) for k in kappa))


# ---------------------------------------------------------------------------
# operations

def sample_moments(samples, order: int = 5) -> MomentSet:
    """Plug-in moment estimates of a sample.

    Two passes: the mean first, then all centered powers in a single sweep.
    Sums use compensated (exact) accumulation so high orders survive large
    means.
    """
    order = _check_order(order)
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise InvalidParameterError("samples must be one-dimensional")
    if x.size < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError("samples must be finite")
    n = x.size
    mean = math.fsum(x) / n
    d = x - mean
    central = []
    power = d
    for _ in range(2, order + 1):
        power = power * d
        central.append(math.fsum(power) / n)
    return MomentSet.from_central(mean, central)


def moments_from_cumulants(c: CumulantSet) -> MomentSet:
    """Raw and central moments from a cumulant set (recursion, order <= 5)."""
    _check_order(c.order)
    return MomentSet.from_raw(raw_moments_from_cumulants(c.kappa))


def cumulants_from_moments(m: MomentSet) -> CumulantSet:
    """Exact algebraic inverse of :func:`moments_from_cumulants`."""
    _check_order(m.order)
    return CumulantSet.from_kappa(cumulants_from_raw(m.raw))


def scale_cumulants(c: CumulantSet, k: int) -> CumulantSet:
    """Cumulants of a sum of ``k`` i.i.d. copies: every kappa_r times k."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise InvalidParameterError(f"k must be a nonnegative integer, got {k!r}")
    if k < 0:
        raise InvalidParameterError(f"k must be a nonnegative integer, got {k}")
    return CumulantSet(order=c.order, kappa=tuple(float(k) * x for x in c.kappa))


def pmf_moments(pmf, order: int = 5) -> tuple[float, tuple]:
    """Mean and central moments (2..order) of an integer-indexed PMF.

    The PMF is used as given (possibly summing to slightly less than one
    when truncated); no renormalization is applied.
    """
    order = _check_order(order)
    p = np.asarray(pmf, dtype=float)
    k = np.arange(p.size, dtype=float)
    mean = math.fsum(k * p)
    d = k - mean
    central = tuple(math.fsum(p * d**r) for r in range(2, order + 1))
    return mean, central


def analytic_voltage_moments(
    detected: "DetectedPhotonDistribution",
    gain: "GainModel",
    dark: "DarkNoiseModel",
    order: int = 5,
) -> MomentSet:
    """Exact central moments of the output voltage mixture.

    Conditioned on k detected photons the voltage is the sum of k i.i.d.
    gain draws plus the baseline draw, so its cumulants are k times the
    gain cumulants plus the baseline cumulants.  The mixture moments are
    accumulated about the overall mean (each component contributes its own
    central moments shifted by its mean offset), which avoids the
    cancellation between mean-power terms that plagues the raw-moment
    expansion when the mean voltage dwarfs the spread.
    """
    order = _check_order(order)
    p = detected.pmf
    k = np.arange(p.size, dtype=float)
    kap = gain.cumulants  # kappa_1..kappa_5 of a single gain draw
    s0sq = dark.sigma0**2

    # component cumulants (dark is zero-mean gaussian: only kappa_2 adds)
    K2 = k * kap[1] + s0sq
    K3 = k * kap[2]
    K4 = k * kap[3]
    K5 = k * kap[4]

    comp_central = {
        2: K2,
        3: K3,
        4: K4 + 3.0 * K2**2,
        5: K5 + 10.0 * K3 * K2,
    }

    mean_v = gain.gamma_bar * detected.mean_m
    delta = k * gain.gamma_bar - mean_v
    central = []
    for r in range(2, order + 1):
        vals = delta**r
        for j in range(2, r + 1):
            vals = vals + comb(r, j) * comp_central[j] * delta ** (r - j)
        central.append(math.fsum(p * vals))
    return MomentSet.from_central(mean_v, central)


def narrow_gain_moments(
    detected: "DetectedPhotonDistribution", gamma_bar: float, order: int = 5
) -> MomentSet:
    """Narrow-gain scaling approximation: mu_r(v) = gamma_bar^r mu_r(m)."""
    order = _check_order(order)
    if not (gamma_bar > 0 and math.isfinite(gamma_bar)):
        raise InvalidParameterError(f"gamma_bar must be positive, got {gamma_bar}")
    central = tuple(
        gamma_bar**r * detected.central_moments[r - 2] for r in range(2, order + 1)
    )
    return MomentSet.from_central(gamma_bar * detected.mean_m, central)

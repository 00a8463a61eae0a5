"""Reference estimators that the tests compare the package against.

``block_jackknife_se`` is a model-free standard error: it re-evaluates a
statistic on each leave-one-block-out copy of the data.
``write_ensemble_csv`` writes the blind-import ensemble CSV format, which
the package reads but no longer writes.  ``mixture_voltage_moments`` is
the voltage moments summed component by component over the detected PMF,
the reference for the package's compound-cumulant map.
``fsum_pmf_statistics``, ``fsum_eta_point`` and ``fsum_sample_moments``
form the package's PMF, sweep-point and sample statistics over whole
arrays with ``math.fsum`` sums, the reference for its ``moments.exact_sum``
and the blocked sweep of ``moments.sample_moments``.  ``analytic_pv_gaussian`` and
``analytic_pv_cdf_gaussian`` are the closed-form voltage density and CDF
for gaussian gains; ``detected_fano`` is mu_2(m)/<m>; ``CumulantSet``,
``moments_from_cumulants`` and ``cumulants_from_moments`` convert between
cumulants and a ``MomentSet``, which ``moment_set_from_raw`` forms from raw
moments by ``central_from_raw``; ``gain_central_moments`` is mu_2..mu_5 of
one gain draw; ``default_eta_series`` is an equally spaced efficiency
ladder; ``validate`` asserts the invariants of a photon-number law.
``broadcast_ensemble_samples`` draws ``simulate_ensemble``'s voltages with
numpy's broadcasting ``normal`` and ``gamma`` samplers, the reference for
its in-place gain sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

import numpy as np

from linphot.calibration import EtaSeriesPoint
from linphot.errors import InvalidParameterError, LinphotError
from linphot.loss import sample_m
from linphot.moments import (
    MomentSet,
    _check_order,
    cumulants_from_raw,
    exact_sum,
    pmf_moments,
    raw_moments_from_cumulants,
)
from linphot.reconstruction import _gaussian_components
from linphot.sources import DEFAULT_TAIL_EPS
from linphot.streams import chunk_sizes, substream


def block_jackknife_se(data, stat: Callable, n_blocks: int = 20) -> float:
    """Standard error of ``stat`` by non-overlapping block jackknife.

    ``data`` is sliced along axis 0; ``stat`` receives the retained rows.
    """
    x = np.asarray(data, dtype=float)
    if x.shape[0] < 2:
        raise InvalidParameterError("need at least 2 samples for a jackknife")
    b = min(int(n_blocks), x.shape[0])
    edges = np.linspace(0, x.shape[0], b + 1).astype(int)
    thetas = np.array(
        [
            stat(np.concatenate((x[:lo], x[hi:]), axis=0))
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
    )
    return float(np.sqrt((b - 1) / b * np.sum((thetas - thetas.mean()) ** 2)))


def write_ensemble_csv(path, ensemble, **header) -> None:
    """Write ``ensemble`` as an ensemble CSV.

    ``# key=value`` lines (eta, seed, n_samples, then ``header``), then the
    samples as ``np.savetxt(fmt="%.17e")`` writes them, one per line.
    """
    lines = {"eta": repr(ensemble.eta), "seed": ensemble.seed, "n_samples": ensemble.n_samples, **header}
    with open(path, "w") as fh:
        fh.writelines(f"# {key}={value}\n" for key, value in lines.items())
        np.savetxt(fh, ensemble.samples, fmt="%.17e")


def mixture_voltage_moments(detected, gain, dark, order: int = 5) -> tuple[float, list]:
    """Mean and central moments mu_2..mu_order of the voltage, as a mixture over m.

    Given k detected photons the voltage is k gain draws plus the dark
    draw, a component with cumulants k kappa_r(gain) (+ sigma0^2 at r = 2).
    Each component's central moments are shifted to the overall mean and
    summed with weight pmf[k].
    """
    p = detected.pmf
    k = np.arange(p.size, dtype=float)
    kap = gain.cumulants
    K2 = k * kap[1] + dark.sigma0**2
    K3 = k * kap[2]
    comp_central = {2: K2, 3: K3, 4: k * kap[3] + 3.0 * K2**2, 5: k * kap[4] + 10.0 * K3 * K2}
    mean_v = gain.gamma_bar * detected.mean_n
    delta = k * gain.gamma_bar - mean_v
    central = []
    for r in range(2, order + 1):
        vals = delta**r
        for j in range(2, r + 1):
            vals = vals + comb(r, j) * comp_central[j] * delta ** (r - j)
        central.append(math.fsum(p * vals))
    return mean_v, central


def fsum_pmf_statistics(pmf, order: int = 5) -> tuple[float, tuple, float]:
    """Mean, central moments mu_2..mu_order and tail mass 1 - sum of a PMF, each sum a ``math.fsum``.

    The terms p d^r are formed as the package forms them, d^r by running
    products, so only the summation differs.
    """
    p = np.asarray(pmf, dtype=float)
    k = np.arange(p.size, dtype=float)
    mean = math.fsum(k * p)
    d = k - mean
    central = []
    power = d
    for _ in range(2, order + 1):
        power = power * d
        central.append(math.fsum(p * power))
    return mean, tuple(central), max(0.0, 1.0 - math.fsum(p))


def fsum_eta_point(eta: float, samples, dark_variance: float = 0.0) -> EtaSeriesPoint:
    """The sweep point of ``samples``: mean and mu2 by ``math.fsum``, the fano SE by ``np.std``."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    mean = math.fsum(x) / n
    d = x - mean
    mu2 = math.fsum(d**2) / n
    fano = (mu2 - dark_variance) / mean
    se_fano = float(np.std(d * (d - fano))) / (abs(mean) * math.sqrt(n))
    return EtaSeriesPoint(float(eta), mean, fano, math.sqrt(mu2 / n), se_fano, n)


def fsum_sample_moments(samples, order: int = 5) -> MomentSet:
    """``sample_moments`` over the whole array at once: d = x - mean, running powers, each sum a ``math.fsum``."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    mean = math.fsum(x.tolist()) / n
    d = x - mean
    central = []
    power = d
    for _ in range(2, order + 1):
        power = power * d
        central.append(math.fsum(power.tolist()) / n)
    return MomentSet.from_central(mean, central)


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


def analytic_pv_gaussian(detected, gain, dark, v_grid) -> np.ndarray:
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


def analytic_pv_cdf_gaussian(detected, gain, dark, v) -> np.ndarray:
    """CDF of the gaussian-mixture voltage density (for distribution tests)."""
    from scipy.special import ndtr

    p, centers, var = _gaussian_components(detected, gain, dark)
    return _mixture_eval(v, p, centers, var, lambda z, sd: ndtr(z))


class UndefinedStatisticError(LinphotError, ArithmeticError):
    """The requested statistic is undefined for this distribution."""


def detected_fano(dist) -> float:
    """Variance-to-mean ratio mu_2(m)/<m> of the detected counts."""
    if dist.mean_n <= 0:
        raise UndefinedStatisticError("fano ratio undefined for <m> = 0")
    return dist.central_moments[0] / dist.mean_n


@dataclass(frozen=True)
class CumulantSet:
    """Cumulants kappa_1..kappa_order."""

    order: int
    kappa: tuple

    @classmethod
    def from_kappa(cls, kappa: Sequence[float]) -> "CumulantSet":
        order = _check_order(len(kappa))
        return cls(order=order, kappa=tuple(float(k) for k in kappa))


def central_from_raw(raw: Sequence) -> list:
    """Central moments mu_2..mu_order from raw moments mu'_1..mu'_order."""
    mean = raw[0]
    rw = [1] + list(raw)  # mu'_0 = 1
    return [sum(comb(r, j) * rw[j] * (-mean) ** (r - j) for j in range(r + 1)) for r in range(2, len(rw))]


def moment_set_from_raw(raw: Sequence[float]) -> MomentSet:
    """The ``MomentSet`` of raw moments mu'_1..mu'_order."""
    order = _check_order(len(raw))
    raw = tuple(float(r) for r in raw)
    central = tuple(float(c) for c in central_from_raw(raw))
    return MomentSet(order=order, mean=raw[0], central=central, raw=raw)


def moments_from_cumulants(c: CumulantSet) -> MomentSet:
    """Raw and central moments from a cumulant set (recursion, order <= 5)."""
    _check_order(c.order)
    return moment_set_from_raw(raw_moments_from_cumulants(c.kappa))


def cumulants_from_moments(m: MomentSet) -> CumulantSet:
    """Exact algebraic inverse of :func:`moments_from_cumulants`."""
    _check_order(m.order)
    return CumulantSet.from_kappa(cumulants_from_raw(m.raw))


def gain_central_moments(gain) -> tuple:
    """Central moments mu_2..mu_5 of one gain draw, from its cumulants."""
    return tuple(central_from_raw(raw_moments_from_cumulants(gain.cumulants)))


def default_eta_series(eta_max: float, count: int = 10) -> list[float]:
    """Equally spaced efficiency ladder from 0.05*eta_max to eta_max."""
    return list(np.linspace(0.05 * eta_max, eta_max, count))


def mandel_q(dist):
    """Mandel's Q = mu_2 / <n> - 1 of a photon-number law; None for the vacuum."""
    return dist.central_moments[0] / dist.mean_n - 1.0 if dist.mean_n > 0 else None


def validate(dist, tail_eps: float = DEFAULT_TAIL_EPS) -> None:
    """Assert the structural invariants of a photon-number law; AssertionError on breach."""
    total = exact_sum(dist.pmf)
    assert np.all(dist.pmf >= 0)
    assert 1.0 - dist.tail_mass - 1e-15 <= total <= 1.0 + 1e-15
    assert dist.tail_mass <= tail_eps
    mean, central = pmf_moments(dist.pmf, order=2)
    assert abs(mean - dist.mean_n) <= 1e-12 * max(1.0, abs(mean))
    assert central[0] == dist.central_moments[0]


def broadcast_ensemble_samples(source, eta, gain, dark, n_samples, seed, stream_key=()) -> np.ndarray:
    """The voltages of ``simulate_ensemble``, each chunk's gain sums drawn by broadcasting.

    Per chunk substream: the detected counts m, then Normal(m gamma_bar,
    sigma sqrt(m)) or Gamma(m k, theta) in one broadcast call (m gamma_bar
    for sigma = 0), plus the dark noise; the chunks are concatenated.
    """
    chunks = []
    for ci, size in enumerate(chunk_sizes(n_samples)):
        rng = substream(seed, tuple(stream_key) + (ci,))
        m = sample_m(source, eta, rng, size=size)
        if gain.sigma2 == 0.0:
            v = m * gain.gamma_bar
        elif gain.family == "gaussian":
            v = rng.normal(m * gain.gamma_bar, gain.sigma * np.sqrt(m))
        else:
            v = rng.gamma(m * (gain.gamma_bar**2 / gain.sigma2), gain.sigma2 / gain.gamma_bar)
        dark_v = np.zeros(size) if dark.sigma0 == 0.0 else rng.normal(0.0, dark.sigma0, size)
        chunks.append(v + dark_v)
    return np.concatenate(chunks)

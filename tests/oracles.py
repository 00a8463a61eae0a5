"""Reference estimators that the tests compare the package against.

``block_jackknife_se`` is a model-free standard error: it re-evaluates a
statistic on each leave-one-block-out copy of the data.
``write_ensemble_csv`` writes the blind-import ensemble CSV format, which
the package reads but no longer writes.  ``mixture_voltage_moments`` is
the voltage moments summed component by component over the detected PMF,
the reference for the package's compound-cumulant map.
"""

from __future__ import annotations

import math
from math import comb
from typing import Callable

import numpy as np

from linphot.errors import InsufficientDataError


def block_jackknife_se(data, stat: Callable, n_blocks: int = 20) -> float:
    """Standard error of ``stat`` by non-overlapping block jackknife.

    ``data`` is sliced along axis 0; ``stat`` receives the retained rows.
    """
    x = np.asarray(data, dtype=float)
    if x.shape[0] < 2:
        raise InsufficientDataError("need at least 2 samples for a jackknife")
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
    mean_v = gain.gamma_bar * detected.mean_m
    delta = k * gain.gamma_bar - mean_v
    central = []
    for r in range(2, order + 1):
        vals = delta**r
        for j in range(2, r + 1):
            vals = vals + comb(r, j) * comp_central[j] * delta ** (r - j)
        central.append(math.fsum(p * vals))
    return mean_v, central

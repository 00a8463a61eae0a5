"""Reference estimators that the tests compare the package against.

``block_jackknife_se`` is a model-free standard error: it re-evaluates a
statistic on each leave-one-block-out copy of the data.
``write_ensemble_csv`` writes the blind-import ensemble CSV format, which
the package reads but no longer writes.
"""

from __future__ import annotations

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

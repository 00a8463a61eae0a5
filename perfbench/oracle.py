"""Closed-form oracles and the correctness checks applied to a run directory.

The detected-photon PMF is taken from ``scipy.stats`` closed forms, never
from ``linphot.loss``: thinning Poisson(mean) with efficiency eta gives
Poisson(eta * mean), and thinning single-mode thermal light gives a
geometric law (negative binomial with one mode) of mean eta * mean.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

TV_TOLERANCE = 1e-6
N_SE = 5.0


def detected_distribution(source: dict, eta: float):
    """Frozen scipy distribution of the detected count for a source spec."""
    mu = eta * float(source["mean"])
    if source["kind"] == "poisson":
        return stats.poisson(mu)
    if source["kind"] == "thermal":
        return stats.nbinom(1, 1.0 / (1.0 + mu))
    raise ValueError(f"no closed-form oracle for source kind {source['kind']!r}")


def tv_to_oracle(pmf_hat: np.ndarray, dist) -> float:
    """Total-variation distance from ``pmf_hat`` (support 0..K-1) to ``dist``."""
    m = np.arange(pmf_hat.size)
    inside = math.fsum(np.abs(pmf_hat - dist.pmf(m)))
    return 0.5 * (inside + float(dist.sf(pmf_hat.size - 1)))


def read_pm_csv(path) -> np.ndarray:
    rows = [
        line.split(",")
        for line in Path(path).read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("m,")
    ]
    return np.array([float(r[1]) for r in rows])


def _verdicts(cal: dict, pm: dict):
    """Every non-null verdict in calibration.json and pm_metrics.json.

    A missing fit is counted once, by ``check_run_dir``.
    """
    fit = cal.get("fit")
    if fit is not None:
        yield "calibration.json fit.valid", bool(fit.get("valid"))
    for name, check in sorted((cal.get("checks") or {}).items()):
        if check is not None:
            yield f"calibration.json checks.{name}.passed", bool(check.get("passed"))
    consistency = pm.get("self_consistency")
    if consistency is not None:
        yield "pm_metrics.json self_consistency.passed", bool(consistency.get("passed"))


def check_run_dir(out_dir, config: dict) -> tuple[list, float | None]:
    """Check a finished ``linphot run`` directory against the oracles.

    Returns ``(checks, tv_oracle)`` where each check is ``(name, ok, detail)``
    and ``tv_oracle`` is the TV distance of pm.csv from the closed form.
    """
    out = Path(out_dir)
    try:
        cal = json.loads((out / "calibration.json").read_text())
        pm = json.loads((out / "pm_metrics.json").read_text())
        pmf_hat = read_pm_csv(out / "pm.csv")
    except (OSError, ValueError, IndexError) as exc:
        return [("run artifacts readable", False, repr(exc))], None
    checks = [(name, ok, "") for name, ok in _verdicts(cal, pm)]

    eta = float(config.get("reconstruct_eta", max(config["eta_series"])))
    tv_oracle = tv_to_oracle(pmf_hat, detected_distribution(config["source"], eta))
    tv_run = pm.get("tv_distance")
    ok = tv_run is not None and abs(tv_run - tv_oracle) <= TV_TOLERANCE
    checks.append(
        ("tv_distance agrees with oracle", ok, f"pm_metrics {tv_run!r} vs oracle {tv_oracle!r}")
    )

    fit = cal.get("fit")
    if fit is None:
        checks.append(("calibration fit present", False, cal.get("fit_error") or ""))
        return checks, tv_oracle
    gain = config["gain"]
    expected = gain["gamma_bar"] * (1.0 + (gain["sigma"] / gain["gamma_bar"]) ** 2)
    z = (fit["intercept"] - expected) / fit["intercept_se"]
    checks.append(
        (f"intercept within {N_SE:g} SE of gamma_bar(1+sigma^2/gamma_bar^2)", abs(z) <= N_SE, f"z = {z:.3g}")
    )
    z = fit["slope"] / fit["slope_se"]
    if config["source"]["kind"] == "poisson":
        checks.append((f"|slope| within {N_SE:g} SE (coherent light)", abs(z) <= N_SE, f"z = {z:.3g}"))
    else:
        checks.append((f"slope above {N_SE:g} SE (thermal light)", z > N_SE, f"z = {z:.3g}"))
    return checks, tv_oracle

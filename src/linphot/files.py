"""On-disk interchange formats: ensemble CSV, P_m CSV and JSON artifacts.

Ensemble CSV: ``# key=value`` header lines (eta, required, then seed and
gain_scale), then one voltage per line in full-precision scientific
notation.  JSON artifacts are written with sorted keys so repeated runs
are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .detector import VoltageEnsemble
from .errors import InvalidParameterError
from .reconstruction import ReconstructionResult


def write_ensemble_csv(path, ensemble: VoltageEnsemble, extra_header: dict | None = None) -> None:
    path = Path(path)
    headers = [
        ("eta", repr(ensemble.eta)),
        ("seed", str(ensemble.seed)),
        ("gain_scale", repr(ensemble.gain_scale)),
        ("n_samples", str(ensemble.n_samples)),
    ]
    for key, value in (extra_header or {}).items():
        headers.append((key, str(value)))
    with open(path, "w") as fh:
        for key, value in headers:
            fh.write(f"# {key}={value}\n")
        np.savetxt(fh, ensemble.samples, fmt="%.17e")


def read_ensemble_csv(path) -> VoltageEnsemble:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"ensemble file not found: {path}")
    meta = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
    if "eta" not in meta:
        raise InvalidParameterError(f"ensemble file has no '# eta=' header: {path}")
    samples = np.loadtxt(path, comments="#", ndmin=1)
    if samples.size == 0:
        raise InvalidParameterError(f"ensemble file has no samples: {path}")
    return VoltageEnsemble(
        samples=samples,
        eta=float(meta["eta"]),
        n_samples=samples.size,
        seed=int(meta.get("seed", 0)),
        gain_scale=float(meta.get("gain_scale", 1.0)),
    )


def write_pm_csv(path, result: ReconstructionResult, extra_header: dict) -> None:
    """Write the rebinned P_m table; ``extra_header`` lines come first."""
    with open(path, "w") as fh:
        for key, value in extra_header.items():
            fh.write(f"# {key}={value}\n")
        fh.write(f"# gamma_bar={result.gamma_bar_used!r}\n")
        fh.write(f"# n_samples={result.n_samples}\n")
        fh.write("m,pmf_hat,count\n")
        for m, (p, c) in enumerate(zip(result.pmf_hat, result.counts)):
            fh.write(f"{m},{p:.17e},{c}\n")


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path):
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"file not found: {path}")
    return json.loads(path.read_text())

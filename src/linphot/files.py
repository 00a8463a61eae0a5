"""On-disk interchange formats: ensemble CSV, P_m CSV and JSON artifacts.

Ensemble CSV: ``# key=value`` header lines (eta, required, then seed and
n_samples), then one voltage per line; a ``gain_scale`` line in a file
written by an earlier version is read and ignored.  The sample format
is fixed byte for byte: each line is ``"%.17e\n" % v``, exactly what
``np.savetxt(fmt="%.17e")`` writes, so every sample reads back bit for bit.
A file whose ``n_samples`` header disagrees with its sample lines, or
whose last line is unterminated, is rejected as truncated.  P_m CSV:
``# key=value`` headers, then ``m,pmf_hat,count`` rows.  In a JSON
artifact each result's keys are its dataclass's fields
(``dataclasses.asdict``), written by :func:`canonical_json` (sorted keys) so
repeated runs are byte-identical.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .detector import VoltageEnsemble
from .errors import InvalidParameterError
from .reconstruction import ReconstructionResult

# samples formatted per write: bounds the memory of the Python floats
CSV_BLOCK = 4096


def write_ensemble_csv(path, ensemble: VoltageEnsemble, extra_header: dict | None = None) -> None:
    path = Path(path)
    headers = [
        ("eta", repr(ensemble.eta)),
        ("seed", str(ensemble.seed)),
        ("n_samples", str(ensemble.n_samples)),
    ]
    for key, value in (extra_header or {}).items():
        headers.append((key, str(value)))
    with open(path, "w") as fh:
        for key, value in headers:
            fh.write(f"# {key}={value}\n")
        samples = ensemble.samples
        for lo in range(0, samples.size, CSV_BLOCK):
            block = samples[lo : lo + CSV_BLOCK].tolist()
            fh.write("".join(["%.17e\n" % v for v in block]))


def _split_header(lines) -> tuple[dict, list]:
    """The leading ``# key=value`` lines as a dict, and the lines after them."""
    meta = {}
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            return meta, lines[i:]
        key, sep, value = line[1:].partition("=")
        if sep:
            meta[key.strip()] = value.strip()
    return meta, []


def read_ensemble_csv(path) -> VoltageEnsemble:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"ensemble file not found: {path}")
    # newline="" splits lines as text mode does but keeps each terminator
    with open(path, newline="") as fh:
        meta, _ = _split_header(list(itertools.takewhile(lambda line: line.startswith("#"), fh)))
    if "eta" not in meta:
        raise InvalidParameterError(f"ensemble file has no '# eta=' header: {path}")
    try:
        # loadtxt streams a path through its C reader; the header lines are comments
        samples = np.loadtxt(path, comments="#", ndmin=1)
    except ValueError as exc:
        raise InvalidParameterError(f"ensemble file has a malformed voltage line: {path}: {exc}") from exc
    if samples.size == 0:
        raise InvalidParameterError(f"ensemble file has no samples: {path}")
    if "n_samples" in meta:
        # a file cut inside its last line still holds n_samples numbers
        with open(path, "rb") as fh:
            fh.seek(-1, 2)
            complete = fh.read(1) == b"\n"
        if meta["n_samples"] != str(samples.size) or not complete:
            raise InvalidParameterError(
                f"ensemble file is truncated: header n_samples={meta['n_samples']}, "
                f"{samples.size} voltage lines read"
                f"{'' if complete else ', the last one unterminated'}: {path}"
            )
    return VoltageEnsemble(
        samples=samples,
        eta=float(meta["eta"]),
        n_samples=samples.size,
        seed=int(meta.get("seed", 0)),
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


def read_pm_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a P_m table back as ``(pmf_hat, counts)``.

    A row other than ``m,pmf_hat,count`` with m = 0, 1, ..., or counts that
    do not sum to the ``# n_samples=`` header, raise InvalidParameterError.
    """
    meta, body = _split_header(Path(path).read_text().splitlines())
    rows = [line.split(",") for line in body[1:]]
    try:
        if body[:1] != ["m,pmf_hat,count"]:
            raise ValueError("no m,pmf_hat,count line after the header")
        for m, row in enumerate(rows):
            if len(row) != 3 or int(row[0]) != m:
                raise ValueError(f"row {m} is {','.join(row)!r}, not {m},pmf_hat,count")
        pmf_hat = np.array([float(row[1]) for row in rows])
        counts = np.array([int(row[2]) for row in rows], dtype=np.int64)
    except ValueError as exc:
        raise InvalidParameterError(f"pm file has a malformed row: {path}: {exc}") from exc
    if meta.get("n_samples") != str(counts.sum()):
        raise InvalidParameterError(
            f"pm file is truncated: header n_samples={meta.get('n_samples')}, "
            f"counts sum to {counts.sum()}: {path}"
        )
    return pmf_hat, counts


def canonical_json(obj) -> str:
    """The one JSON text form of every artifact: sorted keys, 2-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj))


def read_json(path):
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"invalid JSON in {path}: {exc}") from exc

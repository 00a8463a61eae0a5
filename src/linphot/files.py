"""On-disk interchange formats: ensembles, P_m CSV and JSON artifacts.

An ensemble is written as ``<stem>.npy``, the samples as little-endian
float64 exactly as ``np.save`` writes them (format version 1.0), plus the
sidecar ``<stem>.json`` holding ``eta``, ``seed``, ``n_samples`` and
``config_sha256``.  :func:`read_ensemble` is the one ensemble reader; it
also reads the blind-import CSV format: ``# key=value`` header lines (eta,
required, then seed and n_samples; a ``gain_scale`` line written by an
earlier version is ignored), then one voltage per line, such as
``np.savetxt(fmt="%.17e")`` writes, so that every sample reads back bit
for bit.  A file whose sample count disagrees with its header or sidecar,
that is cut short or carries bytes past its samples is rejected.  P_m CSV
(:func:`pm_csv_text`): ``# key=value`` headers, then ``m,pmf_hat,count``
rows; nothing reads it back, since ``check`` renders it again and compares
bytes.  Every JSON artifact is exactly one dataclass (``config.RunConfig``,
``pipeline.CalibrationRecord``, ``pipeline.PmMetrics``) written with
``dataclasses.asdict`` by :func:`canonical_json` (sorted keys), so repeated
runs are byte-identical.
"""

from __future__ import annotations

import itertools
import json
import re
import warnings
from pathlib import Path

import numpy as np

from .detector import VoltageEnsemble
from .errors import InvalidParameterError
from .reconstruction import ReconstructionResult

# What np.save writes before a version 1.0 header; the header is a dict
# literal with sorted keys, space-padded and ended by a newline.
_NPY_MAGIC = b"\x93NUMPY\x01\x00"
_NPY_HEADER = rb"\{'descr': '([^']*)', 'fortran_order': (?:False|True), 'shape': \(([^)]*)\), \} *\n"


def _sidecar(path: Path) -> Path:
    return path.with_suffix(".json")


def write_ensemble(path, ensemble: VoltageEnsemble, config_sha256: str | None) -> Path:
    """Write ``ensemble`` as the ``.npy`` ``path`` and its JSON sidecar; return the sidecar's path."""
    path = Path(path)
    with open(path, "wb") as fh:
        np.save(fh, ensemble.samples.astype("<f8", copy=False), allow_pickle=False)
    meta = {
        "config_sha256": config_sha256,
        "eta": ensemble.eta,
        "n_samples": ensemble.n_samples,
        "seed": ensemble.seed,
    }
    sidecar = _sidecar(path)
    sidecar.write_text(canonical_json(meta))
    return sidecar


def read_ensemble(path) -> VoltageEnsemble:
    """Read an ensemble ``.npy`` with its sidecar, or an ensemble CSV, chosen by suffix.

    A malformed file raises InvalidParameterError naming it.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"ensemble file not found: {path}")
    if path.suffix == ".npy":
        samples = _read_npy(path)
        source = _sidecar(path)  # where eta and seed come from
        meta = _read_sidecar(source, samples.size)
    elif path.suffix == ".csv":
        samples, meta = _read_ensemble_csv(path)
        source = path
    else:
        raise InvalidParameterError(f"ensemble file is neither .npy nor .csv: {path}")
    if samples.size == 0:
        raise InvalidParameterError(f"ensemble file has no samples: {path}")
    try:
        eta, seed = float(meta["eta"]), int(meta.get("seed", 0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(f"ensemble eta or seed is not a number: {source}: {exc}") from exc
    try:
        return VoltageEnsemble(samples=samples, eta=eta, n_samples=samples.size, seed=seed)
    except InvalidParameterError as exc:  # non-finite samples
        raise InvalidParameterError(f"{exc}: {path}") from exc


def _read_npy(path: Path) -> np.ndarray:
    """The samples of a 1-d ``<f8`` ``.npy``, checked against the file size before reading."""
    with open(path, "rb") as fh:
        if fh.read(len(_NPY_MAGIC)) != _NPY_MAGIC:
            raise InvalidParameterError(f"ensemble file is not a version 1.0 .npy array: {path}")
        header = re.fullmatch(_NPY_HEADER, fh.read(int.from_bytes(fh.read(2), "little")))
        if header is None:
            raise InvalidParameterError(f"ensemble file has a malformed .npy header: {path}")
        descr, shape = header.groups()
        if descr != b"<f8" or re.fullmatch(rb"\d+,", shape) is None:
            raise InvalidParameterError(
                f"ensemble file holds a {descr.decode('latin-1')} array of shape "
                f"({shape.decode('latin-1')}), not 1-d <f8: {path}"
            )
        n, offset = int(shape[:-1]), fh.tell()
        size, needed = fh.seek(0, 2), offset + 8 * n
        if size != needed:
            raise InvalidParameterError(
                f"ensemble file is {'truncated' if size < needed else 'longer than its array'}: "
                f"header shape ({n},) needs {needed} bytes, the file has {size}: {path}"
            )
        fh.seek(offset)
        return np.fromfile(fh, dtype="<f8", count=n)


def _read_sidecar(sidecar: Path, n_samples: int) -> dict:
    if not sidecar.exists():
        raise InvalidParameterError(f"ensemble sidecar not found: {sidecar}")
    meta = _parse_json(sidecar)
    if not isinstance(meta, dict) or "eta" not in meta:
        raise InvalidParameterError(f"ensemble sidecar is not a JSON object with an eta: {sidecar}")
    if meta.get("n_samples", n_samples) != n_samples:
        raise InvalidParameterError(
            f"ensemble sidecar says n_samples={meta['n_samples']!r}, the array holds {n_samples}: {sidecar}"
        )
    return meta


def _read_ensemble_csv(path: Path) -> tuple[np.ndarray, dict]:
    """The samples and ``# key=value`` header of an ensemble CSV."""
    try:
        # newline="" splits lines as text mode does but keeps each terminator
        with open(path, newline="") as fh:
            header = [line[1:].partition("=") for line in itertools.takewhile(lambda line: line.startswith("#"), fh)]
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"ensemble file is not text: {path}: {exc}") from exc
    meta = {key.strip(): value.strip() for key, sep, value in header if sep}
    if "eta" not in meta:
        raise InvalidParameterError(f"ensemble file has no '# eta=' header: {path}")
    try:
        # loadtxt streams a path through its C reader; the header lines are comments
        with warnings.catch_warnings():  # a file of no voltages is named below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            samples = np.loadtxt(path, comments="#", ndmin=1)
    except ValueError as exc:
        raise InvalidParameterError(f"ensemble file has a malformed voltage line: {path}: {exc}") from exc
    if samples.ndim != 1:
        raise InvalidParameterError(f"ensemble file has more than one voltage on a line: {path}")
    if samples.size and "n_samples" in meta:
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
    return samples, meta


def pm_csv_text(result: ReconstructionResult, extra_header: dict) -> str:
    """The rebinned P_m table as text; ``extra_header`` lines come first."""
    lines = [f"# {key}={value}\n" for key, value in extra_header.items()]
    lines += [f"# gamma_bar={result.gamma_bar_used!r}\n", f"# n_samples={result.n_samples}\n", "m,pmf_hat,count\n"]
    lines += [f"{m},{p:.17e},{c}\n" for m, (p, c) in enumerate(zip(result.pmf_hat, result.counts))]
    return "".join(lines)


def canonical_json(obj) -> str:
    """The one JSON text form of every artifact: sorted keys, 2-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj))


def read_json(path):
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"file not found: {path}")
    return _parse_json(path)


def _parse_json(path: Path):
    try:
        # bytes: json detects the encoding, and a decoding error is a ValueError too
        return json.loads(path.read_bytes())
    except (ValueError, RecursionError) as exc:
        raise InvalidParameterError(f"invalid JSON in {path}: {exc}") from exc

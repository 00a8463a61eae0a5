"""Run configuration: a versioned JSON document describing one experiment."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

from .calibration import MIN_ETA_POINTS, MIN_SAMPLES_PER_POINT
from .detector import GAIN_FAMILIES, DarkNoiseModel, GainModel, make_gain
from .errors import ConfigError
from .files import as_dict, canonical_json
from .sources import (
    DEFAULT_TAIL_EPS,
    PhotonNumberDistribution,
    from_pmf,
    make_fock,
    make_multimode_thermal,
    make_poisson,
    make_thermal,
)

SCHEMA_VERSION = 1

SOURCE_KINDS = ("poisson", "thermal", "multimode_thermal", "fock", "pmf")

# gain.gamma_bar lies in this range, gain.sigma and dark.sigma0 in [0, its
# top], so the squares and fifth powers of the voltages stay finite and
# gamma_bar^2 stays nonzero
VOLTAGE_SCALE_RANGE = (1e-30, 1e30)
# a gamma gain's sigma is 0 or at least this times gamma_bar, so its shape
# (gamma_bar/sigma)^2 <= 1e300 stays finite times any photon count
GAMMA_MIN_RELATIVE_SIGMA = 1e-150


def _require(cond: bool, field_path: str, message: str):
    if not cond:
        raise ConfigError(f"{field_path}: {message}")


def _is_int(x) -> bool:
    # JSON true/false arrive as bool, which Python counts as an int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite_number(x) -> bool:
    # not math.isfinite, which raises on a JSON integer beyond the float range
    return (_is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def _reject_unknown(raw: dict, known, prefix: str = "") -> None:
    for key in raw:
        _require(key in known, f"{prefix}{key}", "unknown key")


def _require_section(raw, name: str, known) -> dict:
    _require(isinstance(raw, dict), name, "must be an object")
    _reject_unknown(raw, known, f"{name}.")
    return raw


def _require_eta(x, field_path: str) -> float:
    _require(_is_finite_number(x) and 0.0 < x <= 1.0, field_path, f"must be in (0, 1], got {x!r}")
    return float(x)


def _require_sample_count(x, field_path: str) -> int:
    # every ensemble is reduced to a mean and a variance
    _require(_is_int(x) and x >= 2, field_path, f"must be an integer >= 2, got {x!r}")
    return x


def _require_nonnegative(x, field_path: str) -> None:
    _require(_is_finite_number(x) and x >= 0, field_path, f"must be a nonnegative finite number, got {x!r}")


def _require_voltage_scale(x, field_path: str, lo: float) -> float:
    hi = VOLTAGE_SCALE_RANGE[1]
    _require(_is_finite_number(x) and lo <= x <= hi, field_path, f"must be a number in [{lo:g}, {hi:g}], got {x!r}")
    return float(x)


class SourceSpec(NamedTuple):
    kind: str
    mean: float | None = None
    modes: int | None = None
    n: int | None = None
    pmf: tuple | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in as_dict(self).items() if v is not None}


class GainSpec(NamedTuple):
    gamma_bar: float
    sigma: float
    family: str = "gaussian"


class DarkSpec(NamedTuple):
    sigma0: float


class RunConfig(NamedTuple):
    """Everything needed to reproduce one experiment end to end."""

    source: SourceSpec
    gain: GainSpec
    dark: DarkSpec
    eta_series: tuple
    n_samples: int
    seed: int
    schema_version: int = SCHEMA_VERSION
    gain_scale_factors: tuple = ()
    tail_epsilon: float = DEFAULT_TAIL_EPS
    reconstruct_eta: float = None
    reconstruction_n_samples: int = None
    out_dir: str | None = None

    def to_dict(self) -> dict:
        return {**as_dict(self), "source": self.source.to_dict()}


def _parse_source(raw: dict) -> SourceSpec:
    _require_section(raw, "source", SourceSpec._fields)
    kind = raw.get("kind")
    _require(kind in SOURCE_KINDS, "source.kind", f"must be one of {SOURCE_KINDS}, got {kind!r}")
    pmf = raw.get("pmf")
    if pmf is not None:
        _require(isinstance(pmf, (list, tuple)), "source.pmf", f"must be a list, got {pmf!r}")
        for i, p in enumerate(pmf):
            _require_nonnegative(p, f"source.pmf[{i}]")
        _require(0 < sum(map(float, pmf)) < math.inf, "source.pmf", "needs a positive finite sum")
        pmf = tuple(pmf)
    spec = SourceSpec(
        kind=kind,
        mean=raw.get("mean"),
        modes=raw.get("modes"),
        n=raw.get("n"),
        pmf=pmf,
    )
    if kind in ("poisson", "thermal", "multimode_thermal"):
        _require(spec.mean is not None, "source.mean", f"required for kind {kind!r}")
        _require_nonnegative(spec.mean, "source.mean")
    if kind == "multimode_thermal":
        _require(
            _is_int(spec.modes) and spec.modes >= 1,
            "source.modes",
            f"must be a positive integer, got {spec.modes!r}",
        )
    if kind == "fock":
        _require(
            _is_int(spec.n) and spec.n >= 0,
            "source.n",
            f"must be a nonnegative integer, got {spec.n!r}",
        )
    if kind == "pmf":
        _require(spec.pmf is not None, "source.pmf", "required for kind 'pmf'")
    return spec


def from_dict(raw: dict) -> RunConfig:
    """Parse and validate a config document; errors name the field."""
    _require(isinstance(raw, dict), "config", "must be a JSON object")
    _reject_unknown(raw, RunConfig._fields)
    version = raw.get("schema_version", SCHEMA_VERSION)
    _require(version == SCHEMA_VERSION, "schema_version", f"unsupported version {version!r}")

    source = _parse_source(raw.get("source"))

    g = _require_section(raw.get("gain"), "gain", GainSpec._fields)
    family = g.get("family", "gaussian")
    _require(
        family in GAIN_FAMILIES,
        "gain.family",
        f"must be one of {GAIN_FAMILIES}, got {family!r}",
    )
    gamma_bar = _require_voltage_scale(g.get("gamma_bar"), "gain.gamma_bar", VOLTAGE_SCALE_RANGE[0])
    sigma = _require_voltage_scale(g.get("sigma", 0.0), "gain.sigma", 0.0)
    _require(
        family != "gamma" or sigma == 0.0 or sigma >= GAMMA_MIN_RELATIVE_SIGMA * gamma_bar,
        "gain.sigma",
        f"a gamma gain's sigma must be 0 or >= {GAMMA_MIN_RELATIVE_SIGMA:g} * gamma_bar, got {sigma!r}",
    )
    gain = GainSpec(gamma_bar=gamma_bar, sigma=sigma, family=family)

    d = _require_section(raw.get("dark", {}), "dark", DarkSpec._fields)
    sigma0 = _require_voltage_scale(d.get("sigma0", 0.1 * gain.gamma_bar), "dark.sigma0", 0.0)
    dark = DarkSpec(sigma0=sigma0)

    etas = raw.get("eta_series")
    _require(
        isinstance(etas, (list, tuple)) and len(etas) >= 1,
        "eta_series",
        "must be a nonempty list",
    )
    eta_series = tuple(_require_eta(e, f"eta_series[{i}]") for i, e in enumerate(etas))
    n_samples = _require_sample_count(raw.get("n_samples"), "n_samples")
    seed = raw.get("seed")
    _require(
        _is_int(seed) and 0 <= seed < 2**64,
        "seed",
        f"must be an integer in [0, 2^64), got {seed!r}",
    )

    factors = raw.get("gain_scale_factors", [])
    _require(isinstance(factors, (list, tuple)), "gain_scale_factors", "must be a list")
    for i, f in enumerate(factors):
        _require(
            _is_finite_number(f) and f > 0,
            f"gain_scale_factors[{i}]",
            f"must be positive, got {f!r}",
        )
    # gain_scaling_check re-simulates the sweep and refuses a design this small
    _require(
        not factors
        or (n_samples >= MIN_SAMPLES_PER_POINT and len(set(eta_series)) >= MIN_ETA_POINTS),
        "gain_scale_factors",
        f"need n_samples >= {MIN_SAMPLES_PER_POINT} and {MIN_ETA_POINTS} distinct eta_series values",
    )

    tail_eps = raw.get("tail_epsilon", DEFAULT_TAIL_EPS)
    _require(
        isinstance(tail_eps, float) and 0 < tail_eps < 1,
        "tail_epsilon",
        f"must be a float in (0, 1), got {tail_eps!r}",
    )

    rec_eta = _require_eta(raw.get("reconstruct_eta", max(eta_series)), "reconstruct_eta")
    rec_n = _require_sample_count(raw.get("reconstruction_n_samples", n_samples), "reconstruction_n_samples")
    out_dir = raw.get("out_dir")
    _require(
        out_dir is None or (isinstance(out_dir, str) and out_dir),
        "out_dir",
        f"must be a nonempty string when given, got {out_dir!r}",
    )

    return RunConfig(
        source=source,
        gain=gain,
        dark=dark,
        eta_series=eta_series,
        n_samples=n_samples,
        seed=seed,
        gain_scale_factors=tuple(float(f) for f in factors),
        tail_epsilon=tail_eps,
        reconstruct_eta=rec_eta,
        reconstruction_n_samples=rec_n,
        out_dir=out_dir,
    )


def load(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config: file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    return from_dict(raw)


def save(config: RunConfig, path) -> None:
    Path(path).write_text(canonical_json(config.to_dict()))


def config_hash(config: RunConfig) -> str:
    """SHA-256 of the canonical JSON form; ties artifacts to their parameters."""
    blob = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_source(config: RunConfig) -> PhotonNumberDistribution:
    s = config.source
    eps = config.tail_epsilon
    if s.kind == "poisson":
        return make_poisson(s.mean, tail_eps=eps)
    if s.kind == "thermal":
        return make_thermal(s.mean, tail_eps=eps)
    if s.kind == "multimode_thermal":
        return make_multimode_thermal(s.mean, s.modes, tail_eps=eps)
    if s.kind == "fock":
        return make_fock(s.n)
    return from_pmf(list(s.pmf))


def build_gain(config: RunConfig) -> GainModel:
    return make_gain(config.gain.family, config.gain.gamma_bar, config.gain.sigma)


def build_dark(config: RunConfig) -> DarkNoiseModel:
    return DarkNoiseModel(sigma0=config.dark.sigma0)

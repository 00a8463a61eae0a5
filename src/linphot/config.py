"""Run configuration: a versioned JSON document describing one experiment."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .calibration import MIN_ETA_POINTS, MIN_SAMPLES_PER_POINT
from .detector import GAIN_FAMILIES, DarkNoiseModel, GainModel, make_gain
from .errors import ConfigError
from .files import canonical_json
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


@dataclass(frozen=True)
class SourceSpec:
    kind: str
    mean: float | None = None
    modes: int | None = None
    n: int | None = None
    pmf: tuple | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass(frozen=True)
class GainSpec:
    gamma_bar: float
    sigma: float
    family: str = "gaussian"


@dataclass(frozen=True)
class DarkSpec:
    sigma0: float


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one experiment end to end."""

    source: SourceSpec
    gain: GainSpec
    dark: DarkSpec
    eta_series: tuple
    n_samples: int
    seed: int
    schema_version: int = SCHEMA_VERSION
    gain_scale_factors: tuple = ()
    moment_order: int = 5
    tail_epsilon: float = DEFAULT_TAIL_EPS
    reconstruct_eta: float = field(default=None)
    reconstruction_n_samples: int = field(default=None)
    out_dir: str | None = None

    def to_dict(self) -> dict:
        return {**asdict(self), "source": self.source.to_dict()}


def _parse_source(raw: dict) -> SourceSpec:
    _require(isinstance(raw, dict), "source", "must be an object")
    _reject_unknown(raw, [f.name for f in fields(SourceSpec)], "source.")
    kind = raw.get("kind")
    _require(kind in SOURCE_KINDS, "source.kind", f"must be one of {SOURCE_KINDS}, got {kind!r}")
    pmf = raw.get("pmf")
    if pmf is not None:
        _require(isinstance(pmf, (list, tuple)), "source.pmf", f"must be a list, got {pmf!r}")
        for i, p in enumerate(pmf):
            _require(
                _is_finite_number(p) and p >= 0,
                f"source.pmf[{i}]",
                f"must be a nonnegative finite number, got {p!r}",
            )
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
        _require(
            _is_finite_number(spec.mean) and spec.mean >= 0,
            "source.mean",
            f"must be a nonnegative finite number, got {spec.mean!r}",
        )
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
    _reject_unknown(raw, [f.name for f in fields(RunConfig)])
    version = raw.get("schema_version", SCHEMA_VERSION)
    _require(version == SCHEMA_VERSION, "schema_version", f"unsupported version {version!r}")

    source = _parse_source(raw.get("source"))

    g = raw.get("gain")
    _require(isinstance(g, dict), "gain", "must be an object")
    _reject_unknown(g, [f.name for f in fields(GainSpec)], "gain.")
    family = g.get("family", "gaussian")
    _require(
        family in GAIN_FAMILIES,
        "gain.family",
        f"must be one of {GAIN_FAMILIES}, got {family!r}",
    )
    gamma_bar = g.get("gamma_bar")
    _require(
        _is_finite_number(gamma_bar) and gamma_bar > 0,
        "gain.gamma_bar",
        f"must be a positive finite number, got {gamma_bar!r}",
    )
    sigma = g.get("sigma", 0.0)
    _require(
        _is_finite_number(sigma) and sigma >= 0,
        "gain.sigma",
        f"must be a nonnegative finite number, got {sigma!r}",
    )
    gain = GainSpec(gamma_bar=float(gamma_bar), sigma=float(sigma), family=family)

    d = raw.get("dark", {})
    _require(isinstance(d, dict), "dark", "must be an object")
    _reject_unknown(d, [f.name for f in fields(DarkSpec)], "dark.")
    sigma0 = d.get("sigma0", 0.1 * gain.gamma_bar)
    _require(
        _is_finite_number(sigma0) and sigma0 >= 0,
        "dark.sigma0",
        f"must be a nonnegative finite number, got {sigma0!r}",
    )
    dark = DarkSpec(sigma0=float(sigma0))

    etas = raw.get("eta_series")
    _require(
        isinstance(etas, (list, tuple)) and len(etas) >= 1,
        "eta_series",
        "must be a nonempty list",
    )
    for i, e in enumerate(etas):
        _require(
            _is_finite_number(e) and 0.0 < e <= 1.0,
            f"eta_series[{i}]",
            f"must be in (0, 1], got {e!r}",
        )
    eta_series = tuple(float(e) for e in etas)

    n_samples = raw.get("n_samples")
    _require(
        _is_int(n_samples) and n_samples >= 1,
        "n_samples",
        f"must be a positive integer, got {n_samples!r}",
    )
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
    # the gain-scaling check re-runs the sweep through run_eta_series
    _require(
        not factors
        or (n_samples >= MIN_SAMPLES_PER_POINT and len(set(eta_series)) >= MIN_ETA_POINTS),
        "gain_scale_factors",
        f"need n_samples >= {MIN_SAMPLES_PER_POINT} and {MIN_ETA_POINTS} distinct eta_series values",
    )

    order = raw.get("moment_order", 5)
    _require(
        _is_int(order) and 2 <= order <= 5,
        "moment_order",
        f"must be an integer in [2, 5], got {order!r}",
    )
    tail_eps = raw.get("tail_epsilon", DEFAULT_TAIL_EPS)
    _require(
        isinstance(tail_eps, float) and 0 < tail_eps < 1,
        "tail_epsilon",
        f"must be a float in (0, 1), got {tail_eps!r}",
    )

    rec_eta = raw.get("reconstruct_eta", max(eta_series))
    _require(
        _is_finite_number(rec_eta) and 0.0 < rec_eta <= 1.0,
        "reconstruct_eta",
        f"must be in (0, 1], got {rec_eta!r}",
    )
    rec_n = raw.get("reconstruction_n_samples", n_samples)
    _require(
        _is_int(rec_n) and rec_n >= 1,
        "reconstruction_n_samples",
        f"must be a positive integer, got {rec_n!r}",
    )
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
        moment_order=order,
        tail_epsilon=tail_eps,
        reconstruct_eta=float(rec_eta),
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

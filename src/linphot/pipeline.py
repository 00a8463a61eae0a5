"""End-to-end experiment runner: simulate, calibrate, reconstruct, report.

``run_experiment`` calls the stages ``simulate_sweep``, ``calibrate``
(whose ``CalibrationRecord`` is ``calibration.json``), ``reconstruct``
(whose ``PmMetrics`` is ``pm_metrics.json``) and ``report_text`` in
order; each CLI subcommand calls the stage it is named for.  ``check``
replays the same stages on a run directory's recorded ensembles and
renders each derived artifact with the code that wrote it, so a run
directory is verified by comparing bytes.  Ensembles are written as
``.npy`` with a JSON sidecar (``files.write_ensemble``).  ``check`` and
blind ``calibrate`` read a sweep directory, ``.npy`` or CSV, with
``read_dark`` and ``sweep_points``.  All artifacts carry the config hash;
outputs are byte-identical for a fixed (config, seed).
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass
from pathlib import Path

from . import config as cfgmod
from .calibration import (
    CalibrationFit,
    GainScalingReport,
    MeanConstancyReport,
    eta_point_from_samples,
    fit_fano_line,
    gain_scaling_check,
    iter_eta_series,
    mean_constancy_check,
)
from .detector import VoltageEnsemble, simulate_ensemble
from .errors import InvalidParameterError, LinphotError
from .files import pm_csv_text, read_ensemble, write_ensemble, write_json
from .loss import apply_bernoulli
from .moments import analytic_voltage_moments, sample_moments
from .reconstruction import (
    ReconstructionResult,
    SelfConsistencyReport,
    compare,
    rebin,
    self_consistency_check,
    subtract_offset,
)
from .streams import DARK, RECONSTRUCTION


class Models:
    """A config, its hash and the source, gain and dark models it builds."""

    def __init__(self, config: cfgmod.RunConfig):
        self.config = config
        self.config_sha256 = cfgmod.config_hash(config)
        self.source = cfgmod.build_source(config)
        self.gain = cfgmod.build_gain(config)
        self.dark = cfgmod.build_dark(config)


@dataclass(frozen=True)
class CalibrationChecks:
    mean_constancy: MeanConstancyReport | None = None
    gain_scaling: GainScalingReport | None = None


@dataclass(frozen=True)
class CalibrationRecord:
    """The ``calibration.json`` document: the fit, or why none fits, and its checks."""

    config_sha256: str | None
    dark_variance_subtracted: float
    fit: CalibrationFit | None
    fit_error: str | None
    checks: CalibrationChecks
    schema_version: int = 1


@dataclass(frozen=True)
class PmMetrics:
    """The ``pm_metrics.json`` document; None where no config or true P_m is known."""

    config_sha256: str | None
    gamma_bar_used: float
    gamma_bar_source: str
    underflow_fraction: float
    mean_m_hat: float
    mean_v: float
    self_consistency: SelfConsistencyReport
    tv_distance: float | None
    fidelity: float | None


@dataclass(frozen=True)
class RunResult:
    out_dir: Path
    config_sha256: str
    calibration: CalibrationFit | None
    reconstruction: ReconstructionResult
    verdicts: dict
    files: dict


def _fmt(x, digits=9):
    return f"{x:.{digits}g}"


def simulate_sweep(models: Models, out: Path):
    """Simulate and write the dark record and the sweep ensembles, each a ``.npy`` and its sidecar.

    Returns the dark ensemble, the sweep points and the written paths.
    """
    config, sha = models.config, models.config_sha256
    # eta = 0 yields the dark record only
    dark_ens = simulate_ensemble(
        models.source, 0.0, models.gain, models.dark, config.n_samples, config.seed, stream_key=(DARK,)
    )
    files = {"dark": out / "dark.npy"}
    files["dark_sidecar"] = write_ensemble(files["dark"], dark_ens, sha)
    points = []
    sweep = iter_eta_series(
        models.source, models.gain, models.dark, config.eta_series, config.n_samples, config.seed
    )
    for i, (point, ens) in enumerate(sweep):
        key = f"ensemble_{i}"
        files[key] = out / f"ensemble_{i:02d}_eta_{ens.eta:.6f}.npy"
        files[f"{key}_sidecar"] = write_ensemble(files[key], ens, sha)
        points.append(point)
    return dark_ens, points, files


def reconstruction_path(out: Path, config: cfgmod.RunConfig) -> Path:
    """The reconstruction ensemble's ``.npy`` in ``out``: ``run`` writes it, ``check`` reads it."""
    return out / f"reconstruction_eta_{config.reconstruct_eta:.6f}.npy"


def read_dark(directory) -> VoltageEnsemble:
    """The dark record of a sweep directory: ``dark.npy`` or ``dark.csv``, not both."""
    directory = Path(directory)
    paths = [path for path in (directory / "dark.npy", directory / "dark.csv") if path.exists()]
    if not paths:
        raise FileNotFoundError(f"no dark record (dark.npy or dark.csv) in {directory}")
    if len(paths) > 1:
        raise InvalidParameterError(f"two dark records: {paths[0]} and {paths[1]}")
    return read_ensemble(paths[0])


def sweep_points(directory, dark_mean: float, dark_variance: float) -> list:
    """The points of the ``ensemble_<i>*`` ``.npy`` or ``.csv`` files in ``directory``, in sweep order.

    The order is the number ``i`` (``ensemble_100`` follows ``ensemble_99``);
    two files with one number are an error, and ``.json`` sidecars are not
    ensembles.  Each ensemble is zero-set by ``dark_mean``; its point takes
    its ``eta``.
    """
    indexed = {}
    for path in sorted(Path(directory).glob("ensemble_*")):
        if path.suffix not in (".npy", ".csv"):
            continue
        match = re.fullmatch(r"ensemble_(\d+)(_.*)?", path.stem)
        if match is None:
            raise InvalidParameterError(f"ensemble file name has no sweep index: {path}")
        i = int(match[1])
        if i in indexed:
            raise InvalidParameterError(f"two ensemble files with sweep index {i}: {indexed[i]} and {path}")
        indexed[i] = path
    points = []
    for i in sorted(indexed):
        ens = subtract_offset(read_ensemble(indexed[i]), dark_mean)
        points.append(eta_point_from_samples(ens.eta, ens.samples, dark_variance=dark_variance))
    return points


_SIMULATE = object()


def calibrate(
    points, dark_variance: float, models: Models | None = None, *, gain_scaling=_SIMULATE
) -> CalibrationRecord:
    """Fit the fano line through ``points``; the record says why when none fits.

    An intercept at or below zero is a fit flagged invalid.  The
    mean-constancy and gain-scaling checks run only given the config's
    ``models``, a valid fit (the scaling baseline) and some light.  A
    given ``gain_scaling`` is recorded in place of re-simulating that
    check: ``check`` passes the recorded section, the one part of the
    record that only re-simulation could re-derive.  The keyword goes
    with the gain-scaling check.
    """
    sigma2_rel = None if models is None else models.gain.sigma2 / models.gain.gamma_bar**2
    fit = fit_error = None
    if not any(p.mean_v > 5.0 * p.se_mean_v for p in points):
        fit_error = "no significant light at any efficiency; calibration skipped"
    else:
        try:
            fit = fit_fano_line(points, sigma2_rel=sigma2_rel)
        except LinphotError as exc:
            fit_error = str(exc)
    checks = CalibrationChecks()
    if models is not None and fit is not None and fit.valid and models.source.mean_n > 0:
        config = models.config
        refs = [eta * models.source.mean_n for eta in config.eta_series]
        constancy = mean_constancy_check(
            points, fit.intercept, refs, gamma_bar_se=fit.intercept_se, sigma2_rel=sigma2_rel
        )
        scaling = None
        if config.gain_scale_factors:
            scaling = gain_scaling if gain_scaling is not _SIMULATE else gain_scaling_check(
                models.source, models.gain, models.dark, list(config.eta_series),
                list(config.gain_scale_factors), config.n_samples, config.seed, baseline=fit,
            )
        checks = CalibrationChecks(constancy, scaling)
    sha = None if models is None else models.config_sha256
    return CalibrationRecord(sha, dark_variance, fit, fit_error, checks)


def reconstruction_gamma(fit, configured_gamma_bar: float) -> tuple[float, float, str]:
    """gamma_bar, its SE and their source for the reconstruction, from the ``fit`` of ``calibration.json``.

    A valid fit gives its intercept; no fit, or an invalid one, gives the
    configured gain with SE 0.  ``run``, ``check`` and ``reconstruct
    --from-calibration`` all choose here.
    """
    if fit is not None and fit["valid"]:
        return fit["intercept"], fit["intercept_se"], "calibration intercept"
    return configured_gamma_bar, 0.0, "configured gain (calibration unavailable)"


def reconstruction_metrics(shifted, gamma_bar, se_gamma_bar, gamma_bar_source, *, config_sha256=None, truth=None):
    """Rebin a zero-set ensemble; return the result and its ``PmMetrics``.

    The reconstructed mean is checked against mean_v / gamma_bar; the
    result is compared with the generating ``truth`` when given.
    """
    result = rebin(shifted, gamma_bar)
    if truth is not None:
        result = compare(result, truth)
    mean_v = float(shifted.samples.mean())
    se_mean_v = float(shifted.samples.std(ddof=1) / math.sqrt(shifted.n_samples))
    consistency = self_consistency_check(result, mean_v, se_mean_v=se_mean_v, se_gamma_bar=se_gamma_bar)
    return result, PmMetrics(
        config_sha256=config_sha256,
        gamma_bar_used=result.gamma_bar_used,
        gamma_bar_source=gamma_bar_source,
        underflow_fraction=result.underflow_fraction,
        mean_m_hat=result.mean_m_hat,
        mean_v=mean_v,
        self_consistency=consistency,
        tv_distance=result.tv_distance,
        fidelity=result.fidelity,
    )


def reconstruct(shifted, gamma_bar, se_gamma_bar, gamma_bar_source, out: Path, *, config_sha256=None, truth=None):
    """Write ``pm.csv`` and ``pm_metrics.json`` of :func:`reconstruction_metrics` in ``out``; return both."""
    result, metrics = reconstruction_metrics(
        shifted, gamma_bar, se_gamma_bar, gamma_bar_source, config_sha256=config_sha256, truth=truth
    )
    out.mkdir(parents=True, exist_ok=True)
    header = {} if config_sha256 is None else {"config_sha256": config_sha256}
    (out / "pm.csv").write_text(pm_csv_text(result, header))
    write_json(out / "pm_metrics.json", asdict(metrics))
    return result, metrics


def report_text(models: Models, points, calibration: dict, metrics: PmMetrics, shifted, truth) -> str:
    """The text of ``report.md``, from the ``asdict`` calibration record and the reconstruction's metrics.

    Its moment table sets the zero-set reconstruction ensemble ``shifted``
    beside the exact voltage moments of the detected ``truth``.
    """
    config, source, gain, dark = models.config, models.source, models.gain, models.dark
    fit, checks, consistency = calibration["fit"], calibration["checks"], metrics.self_consistency
    lines = [
        "# linphot experiment report",
        "",
        f"- config hash: `{models.config_sha256}`",
        f"- seed: {config.seed}",
        f"- source: {source.label}, mean_n = {_fmt(source.mean_n)}",
        f"- gain: {gain.family}, gamma_bar = {_fmt(gain.gamma_bar)}, sigma = {_fmt(math.sqrt(gain.sigma2))}",
        f"- dark: sigma0 = {_fmt(dark.sigma0)}",
        "",
        "## Calibration (efficiency sweep)",
        "",
        "| eta | mean_v | fano_v | se(fano_v) |",
        "|----:|-------:|-------:|-----------:|",
    ]
    lines += [f"| {p.eta:.4f} | {_fmt(p.mean_v)} | {_fmt(p.fano_v)} | {_fmt(p.se_fano_v)} |" for p in points]
    lines.append("")
    if fit is not None:
        corrected = fit["gamma_bar_corrected"]
        lines += [
            f"- slope = {_fmt(fit['slope'])} +- {_fmt(fit['slope_se'])}",
            f"- intercept = {_fmt(fit['intercept'])} +- {_fmt(fit['intercept_se'])} "
            f"(chi2/dof = {_fmt(fit['chi2_dof'])})",
            f"- gamma_bar_est = {_fmt(fit['intercept'])}"
            + ("" if corrected is None else f", spread-corrected = {_fmt(corrected)}"),
            f"- [{'PASS' if fit['valid'] else 'FAIL'}] calibration fit valid (positive intercept)",
        ]
    else:
        lines.append(f"- [FAIL] calibration fit unavailable: {calibration['fit_error']}")
    constancy, scaling = checks["mean_constancy"], checks["gain_scaling"]
    if constancy is not None:
        lines.append(
            f"- [{'PASS' if constancy['passed'] else 'FAIL'}] mean constancy across eta ("
            f"pooled mean_v/<m> = {_fmt(constancy['pooled_ratio'])})"
        )
    if scaling is not None:
        lines += ["", "## Gain-scaling check", ""] + [
            f"- [{'PASS' if row['passed'] else 'FAIL'}] factor {row['factor']:g}: "
            f"intercept ratio = {_fmt(row['ratio'])} +- {_fmt(row['ratio_se'])}"
            for row in scaling["rows"]
        ]
    lines += [
        "",
        "## Reconstruction",
        "",
        f"- ensemble: eta = {config.reconstruct_eta:.4f}, N = {shifted.n_samples}",
        f"- gamma_bar used = {_fmt(metrics.gamma_bar_used)} ({metrics.gamma_bar_source})",
        f"- underflow fraction = {_fmt(metrics.underflow_fraction)}",
        f"- reconstructed <m> = {_fmt(metrics.mean_m_hat)}, mean_v/gamma_bar = {_fmt(consistency.mean_v_over_gamma)}",
        f"- [{'PASS' if consistency.passed else 'FAIL'}] self-consistency |diff| = "
        f"{_fmt(consistency.difference)} <= {_fmt(consistency.tolerance)}",
        f"- TV distance vs generating P_m = {_fmt(metrics.tv_distance)}",
        f"- fidelity vs generating P_m = {_fmt(metrics.fidelity)}",
        "",
        "## Voltage moments at the reconstruction point",
        "",
        "| order | sample | analytic |",
        "|------:|-------:|---------:|",
    ]
    sample_m5 = sample_moments(shifted.samples, order=config.moment_order)
    analytic_m5 = analytic_voltage_moments(truth, gain, dark, order=config.moment_order)
    lines += [
        f"| {r} | {_fmt(sample_m5.central_moment(r))} | {_fmt(analytic_m5.central_moment(r))} |"
        for r in range(2, config.moment_order + 1)
    ]
    return "\n".join(lines + [""])


def run_experiment(config: cfgmod.RunConfig, out_dir) -> RunResult:
    """Run the full pipeline and write all artifacts into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfgmod.save(config, out / "config.json")
    files = {"config": out / "config.json"}
    models = Models(config)

    dark_ens, points, sweep_files = simulate_sweep(models, out)
    files.update(sweep_files)

    calibration = calibrate(points, models.dark.sigma0**2, models)
    files["calibration"] = out / "calibration.json"
    record = asdict(calibration)
    write_json(files["calibration"], record)

    # reconstruction at the chosen efficiency
    rec_ens = simulate_ensemble(
        models.source, config.reconstruct_eta, models.gain, models.dark,
        config.reconstruction_n_samples, config.seed, stream_key=(RECONSTRUCTION,),
    )
    files["reconstruction_ensemble"] = reconstruction_path(out, config)
    files["reconstruction_ensemble_sidecar"] = write_ensemble(
        files["reconstruction_ensemble"], rec_ens, models.config_sha256
    )
    gamma = reconstruction_gamma(record["fit"], models.gain.gamma_bar)
    shifted = subtract_offset(rec_ens, float(dark_ens.samples.mean()))
    truth = apply_bernoulli(models.source, config.reconstruct_eta)
    result, metrics = reconstruct(shifted, *gamma, out, config_sha256=models.config_sha256, truth=truth)
    files["pm"], files["pm_metrics"] = out / "pm.csv", out / "pm_metrics.json"

    files["report"] = out / "report.md"
    files["report"].write_text(report_text(models, points, record, metrics, shifted, truth))

    fit, checks = calibration.fit, calibration.checks
    return RunResult(
        out_dir=out,
        config_sha256=models.config_sha256,
        calibration=fit,
        reconstruction=result,
        verdicts={
            "calibration_valid": bool(fit is not None and fit.valid),
            "mean_constancy": None if checks.mean_constancy is None else checks.mean_constancy.passed,
            "gain_scaling": None if checks.gain_scaling is None else checks.gain_scaling.passed,
            "self_consistency": metrics.self_consistency.passed,
        },
        files=files,
    )

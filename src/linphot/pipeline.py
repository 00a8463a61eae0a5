"""End-to-end experiment runner: simulate, calibrate, reconstruct, report.

One analysis, which takes no ``Models``, serves simulated and recorded
voltages: the dark record's measured mean and variance, each sweep
ensemble zero-set by that mean and reduced with that variance
(``sweep_point``), the fit (``calibrate``) and the rebinning
(``reconstruction_metrics``).  ``run_experiment`` runs it on what it
draws (``simulate_sweep``), blind ``calibrate`` and ``reconstruct`` on
files, and ``derive``, the one derivation of ``run``'s artifacts, sets
it against the generating model.  ``check`` calls ``derive`` on a run
directory's ensembles and compares the texts with the files byte for
byte.  Ensembles are written as ``.npy`` with a JSON sidecar
(``files.write_ensemble``); ``check`` and blind ``calibrate`` read a
sweep directory, ``.npy`` or CSV, with ``dark_path``, ``dark_moments``,
``sweep_paths`` and ``sweep_points``, which name the file whose
ensemble cannot be reduced.  Every command that reads an
ensemble file reads it with ``read_reducible``.  All artifacts carry the
config hash; outputs are byte-identical for a fixed (config, seed).
"""

from __future__ import annotations

import math
import re
from contextlib import closing
from pathlib import Path
from typing import NamedTuple

from . import config as cfgmod
from .calibration import (
    CalibrationFit,
    Draw,
    GainScalingReport,
    MeanConstancyReport,
    eta_point_from_samples,
    fit_fano_line,
    gain_scaling_check,
    iter_ensembles,
    mean_constancy_check,
    sweep_draws,
)
from .errors import InvalidParameterError, LinphotError
from .files import as_dict, canonical_json, pm_csv_text, read_ensemble, write_ensemble
from .loss import apply_bernoulli
from .moments import ORDER_MAX, analytic_voltage_moments, sample_moments
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


class CalibrationChecks(NamedTuple):
    mean_constancy: MeanConstancyReport | None = None
    gain_scaling: GainScalingReport | None = None


class CalibrationRecord(NamedTuple):
    """The ``calibration.json`` document: the fit, or why none fits, and its checks."""

    config_sha256: str | None
    dark_variance_subtracted: float
    fit: CalibrationFit | None
    fit_error: str | None
    checks: CalibrationChecks
    schema_version: int = 1


class PmMetrics(NamedTuple):
    """The ``pm_metrics.json`` document; None where no config or true P_m is known."""

    gamma_bar_used: float
    gamma_bar_source: str
    underflow_fraction: float
    mean_m_hat: float
    mean_v: float
    self_consistency: SelfConsistencyReport
    config_sha256: str | None = None
    tv_distance: float | None = None
    fidelity: float | None = None


class RunResult(NamedTuple):
    calibration: CalibrationFit | None
    reconstruction: ReconstructionResult
    verdicts: dict
    files: dict


def _fmt(x, digits=9):
    return f"{x:.{digits}g}"


def simulate_sweep(models: Models, out: Path, *, reconstruction: bool = False):
    """Draw and write the dark record and the sweep ensembles, each a ``.npy`` and its sidecar, into ``out``.

    An ``out`` that holds a ``dark.*``, ``ensemble_*`` or
    ``reconstruction_eta_*`` file would mix two runs, and raises before
    anything is written.  Given ``reconstruction`` the reconstruction
    ensemble follows the sweep.  All are drawn in one ordered stream on
    every usable core (``calibration.iter_ensembles``); each is reduced
    (the dark record to its moments, each sweep ensemble to its
    ``sweep_point``) and written, in that order, while the next ones are
    drawn.  Returns the dark moments, the sweep points, the reconstruction
    ensemble (None without ``reconstruction``) and the written paths.
    """
    used = sorted(path.name for glob in ("dark.*", "ensemble_*", "reconstruction_eta_*") for path in out.glob(glob))
    if used:
        raise InvalidParameterError(f"{out} already holds a run's ensembles ({used[0]}); give an unused --out")
    out.mkdir(parents=True, exist_ok=True)
    config, sha = models.config, models.config_sha256
    # eta = 0 yields the dark record only
    entries = [("dark", out / "dark.npy", Draw(0.0, config.n_samples, (DARK,)))]
    entries += [
        (f"ensemble_{i}", out / f"ensemble_{i:02d}_eta_{draw.eta:.6f}.npy", draw)
        for i, draw in enumerate(sweep_draws(config.eta_series, config.n_samples))
    ]
    if reconstruction:
        rec_draw = Draw(config.reconstruct_eta, config.reconstruction_n_samples, (RECONSTRUCTION,))
        entries.append(("reconstruction_ensemble", reconstruction_path(out, config), rec_draw))
    stream = iter_ensembles(
        models.source, models.gain, models.dark, [draw for _, _, draw in entries], config.seed
    )
    files, points, rec = {}, [], None
    with closing(stream):  # a failed write stops the ensembles still being drawn
        for (key, path, _), ens in zip(entries, stream):
            if key == "dark":
                dark = sample_moments(ens.samples, order=2)
            elif key == "reconstruction_ensemble":
                rec = ens
            else:
                points.append(sweep_point(ens, dark))
            files[key] = path
            files[f"{key}_sidecar"] = write_ensemble(path, ens, sha)
    return dark, points, rec, files


def reconstruction_path(out: Path, config: cfgmod.RunConfig) -> Path:
    """The reconstruction ensemble's ``.npy`` in ``out``: ``run`` writes it, ``check`` reads it."""
    return out / f"reconstruction_eta_{config.reconstruct_eta:.6f}.npy"


def dark_path(directory) -> Path:
    """The dark record of a sweep directory: ``dark.npy`` or ``dark.csv``, not both."""
    directory = Path(directory)
    paths = [path for path in (directory / "dark.npy", directory / "dark.csv") if path.exists()]
    if not paths:
        raise FileNotFoundError(f"no dark record (dark.npy or dark.csv) in {directory}")
    if len(paths) > 1:
        raise InvalidParameterError(f"two dark records: {paths[0]} and {paths[1]}")
    return paths[0]


def sweep_paths(directory) -> list[Path]:
    """The ``ensemble_<i>*`` ``.npy`` or ``.csv`` files in ``directory``, in sweep order.

    The order is the number ``i`` (``ensemble_100`` follows ``ensemble_99``);
    two files with one number are an error, and ``.json`` sidecars are not
    ensembles.
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
    return [indexed[i] for i in sorted(indexed)]


def read_reducible(path):
    """The ensemble read from ``path``; a file of one sample, which no statistic reduces, raises an error naming it.

    ``files.read_ensemble`` itself reads such a file back, as the format allows.
    """
    ensemble = read_ensemble(path)
    if ensemble.n_samples < 2:
        raise InvalidParameterError(f"need at least 2 samples, got {ensemble.n_samples}: {path}")
    return ensemble


def dark_moments(path):
    """The mean and variance (``sample_moments`` of order 2) of the dark record ``path``; an error names it."""
    samples = read_reducible(path).samples
    try:
        return sample_moments(samples, order=2)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{exc}: {path}") from exc


def sweep_point(ensemble, dark):
    """The point of ``ensemble`` zero-set by the mean, and reduced with the variance, of the dark moments ``dark``."""
    return eta_point_from_samples(ensemble.eta, subtract_offset(ensemble, dark.mean).samples, dark.central_moment(2))


def sweep_points(paths, dark) -> list:
    """The ``sweep_point`` of each ensemble file in ``paths`` with the dark record's moments ``dark``.

    An ensemble of mean exactly 0 has no point; the error names its file.
    """
    points = []
    for path in paths:
        ens = read_reducible(path)
        try:
            points.append(sweep_point(ens, dark))
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"{exc}: {path}") from exc
    return points


_SIMULATE = object()


def calibrate(points, dark_variance: float) -> CalibrationRecord:
    """Fit the fano line through ``points``, reduced with ``dark_variance``; the record says why when none fits.

    Blind: no config hash, spread-corrected intercept or checks
    (``against_model``).  An intercept at or below zero is a fit flagged
    invalid.
    """
    fit = fit_error = None
    if not any(p.mean_v > 5.0 * p.se_mean_v for p in points):
        fit_error = "no significant light at any efficiency; calibration skipped"
    else:
        try:
            fit = fit_fano_line(points)
        except LinphotError as exc:
            fit_error = str(exc)
    return CalibrationRecord(None, dark_variance, fit, fit_error, CalibrationChecks())


def against_model(models: Models, calibration: CalibrationRecord, *, gain_scaling=_SIMULATE) -> CalibrationRecord:
    """The blind ``calibration`` with the config hash, the spread-corrected intercept and the checks.

    The checks run only on a valid fit and some light.  A given
    ``gain_scaling`` is recorded in place of re-simulating that check:
    ``check`` passes the recorded section, the one part of the record that
    only re-simulation could re-derive.  The keyword goes with that check.
    """
    config, source, gain, fit = models.config, models.source, models.gain, calibration.fit
    checks = CalibrationChecks()
    if fit is not None:
        sigma2_rel = gain.sigma2 / gain.gamma_bar**2
        fit = fit._replace(gamma_bar_corrected=fit.intercept / (1.0 + sigma2_rel))
        if fit.valid and source.mean_n > 0:
            refs = [eta * source.mean_n for eta in config.eta_series]
            constancy = mean_constancy_check(
                fit.points, fit.intercept, refs, gamma_bar_se=fit.intercept_se, sigma2_rel=sigma2_rel
            )
            scaling = None
            if config.gain_scale_factors:
                scaling = gain_scaling if gain_scaling is not _SIMULATE else gain_scaling_check(
                    source, gain, models.dark, list(config.eta_series),
                    list(config.gain_scale_factors), config.n_samples, config.seed, baseline=fit,
                )
            checks = CalibrationChecks(constancy, scaling)
    return calibration._replace(config_sha256=models.config_sha256, fit=fit, checks=checks)


def reconstruction_gamma(fit, configured_gamma_bar: float) -> tuple[float, float, str]:
    """gamma_bar, its SE and their source for the reconstruction, from the ``fit`` of ``calibration.json``.

    A valid fit gives its intercept; no fit, or an invalid one, gives the
    configured gain with SE 0.  ``run``, ``check`` and ``reconstruct
    --from-calibration`` all choose here.
    """
    if fit is not None and fit["valid"]:
        return fit["intercept"], fit["intercept_se"], "calibration intercept"
    return configured_gamma_bar, 0.0, "configured gain (calibration unavailable)"


def reconstruction_metrics(shifted, gamma_bar, se_gamma_bar, gamma_bar_source):
    """Rebin a zero-set ensemble; return the result, its blind ``PmMetrics`` and the ensemble's ``sample_moments``.

    The reconstructed mean is checked against mean_v / gamma_bar.
    """
    result = rebin(shifted, gamma_bar)
    moments = sample_moments(shifted.samples, order=ORDER_MAX)
    mean_v = moments.mean
    se_mean_v = math.sqrt(moments.central_moment(2) / shifted.n_samples)  # as a sweep point's
    consistency = self_consistency_check(result, mean_v, se_mean_v=se_mean_v, se_gamma_bar=se_gamma_bar)
    return result, PmMetrics(
        gamma_bar_used=result.gamma_bar_used,
        gamma_bar_source=gamma_bar_source,
        underflow_fraction=result.underflow_fraction,
        mean_m_hat=result.mean_m_hat,
        mean_v=mean_v,
        self_consistency=consistency,
    ), moments


def gain_scaling_lines(scaling: dict) -> list[str]:
    """The report's section on the ``files.as_dict`` gain-scaling report ``scaling``; ``check`` validates one with it."""
    return ["", "## Gain-scaling check", ""] + [
        f"- [{'PASS' if row['passed'] else 'FAIL'}] factor {row['factor']:g}: "
        f"intercept ratio = {_fmt(row['ratio'])} +- {_fmt(row['ratio_se'])}"
        for row in scaling["rows"]
    ]


def report_text(models: Models, points, calibration: dict, metrics: PmMetrics, result, moments, truth) -> str:
    """The text of ``report.md``, from the ``files.as_dict`` calibration record and the reconstruction's metrics.

    Its moment table sets the sample ``moments`` of the reconstruction
    ensemble beside the exact voltage moments of the detected ``truth``.
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
        lines += gain_scaling_lines(scaling)
    lines += [
        "",
        "## Reconstruction",
        "",
        f"- ensemble: eta = {config.reconstruct_eta:.4f}, N = {result.n_samples}",
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
    analytic = analytic_voltage_moments(truth, gain, dark, order=ORDER_MAX)
    lines += [
        f"| {r} | {_fmt(moments.central_moment(r))} | {_fmt(analytic.central_moment(r))} |"
        for r in range(2, ORDER_MAX + 1)
    ]
    return "\n".join(lines + [""])


def derive(models: Models, dark, points, reconstruction, *, gain_scaling=_SIMULATE):
    """The ``CalibrationRecord``, ``ReconstructionResult`` and ``PmMetrics`` of a run, and its texts by file name.

    The blind analysis of the dark record's moments ``dark``, the sweep
    ``points`` and the raw ``reconstruction`` ensemble, set against the
    generating ``models``, the one place ``run`` and ``check`` read them
    after drawing: :func:`against_model` (``gain_scaling`` goes there),
    the TV distance and fidelity to the true detected law, the configured
    gain where no valid fit sets the bins, and the report's config lines
    and analytic moments.  The texts are ``calibration.json``, ``pm.csv``,
    ``pm_metrics.json`` and ``report.md``.
    """
    sha = models.config_sha256
    calibration = against_model(models, calibrate(points, dark.central_moment(2)), gain_scaling=gain_scaling)
    record = as_dict(calibration)
    gamma = reconstruction_gamma(record["fit"], models.gain.gamma_bar)
    result, metrics, moments = reconstruction_metrics(subtract_offset(reconstruction, dark.mean), *gamma)
    truth = apply_bernoulli(models.source, models.config.reconstruct_eta)
    result = compare(result, truth)
    metrics = metrics._replace(config_sha256=sha, tv_distance=result.tv_distance, fidelity=result.fidelity)
    texts = {
        "calibration.json": canonical_json(record),
        "pm.csv": pm_csv_text(result, {"config_sha256": sha}),
        "pm_metrics.json": canonical_json(as_dict(metrics)),
        "report.md": report_text(models, points, record, metrics, result, moments, truth),
    }
    return calibration, result, metrics, texts


def run_experiment(config: cfgmod.RunConfig, out_dir) -> RunResult:
    """Run the full pipeline and write all artifacts into ``out_dir``.

    The models are built first, so a source that cannot be built writes
    nothing, and so does an ``out_dir`` that holds a run's ensembles
    (``simulate_sweep``); the four derived texts are all formed before any
    is written.
    """
    models = Models(config)
    out = Path(out_dir)
    dark, points, rec_ens, sweep_files = simulate_sweep(models, out, reconstruction=True)
    cfgmod.save(config, out / "config.json")
    files = {"config": out / "config.json", **sweep_files}
    calibration, result, metrics, texts = derive(models, dark, points, rec_ens)
    for name, text in texts.items():
        path = out / name
        path.write_text(text)
        files[path.stem] = path  # calibration, pm, pm_metrics, report

    fit, checks = calibration.fit, calibration.checks
    return RunResult(
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

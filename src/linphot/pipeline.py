"""End-to-end experiment runner: simulate, calibrate, reconstruct, report.

``run_experiment`` composes the stage functions below; each CLI
subcommand calls the same stages.  All artifacts carry the config hash;
outputs are byte-identical for a fixed (config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import config as cfgmod
from .calibration import (
    CalibrationFit,
    fit_fano_line,
    gain_scaling_check,
    iter_eta_series,
    mean_constancy_check,
)
from .detector import simulate_ensemble
from .errors import LinphotError
from .files import write_ensemble_csv, write_json, write_pm_csv
from .moments import analytic_voltage_moments, sample_moments
from .reconstruction import (
    ReconstructionResult,
    rebin,
    self_consistency_check,
    subtract_offset,
    with_reference_metrics,
)
from .streams import DARK, RECONSTRUCTION


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


def simulate_sweep(config, source, gain, dark, out: Path, header: dict):
    """Simulate and write the dark record and the sweep ensembles as CSV.

    Returns the dark ensemble, the sweep points and the written paths.
    """
    # eta = 0 yields the dark record only
    dark_ens = simulate_ensemble(
        source, 0.0, gain, dark, config.n_samples, config.seed,
        stream_key=(DARK,), keep_truth=False,
    )
    files = {"dark": out / "dark.csv"}
    write_ensemble_csv(files["dark"], dark_ens, extra_header=header)
    points = []
    sweep = iter_eta_series(source, gain, dark, config.eta_series, config.n_samples, config.seed)
    for i, (point, ens) in enumerate(sweep):
        files[f"ensemble_{i}"] = out / f"ensemble_{i:02d}_eta_{ens.eta:.6f}.csv"
        write_ensemble_csv(files[f"ensemble_{i}"], ens, extra_header=header)
        points.append(point)
    return dark_ens, points, files


def calibrate(points, sigma2_rel: float | None):
    """Fit the fano line: ``(fit, None)``, or ``(None, reason)`` when none fits.

    An intercept at or below zero is returned as a fit flagged invalid.
    """
    if not any(p.mean_v > 5.0 * p.se_mean_v for p in points):
        return None, "no significant light at any efficiency; calibration skipped"
    try:
        return fit_fano_line(points, sigma2_rel=sigma2_rel), None
    except LinphotError as exc:
        return None, str(exc)


def write_calibration(path, config_sha256, dark_variance, fit, fit_error, constancy, scaling):
    """Write the ``calibration.json`` document."""
    write_json(
        path,
        {
            "schema_version": 1,
            "config_sha256": config_sha256,
            "dark_variance_subtracted": dark_variance,
            "fit": fit.to_dict() if fit is not None else None,
            "fit_error": fit_error,
            "checks": {
                "mean_constancy": constancy.to_dict() if constancy is not None else None,
                "gain_scaling": scaling.to_dict() if scaling is not None else None,
            },
        },
    )


def reconstruct(ensemble, dark_mean: float, gamma_bar: float, se_gamma_bar: float):
    """Zero-set and rebin one ensemble, then check the reconstructed mean.

    Returns the zero-set ensemble, the rebinned result, its mean voltage
    and the self-consistency report.
    """
    shifted = subtract_offset(ensemble, dark_mean)
    result = rebin(shifted, gamma_bar)
    mean_v = float(shifted.samples.mean())
    se_mean_v = float(shifted.samples.std(ddof=1) / math.sqrt(shifted.n_samples))
    consistency = self_consistency_check(
        result, mean_v, se_mean_v=se_mean_v, se_gamma_bar=se_gamma_bar
    )
    return shifted, result, mean_v, consistency


def write_reconstruction(out: Path, result, mean_v, consistency, header: dict, extra: dict):
    """Write ``pm.csv`` and ``pm_metrics.json``; ``header`` tags both.

    Returns the written paths.
    """
    files = {"pm": out / "pm.csv", "pm_metrics": out / "pm_metrics.json"}
    write_pm_csv(files["pm"], result, header)
    write_json(
        files["pm_metrics"],
        {
            **header,
            "gamma_bar_used": result.gamma_bar_used,
            "underflow_fraction": result.underflow_fraction,
            "mean_m_hat": result.mean_m_hat,
            "mean_v": mean_v,
            "self_consistency": consistency.to_dict(),
            **extra,
        },
    )
    return files


def run_experiment(config: cfgmod.RunConfig, out_dir) -> RunResult:
    """Run the full pipeline and write all artifacts into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sha = cfgmod.config_hash(config)
    header = {"config_sha256": sha}
    cfgmod.save(config, out / "config.json")
    files = {"config": out / "config.json"}

    source = cfgmod.build_source(config)
    gain = cfgmod.build_gain(config)
    dark = cfgmod.build_dark(config)
    sigma2_rel = gain.sigma2 / gain.gamma_bar**2

    dark_ens, points, sweep_files = simulate_sweep(config, source, gain, dark, out, header)
    files.update(sweep_files)

    fit, fit_error = calibrate(points, sigma2_rel)
    # the checks need a valid fit (the scaling baseline) and some light
    constancy = None
    scaling = None
    if fit is not None and fit.valid and source.mean_n > 0:
        refs = [eta * source.mean_n for eta in config.eta_series]
        constancy = mean_constancy_check(
            points,
            fit.gamma_bar_est,
            refs,
            gamma_bar_se=fit.intercept_se,
            sigma2_rel=sigma2_rel,
        )
        if config.gain_scale_factors:
            scaling = gain_scaling_check(
                source,
                gain,
                dark,
                list(config.eta_series),
                list(config.gain_scale_factors),
                config.n_samples,
                config.seed,
                baseline=fit,
            )
    files["calibration"] = out / "calibration.json"
    write_calibration(
        files["calibration"], sha, dark.sigma0**2, fit, fit_error, constancy, scaling
    )

    # reconstruction at the chosen efficiency
    rec_ens = simulate_ensemble(
        source,
        config.reconstruct_eta,
        gain,
        dark,
        config.reconstruction_n_samples,
        config.seed,
        stream_key=(RECONSTRUCTION,),
    )
    rec_name = f"reconstruction_eta_{config.reconstruct_eta:.6f}.csv"
    write_ensemble_csv(out / rec_name, rec_ens, extra_header=header)
    files["reconstruction_ensemble"] = out / rec_name

    if fit is not None and fit.valid:
        gamma_used = fit.gamma_bar_est
        gamma_source = "calibration intercept"
        se_gamma = fit.intercept_se
    else:
        gamma_used = gain.gamma_bar
        gamma_source = "configured gain (calibration unavailable)"
        se_gamma = 0.0
    shifted, result, mean_v, consistency = reconstruct(
        rec_ens, float(dark_ens.samples.mean()), gamma_used, se_gamma
    )
    truth = rec_ens.truth
    result = with_reference_metrics(result, truth)
    extra = {
        "gamma_bar_source": gamma_source,
        "tv_distance": result.tv_distance,
        "fidelity": result.fidelity,
    }
    files.update(write_reconstruction(out, result, mean_v, consistency, header, extra))

    # report
    verdicts = {
        "calibration_valid": bool(fit is not None and fit.valid),
        "mean_constancy": None if constancy is None else constancy.passed,
        "gain_scaling": None if scaling is None else scaling.passed,
        "self_consistency": consistency.passed,
    }
    sample_m5 = sample_moments(shifted.samples, order=config.moment_order)
    analytic_m5 = analytic_voltage_moments(truth, gain, dark, order=config.moment_order)
    lines = [
        "# linphot experiment report",
        "",
        f"- config hash: `{sha}`",
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
    for p in points:
        lines.append(
            f"| {p.eta:.4f} | {_fmt(p.mean_v)} | {_fmt(p.fano_v)} | {_fmt(p.se_fano_v)} |"
        )
    lines.append("")
    if fit is not None:
        lines += [
            f"- slope = {_fmt(fit.slope)} +- {_fmt(fit.slope_se)}",
            f"- intercept = {_fmt(fit.intercept)} +- {_fmt(fit.intercept_se)} (r^2 = {_fmt(fit.r_squared)})",
            f"- gamma_bar_est = {_fmt(fit.gamma_bar_est)}"
            + (
                f", spread-corrected = {_fmt(fit.gamma_bar_corrected)}"
                if fit.gamma_bar_corrected is not None
                else ""
            ),
            f"- [{'PASS' if fit.valid else 'FAIL'}] calibration fit valid (positive intercept)",
        ]
    else:
        lines.append(f"- [FAIL] calibration fit unavailable: {fit_error}")
    if constancy is not None:
        lines.append(
            f"- [{'PASS' if constancy.passed else 'FAIL'}] mean constancy across eta ("
            f"pooled mean_v/<m> = {_fmt(constancy.pooled_ratio)})"
        )
    if scaling is not None:
        lines += ["", "## Gain-scaling check", ""]
        for row in scaling.rows:
            lines.append(
                f"- [{'PASS' if row.passed else 'FAIL'}] factor {row.factor:g}: "
                f"intercept ratio = {_fmt(row.ratio)} +- {_fmt(row.ratio_se)}"
            )
    lines += [
        "",
        "## Reconstruction",
        "",
        f"- ensemble: eta = {config.reconstruct_eta:.4f}, N = {result.n_samples}",
        f"- gamma_bar used = {_fmt(gamma_used)} ({gamma_source})",
        f"- underflow fraction = {_fmt(result.underflow_fraction)}",
        f"- reconstructed <m> = {_fmt(result.mean_m_hat)}, mean_v/gamma_bar = {_fmt(consistency.mean_v_over_gamma)}",
        f"- [{'PASS' if consistency.passed else 'FAIL'}] self-consistency |diff| = "
        f"{_fmt(consistency.difference)} <= {_fmt(consistency.tolerance)}",
        f"- TV distance vs generating P_m = {_fmt(result.tv_distance)}",
        f"- fidelity vs generating P_m = {_fmt(result.fidelity)}",
        "",
        "## Voltage moments at the reconstruction point",
        "",
        "| order | sample | analytic |",
        "|------:|-------:|---------:|",
    ]
    for r in range(2, config.moment_order + 1):
        lines.append(
            f"| {r} | {_fmt(sample_m5.central_moment(r))} | {_fmt(analytic_m5.central_moment(r))} |"
        )
    lines.append("")
    (out / "report.md").write_text("\n".join(lines))
    files["report"] = out / "report.md"

    return RunResult(
        out_dir=out,
        config_sha256=sha,
        calibration=fit,
        reconstruction=result,
        verdicts=verdicts,
        files=files,
    )

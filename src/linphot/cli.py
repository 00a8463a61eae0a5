"""Command-line interface.

Subcommands: run | simulate | moments | calibrate | reconstruct | check.
Exit codes: 0 success, 1 missing input / I/O failure, 2 invalid config or
arguments.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .calibration import fit_fano_line, iter_eta_series
from .errors import ConfigError, InvalidParameterError, LinphotError
from .files import canonical_json, read_ensemble, read_json, read_pm_csv, write_json
from .loss import apply_bernoulli
from .moments import sample_moments
from .pipeline import (
    Models,
    calibrate,
    read_dark,
    reconstruct,
    reconstruction_gamma,
    reconstruction_metrics,
    reconstruction_path,
    run_experiment,
    simulate_sweep,
    sweep_points,
)
from .reconstruction import subtract_offset


def _load_config(path, seed_override):
    config = cfgmod.load(path)
    if seed_override is not None:
        config = cfgmod.from_dict({**config.to_dict(), "seed": seed_override})
    return config


def _resolve_out(args, config=None):
    out = args.out or (config.out_dir if config is not None else None)
    if out is None:
        raise ConfigError("out_dir: give --out or set out_dir in the config")
    return Path(out)


def _read_calibration(path):
    """The dark variance and checked fit numbers (None: no fit) of a calibration file.

    A malformed file raises an error that names it.
    """
    doc = read_json(path)
    try:
        fit = doc.get("fit")
        if fit is not None:
            fit = {
                **{key: float(fit[key]) for key in ("slope", "intercept", "intercept_se")},
                "valid": fit["valid"] is True,
                "points": [(float(p["eta"]), float(p["mean_v"]), float(p["fano_v"])) for p in fit["points"]],
            }
        return float(doc.get("dark_variance_subtracted", 0.0)), fit
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"calibration file is malformed: {path}: {exc!r}") from exc


def _cmd_run(args) -> int:
    config = _load_config(args.config, args.seed)
    result = run_experiment(config, _resolve_out(args, config))
    print(f"report: {result.files['report']}")
    for name, verdict in result.verdicts.items():
        if verdict is not None:
            print(f"[{'PASS' if verdict else 'FAIL'}] {name}")
    return 0


def _cmd_simulate(args) -> int:
    config = _load_config(args.config, args.seed)
    out = _resolve_out(args, config)
    out.mkdir(parents=True, exist_ok=True)
    simulate_sweep(Models(config), out)
    print(f"wrote {len(config.eta_series)} ensembles + dark.npy, each with a .json sidecar, to {out}")
    return 0


def _cmd_moments(args) -> int:
    ens = read_ensemble(args.input)
    mset = sample_moments(ens.samples, order=args.order)
    print(canonical_json(mset.to_dict()), end="")
    return 0


def _cmd_calibrate(args) -> int:
    config = _load_config(args.config, args.seed) if args.config else None
    out = _resolve_out(args, config)
    if config is not None:
        models = Models(config)
        sweep = iter_eta_series(
            models.source, models.gain, models.dark, config.eta_series, config.n_samples, config.seed
        )
        record = calibrate([point for point, _ in sweep], models.dark.sigma0**2, models)
    else:
        ens_dir = Path(args.ensembles)
        dark_ens = read_dark(ens_dir)
        dark_mean = float(dark_ens.samples.mean())
        dark_var = float(np.mean((dark_ens.samples - dark_mean) ** 2))
        points = sweep_points(ens_dir, dark_mean, dark_var)
        if not points:
            print(f"error: no ensemble_*.npy or ensemble_*.csv files in {ens_dir}", file=sys.stderr)
            return 1
        record = calibrate(points, dark_var)
    fit = record.fit
    if fit is None:
        raise LinphotError(record.fit_error)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "calibration.json", asdict(record))
    print(f"gamma_bar_est = {fit.intercept!r} +- {fit.intercept_se!r}")
    print(f"slope = {fit.slope!r} +- {fit.slope_se!r}")
    print(f"wrote {out / 'calibration.json'}")
    return 0


def _cmd_reconstruct(args) -> int:
    ens = read_ensemble(args.input)
    if args.gamma_bar is not None:
        gamma = (args.gamma_bar, 0.0, "--gamma-bar")
    else:
        _, fit = _read_calibration(args.from_calibration)
        if fit is None or not fit["valid"]:
            print(f"error: no valid fit in {args.from_calibration}", file=sys.stderr)
            return 1
        gamma = (fit["intercept"], fit["intercept_se"], "calibration intercept")
    dark_mean = float(read_ensemble(args.dark).samples.mean()) if args.dark else 0.0
    out = Path(args.out)
    _, metrics = reconstruct(subtract_offset(ens, dark_mean), *gamma, out)
    print(f"wrote {out / 'pm.csv'} and {out / 'pm_metrics.json'}")
    print(f"[{'PASS' if metrics.self_consistency.passed else 'FAIL'}] self-consistency")
    return 0


def _cmd_check(args) -> int:
    out = Path(args.out)
    failures = []

    def verdict(name, ok):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        if not ok:
            failures.append(name)

    config = cfgmod.load(out / "config.json")
    dark_var, fit = _read_calibration(out / "calibration.json")
    dark = read_dark(out)
    verdict("dark record readable", dark.samples.size > 0)
    # the recorded subtraction constant and no dark mean, as run computed
    # the points, so the statistics pipeline is replayed bit for bit
    points = sweep_points(out, 0.0, dark_var)
    etas = list(config.eta_series)
    matched = [point.eta for point in points] == etas
    verdict(f"one ensemble per configured eta ({len(points)} ensembles, {len(etas)} etas)", matched)
    if matched and fit is not None:
        recorded = fit["points"]
        if len(points) != len(recorded):
            verdict(f"one ensemble per recorded point ({len(points)} for {len(recorded)})", False)
        else:
            for point, (eta, mean_v, fano_v) in zip(points, recorded):
                ok = point.eta == eta
                ok = ok and math.isclose(point.mean_v, mean_v, rel_tol=1e-9, abs_tol=1e-12)
                ok = ok and math.isclose(point.fano_v, fano_v, rel_tol=1e-9, abs_tol=1e-12)
                verdict(f"eta={eta:.6f} point statistics reproduce", ok)
            refit = fit_fano_line(points)
            verdict(
                "fano-line fit reproduces",
                math.isclose(refit.slope, fit["slope"], rel_tol=1e-6, abs_tol=1e-12)
                and math.isclose(refit.intercept, fit["intercept"], rel_tol=1e-6, abs_tol=1e-12),
            )
    pmf, counts, header = read_pm_csv(out / "pm.csv")
    verdict("pm.csv pmf_hat is count / n_samples", np.array_equal(pmf, counts / counts.sum()))
    try:
        gamma_bar = float(header["gamma_bar"])
    except (KeyError, ValueError) as exc:
        raise InvalidParameterError(f"pm file has no '# gamma_bar=' number: {out / 'pm.csv'}") from exc
    models = Models(config)
    docs = {path.name: read_json(path) for path in sorted(out.glob("*.json")) if path.name != "config.json"}
    stamps = {name: doc.get("config_sha256") if isinstance(doc, dict) else None for name, doc in docs.items()}
    # zero-set, rebinned and compared with the truth as run did, so every
    # number agrees exactly; the metrics keep their file's config_sha256,
    # which the provenance verdict checks
    shifted = subtract_offset(read_ensemble(reconstruction_path(out, config)), float(dark.samples.mean()))
    result, metrics = reconstruction_metrics(
        shifted,
        *reconstruction_gamma(fit, models.gain.gamma_bar),
        config_sha256=stamps.get("pm_metrics.json"),
        truth=apply_bernoulli(models.source, config.reconstruct_eta),
    )
    same_table = gamma_bar == result.gamma_bar_used and np.array_equal(result.counts, counts)
    verdict("pm.csv counts re-derived from the reconstruction ensemble", same_table)
    if same_table:  # the metrics describe this table; a different one has failed above
        same_metrics = docs.get("pm_metrics.json") == asdict(metrics)
        verdict("pm_metrics.json re-derived from the reconstruction ensemble", same_metrics)
    sha = models.config_sha256
    stale = [name for name, stamp in {**stamps, "pm.csv": header.get("config_sha256")}.items() if stamp != sha]
    verdict(
        "config_sha256 of config.json in every artifact" + (f" (not in {', '.join(stale)})" if stale else ""),
        not stale,
    )
    verdict("report present", (out / "report.md").exists())
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linphot",
        description=(
            "Simulate linear photodetectors, calibrate the single-photon "
            "response from an efficiency sweep, and rebin voltage records "
            "into detected-photon statistics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="run config JSON")
        p.add_argument("--out", help="output directory (default: config out_dir)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    p_run = sub.add_parser("run", help="full pipeline: simulate, calibrate, reconstruct")
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sim = sub.add_parser("simulate", help="write the sweep ensembles and dark record")
    add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_mom = sub.add_parser("moments", help="sample moments of an ensemble")
    p_mom.add_argument("--input", required=True, help="ensemble .npy (with its .json sidecar) or CSV")
    p_mom.add_argument("--order", type=int, default=5)
    p_mom.set_defaults(func=_cmd_moments)

    p_cal = sub.add_parser("calibrate", help="fit the fano line (simulated or from ensemble files)")
    p_cal.add_argument("--config", help="run config JSON (simulation mode)")
    p_cal.add_argument(
        "--ensembles",
        help="directory of ensemble_<i>_* files (.npy with .json sidecar, or CSV) "
        "and dark.npy or dark.csv (blind mode)",
    )
    p_cal.add_argument("--out", help="output directory (default: config out_dir)")
    p_cal.add_argument("--seed", type=int, default=None)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_rec = sub.add_parser("reconstruct", help="rebin an ensemble into photon counts")
    p_rec.add_argument("--input", required=True, help="ensemble .npy (with its .json sidecar) or CSV")
    group = p_rec.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma-bar", type=float, default=None, dest="gamma_bar")
    group.add_argument("--from-calibration", dest="from_calibration")
    p_rec.add_argument("--dark", help="dark record (.npy or CSV) whose mean sets the zero")
    p_rec.add_argument("--out", required=True)
    p_rec.set_defaults(func=_cmd_reconstruct)

    p_chk = sub.add_parser("check", help="re-derive statistics of an output directory")
    p_chk.add_argument("--out", required=True, help="existing output directory")
    p_chk.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "calibrate" and bool(args.config) == bool(args.ensembles):
        parser.error("calibrate needs exactly one of --config or --ensembles")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LinphotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

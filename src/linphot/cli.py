"""Command-line interface.

Subcommands: run | simulate | moments | calibrate | reconstruct | check.
Exit codes: 0 success, 1 missing input / I/O failure, 2 invalid config or
arguments.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .calibration import eta_point_from_samples, fit_fano_line, iter_eta_series
from .errors import ConfigError, InvalidParameterError, LinphotError
from .files import canonical_json, read_ensemble_csv, read_json, read_pm_csv
from .moments import sample_moments
from .pipeline import (
    calibrate,
    reconstruct,
    run_experiment,
    simulate_sweep,
    write_calibration,
    write_reconstruction,
)


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
    simulate_sweep(
        config,
        cfgmod.build_source(config),
        cfgmod.build_gain(config),
        cfgmod.build_dark(config),
        out,
        {"config_sha256": cfgmod.config_hash(config)},
    )
    print(f"wrote {len(config.eta_series)} ensembles + dark.csv to {out}")
    return 0


def _cmd_moments(args) -> int:
    ens = read_ensemble_csv(args.input)
    mset = sample_moments(ens.samples, order=args.order)
    print(canonical_json(mset.to_dict()), end="")
    return 0


def _cmd_calibrate(args) -> int:
    config = _load_config(args.config, args.seed) if args.config else None
    out = _resolve_out(args, config)
    if config is not None:
        source = cfgmod.build_source(config)
        gain = cfgmod.build_gain(config)
        dark = cfgmod.build_dark(config)
        sweep = iter_eta_series(
            source, gain, dark, config.eta_series, config.n_samples, config.seed
        )
        fit, fit_error = calibrate(
            [point for point, _ in sweep], gain.sigma2 / gain.gamma_bar**2
        )
        sha = cfgmod.config_hash(config)
        dark_var = dark.sigma0**2
    else:
        ens_dir = Path(args.ensembles)
        dark_ens = read_ensemble_csv(ens_dir / "dark.csv")
        dark_mean = float(dark_ens.samples.mean())
        dark_var = float(np.mean((dark_ens.samples - dark_mean) ** 2))
        paths = sorted(p for p in ens_dir.glob("ensemble_*.csv"))
        if not paths:
            print(f"error: no ensemble_*.csv files in {ens_dir}", file=sys.stderr)
            return 1
        points = []
        for path in paths:
            ens = read_ensemble_csv(path)
            points.append(
                eta_point_from_samples(
                    ens.eta, ens.samples - dark_mean, dark_variance=dark_var
                )
            )
        fit, fit_error = calibrate(points, None)
        sha = None
    if fit is None:
        raise LinphotError(fit_error)
    out.mkdir(parents=True, exist_ok=True)
    write_calibration(out / "calibration.json", sha, dark_var, fit, None, None, None)
    print(f"gamma_bar_est = {fit.gamma_bar_est!r} +- {fit.intercept_se!r}")
    print(f"slope = {fit.slope!r} +- {fit.slope_se!r}")
    print(f"wrote {out / 'calibration.json'}")
    return 0


def _cmd_reconstruct(args) -> int:
    ens = read_ensemble_csv(args.input)
    if args.gamma_bar is not None:
        gamma_bar = args.gamma_bar
        se_gamma_bar = 0.0
    else:
        doc = read_json(args.from_calibration)
        fit = doc.get("fit") or {}
        gamma_bar = fit.get("gamma_bar_est")
        se_gamma_bar = fit.get("intercept_se")
        if gamma_bar is None or se_gamma_bar is None or not fit.get("valid", False):
            print(
                f"error: no valid gamma_bar_est and intercept_se in {args.from_calibration}",
                file=sys.stderr,
            )
            return 1
    dark_mean = 0.0
    if args.dark:
        dark_mean = float(read_ensemble_csv(args.dark).samples.mean())
    _, result, mean_v, consistency = reconstruct(ens, dark_mean, gamma_bar, se_gamma_bar)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = write_reconstruction(out, result, mean_v, consistency, {}, {})
    print(f"wrote {files['pm']} and {files['pm_metrics']}")
    print(f"[{'PASS' if consistency.passed else 'FAIL'}] self-consistency")
    return 0


def _cmd_check(args) -> int:
    out = Path(args.out)
    failures = []

    def verdict(name, ok):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        if not ok:
            failures.append(name)

    cal_path = out / "calibration.json"
    if not cal_path.exists():
        print(f"error: {cal_path} not found", file=sys.stderr)
        return 1
    doc = read_json(cal_path)
    try:
        # recompute with the recorded subtraction constant so the statistics
        # pipeline is replayed bit-for-bit
        dark_var = float(doc.get("dark_variance_subtracted", 0.0))
        fit = doc.get("fit")
        if fit is not None:
            slope, intercept = float(fit["slope"]), float(fit["intercept"])
            recorded = [(float(p["eta"]), float(p["mean_v"]), float(p["fano_v"])) for p in fit["points"]]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"calibration file is malformed: {cal_path}: {exc!r}") from exc
    dark_path = out / "dark.csv"
    if dark_path.exists():
        verdict("dark record readable", read_ensemble_csv(dark_path).samples.size > 0)
    if fit is not None:
        points = []
        for eta, mean_v, fano_v in recorded:
            matches = sorted(out.glob(f"ensemble_*_eta_{eta:.6f}.csv"))
            if not matches:
                verdict(f"ensemble for eta={eta:.6f} present", False)
                continue
            ens = read_ensemble_csv(matches[0])
            point = eta_point_from_samples(eta, ens.samples, dark_variance=dark_var)
            ok = math.isclose(point.mean_v, mean_v, rel_tol=1e-9, abs_tol=1e-12)
            ok = ok and math.isclose(point.fano_v, fano_v, rel_tol=1e-9, abs_tol=1e-12)
            verdict(f"eta={eta:.6f} point statistics reproduce", ok)
            points.append(point)
        if len(points) == len(recorded):
            refit = fit_fano_line(points)
            verdict(
                "fano-line fit reproduces",
                math.isclose(refit.slope, slope, rel_tol=1e-6, abs_tol=1e-12)
                and math.isclose(refit.intercept, intercept, rel_tol=1e-6, abs_tol=1e-12),
            )
    pm_path = out / "pm.csv"
    if pm_path.exists():
        pmf, counts = read_pm_csv(pm_path)
        verdict("pm.csv pmf normalized", abs(pmf.sum() - 1.0) < 1e-9)
        verdict(
            "pm.csv counts consistent", bool(np.allclose(counts / counts.sum(), pmf))
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

    p_mom = sub.add_parser("moments", help="sample moments of an ensemble CSV")
    p_mom.add_argument("--input", required=True, help="ensemble CSV")
    p_mom.add_argument("--order", type=int, default=5)
    p_mom.set_defaults(func=_cmd_moments)

    p_cal = sub.add_parser("calibrate", help="fit the fano line (simulated or from CSVs)")
    p_cal.add_argument("--config", help="run config JSON (simulation mode)")
    p_cal.add_argument(
        "--ensembles", help="directory of per-eta ensemble CSVs plus dark.csv (blind mode)"
    )
    p_cal.add_argument("--out", help="output directory (default: config out_dir)")
    p_cal.add_argument("--seed", type=int, default=None)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_rec = sub.add_parser("reconstruct", help="rebin an ensemble into photon counts")
    p_rec.add_argument("--input", required=True, help="ensemble CSV")
    group = p_rec.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma-bar", type=float, default=None, dest="gamma_bar")
    group.add_argument("--from-calibration", dest="from_calibration")
    p_rec.add_argument("--dark", help="dark CSV whose mean sets the zero")
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

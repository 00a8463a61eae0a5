"""Command-line interface.

Subcommands: run | simulate | moments | calibrate | reconstruct | check.
Exit codes: 0 success, 1 missing input / I/O failure, 2 invalid config or
arguments.  A missing config file is a config error and exits 2; a missing
ensemble or dark record exits 1.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from . import config as cfgmod
from .errors import ConfigError, InvalidParameterError, LinphotError
from .files import as_dict, canonical_json, pm_csv_text, read_json, write_json
from .moments import sample_moments
from .pipeline import (
    Models,
    calibrate,
    dark_moments,
    dark_path,
    derive,
    gain_scaling_lines,
    read_reducible,
    reconstruction_gamma,
    reconstruction_metrics,
    reconstruction_path,
    run_experiment,
    simulate_sweep,
    sweep_paths,
    sweep_points,
)
from .reconstruction import subtract_offset


def _load_config(path, seed_override):
    config = cfgmod.load(path)
    if seed_override is not None:
        config = cfgmod.from_dict({**config.to_dict(), "seed": seed_override})
    return config


def _resolve_out(args, config):
    out = args.out or config.out_dir
    if out is None:
        raise ConfigError("out_dir: give --out or set out_dir in the config")
    return Path(out)


def _read_calibration(path):
    """The ``intercept``, ``intercept_se`` and ``valid`` of a calibration file's fit; None: no fit.

    A malformed file raises an error that names it.
    """
    doc = read_json(path)
    try:
        fit = doc.get("fit")
        if fit is None:
            return None
        return {**{key: float(fit[key]) for key in ("intercept", "intercept_se")}, "valid": fit["valid"] is True}
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
    simulate_sweep(Models(config), out)
    print(f"wrote {len(config.eta_series)} ensembles + dark.npy, each with a .json sidecar, to {out}")
    return 0


def _cmd_moments(args) -> int:
    ens = read_reducible(args.input)
    mset = sample_moments(ens.samples, order=args.order)
    print(canonical_json(mset.to_dict()), end="")
    return 0


def _cmd_calibrate(args) -> int:
    out = Path(args.out)
    ens_dir = Path(args.ensembles)
    dark = dark_moments(dark_path(ens_dir))
    points = sweep_points(sweep_paths(ens_dir), dark)
    if not points:
        print(f"error: no ensemble_*.npy or ensemble_*.csv files in {ens_dir}", file=sys.stderr)
        return 1
    record = calibrate(points, dark.central_moment(2))
    fit = record.fit
    if fit is None:
        raise LinphotError(record.fit_error)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "calibration.json", as_dict(record))
    print(f"gamma_bar_est = {fit.intercept!r} +- {fit.intercept_se!r}")
    print(f"slope = {fit.slope!r} +- {fit.slope_se!r}")
    print(f"wrote {out / 'calibration.json'}")
    return 0


def _cmd_reconstruct(args) -> int:
    ens = read_reducible(args.input)
    if args.gamma_bar is not None:
        gamma = (args.gamma_bar, 0.0, "--gamma-bar")
    else:
        fit = _read_calibration(args.from_calibration)
        if fit is None or not fit["valid"]:
            print(f"error: no valid fit in {args.from_calibration}", file=sys.stderr)
            return 1
        gamma = reconstruction_gamma(fit, None)
    dark_mean = dark_moments(args.dark).mean if args.dark else 0.0
    result, metrics, _ = reconstruction_metrics(subtract_offset(ens, dark_mean), *gamma)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "pm.csv").write_text(pm_csv_text(result, {}))
    write_json(out / "pm_metrics.json", as_dict(metrics))
    print(f"wrote {out / 'pm.csv'} and {out / 'pm_metrics.json'}")
    print(f"[{'PASS' if metrics.self_consistency.passed else 'FAIL'}] self-consistency")
    return 0


def _recorded_gain_scaling(path):
    """The ``checks.gain_scaling`` section of the calibration file ``path``; one the report cannot render raises."""
    try:
        scaling = read_json(path)["checks"]["gain_scaling"]
    except (FileNotFoundError, KeyError, TypeError):  # missing or malformed: fails the replay
        return None
    try:
        if scaling is not None:
            gain_scaling_lines(scaling)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(f"calibration file is malformed: {path}: checks.gain_scaling: {exc!r}") from exc
    return scaling


def _cmd_check(args) -> int:
    """Replay ``run``'s analysis and derivation on a run directory's inputs; each artifact must match byte for byte.

    A malformed input (``config.json``, an ensemble or its sidecar, the dark
    record), an ensemble of one sample, a sweep ensemble of mean 0, a
    ``calibration.json`` that is not JSON or whose gain-scaling section is
    malformed exits 2 naming it.
    """
    out = Path(args.out)
    failures = []

    def verdict(name, ok):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        if not ok:
            failures.append(name)

    config = cfgmod.load(out / "config.json")
    models = Models(config)
    paths = [dark_path(out), *sweep_paths(out), reconstruction_path(out, config)]
    dark = dark_moments(paths[0])
    points = sweep_points(paths[1:-1], dark)
    reconstruction = read_reducible(paths[-1])
    # a .npy carries the hash in its sidecar; a CSV carries none
    stale = [
        path.name for path in (p.with_suffix(".json") if p.suffix == ".npy" else p for p in paths)
        if path.suffix != ".json" or read_json(path).get("config_sha256") != models.config_sha256
    ]
    verdict(
        "config_sha256 of config.json in every ensemble sidecar" + (f" (not in {', '.join(stale)})" if stale else ""),
        not stale,
    )
    etas = list(config.eta_series)
    matched = [point.eta for point in points] == etas
    verdict(f"one ensemble per configured eta ({len(points)} ensembles, {len(etas)} etas)", matched)
    if not matched:  # everything derived depends on the sweep
        return 1
    # the one recorded section no replay re-derives: only re-simulation could
    gain_scaling = _recorded_gain_scaling(out / "calibration.json")
    *_, texts = derive(models, dark, points, reconstruction, gain_scaling=gain_scaling)
    for name, text in texts.items():
        path = out / name
        verdict(f"{name} replayed byte for byte", path.exists() and path.read_bytes() == text.encode())
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

    p_cal = sub.add_parser("calibrate", help="fit the fano line to a directory of ensemble files")
    p_cal.add_argument(
        "--ensembles",
        required=True,
        help="directory of ensemble_<i>_* files (.npy with .json sidecar, or CSV) and dark.npy or dark.csv",
    )
    p_cal.add_argument("--out", required=True, help="output directory")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_rec = sub.add_parser("reconstruct", help="rebin an ensemble into photon counts")
    p_rec.add_argument("--input", required=True, help="ensemble .npy (with its .json sidecar) or CSV")
    group = p_rec.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma-bar", type=float, default=None, dest="gamma_bar")
    group.add_argument("--from-calibration", dest="from_calibration")
    p_rec.add_argument("--dark", help="dark record (.npy or CSV) whose mean sets the zero")
    p_rec.add_argument("--out", required=True)
    p_rec.set_defaults(func=_cmd_reconstruct)

    p_chk = sub.add_parser("check", help="replay a run directory's stages and compare its artifacts byte for byte")
    p_chk.add_argument("--out", required=True, help="existing output directory")
    p_chk.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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


def entry() -> None:
    """The ``linphot`` command: run :func:`main`, then exit with its code.

    Freezing the collector first moves every object into the permanent
    generation, which the interpreter's collections at exit do not walk, so
    the process does not trace numpy's whole object graph just to end.
    atexit handlers still run and stdio is still flushed.  ``main`` itself
    leaves the collector alone for callers that stay in process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()

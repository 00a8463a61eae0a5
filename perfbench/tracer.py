"""Span tracer for the traced benchmark run, and its child-process entry point.

``install`` wraps each public layer function of ``linphot`` wherever a
``linphot`` module binds it, found by object identity, so a caller that
imported the function by name is traced as well.  Spans stay in memory and
are written once, when the traced command ends.

Run as a script it executes one ``linphot`` command in process, traced:

    python3 perfbench/tracer.py SPANS_JSON RUN_ID -- run --config W.json --out D
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import json
import math
import os
import pkgutil
import sys
import time

# (span name, home module, function-name patterns)
LAYER_FUNCTIONS = (
    ("config.load", "config", ("load",)),
    ("sources.build", "sources", ("make_*", "from_pmf")),
    ("loss.apply_bernoulli", "loss", ("apply_bernoulli",)),
    ("detector.simulate", "detector", ("simulate_ensemble",)),
    ("moments.sample", "moments", ("sample_moments",)),
    ("moments.analytic", "moments", ("analytic_voltage_moments",)),
    ("calibration.eta_point", "calibration", ("eta_point_from_samples",)),
    ("calibration.fit", "calibration", ("fit_fano_line",)),
    ("calibration.constancy", "calibration", ("mean_constancy_check",)),
    ("calibration.gain_scaling", "calibration", ("gain_scaling_check",)),
    ("reconstruction.rebin", "reconstruction", ("rebin",)),
    ("reconstruction.compare", "reconstruction", ("compare",)),
    ("files.write", "files", ("write_*",)),
    ("files.read", "files", ("read_*",)),
    ("pipeline.run", "pipeline", ("run_experiment",)),
    ("cli.main", "cli", ("main",)),
)


def _file_bytes(a, result):
    return {"bytes": os.path.getsize(a["path"])}


def _bernoulli(a, result):
    n_max = a["source"].n_max
    return {
        "kernel_terms": (n_max + 1) * (n_max + 2) // 2,
        "mass_defect": 1.0 - math.fsum(result.pmf),
    }


def _simulate(a, result):
    shots = int(a["n_samples"])
    return {"shots": shots, "detected_photons": float(a["eta"]) * a["source"].mean_n * shots}


def _rebin(a, result):
    return {"bins": int(result.counts.size), "underflow_frac": result.underflow_fraction}


# span name -> counts taken from the bound arguments and the result
COUNTS = {
    "sources.build": lambda a, r: {"n_max": r.n_max},
    "loss.apply_bernoulli": _bernoulli,
    "detector.simulate": _simulate,
    "reconstruction.rebin": _rebin,
    "files.write": _file_bytes,
    "files.read": _file_bytes,
}


class Tracer:
    """Records one span per call of a wrapped function, in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        sig = inspect.signature(fn)
        hook = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "function": fn.__name__,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
                "start": time.perf_counter(),
                "end": None,
                "counts": {},
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["counts"] = hook(bound.arguments, result)
                except Exception as exc:  # a count must never fail the traced run
                    span["counts_error"] = repr(exc)
            return result

        return traced


def _linphot_modules():
    import linphot

    names = sorted(m.name for m in pkgutil.iter_modules(linphot.__path__))
    return [linphot] + [importlib.import_module(f"linphot.{n}") for n in names]


def _find(modules, home: str, patterns) -> list:
    """Functions defined in ``linphot.<home>`` whose names match ``patterns``."""
    for mod in modules:
        if mod.__name__ == f"linphot.{home}":
            return [
                value
                for attr, value in vars(mod).items()
                if inspect.isfunction(value)
                and value.__module__ == mod.__name__
                and any(fnmatch.fnmatchcase(attr, p) for p in patterns)
            ]
    return []


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer function; return the span names with no function found."""
    modules = _linphot_modules()
    wrappers = {}
    missing = []
    for name, home, patterns in LAYER_FUNCTIONS:
        functions = _find(modules, home, patterns)
        if not functions:
            missing.append(name)
        for fn in functions:
            wrappers[id(fn)] = (fn, tracer.wrap(fn, name))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(mod, attr, entry[1])
    return missing


def _annotate(trace: dict) -> list[dict]:
    """Add duration, time in direct children and ancestor names to each span."""
    spans = trace["spans"]  # a span's id is its index in this list
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        s["child_s"] = 0.0
        s["command"] = trace["command"]
    for s in spans:
        if s["parent"] is not None:
            spans[s["parent"]]["child_s"] += s["dur"]
    for s in spans:
        s["ancestors"] = set()
        p = s["parent"]
        while p is not None:
            s["ancestors"].add(spans[p]["name"])
            p = spans[p]["parent"]
    return spans


def layer_metrics(traces: list[dict]) -> dict:
    """Per-layer metrics of one traced iteration, ``{name: (value, unit)}``.

    ``traces`` holds the span files of the iteration's commands.  A metric
    whose function was not found is reported with value ``None``.
    """
    spans = [s for t in traces for s in _annotate(t)]
    missing = {name for t in traces for name in t["missing"]}

    def of(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        # outermost spans only, so a traced function calling another of the
        # same layer (make_thermal -> make_multimode_thermal) counts once
        return sum(s["dur"] for s in of(name) if name not in s["ancestors"])

    def self_s(name):
        return sum(s["dur"] - s["child_s"] for s in of(name))

    def count(name, key, agg=sum):
        return agg([s["counts"].get(key, 0) for s in of(name)] or [0])

    def per(numerator, denominator, scale=1e9):
        return numerator * scale / denominator if denominator else None

    sim, scal = "detector.simulate", "calibration.gain_scaling"
    table = [
        ("config.load_s", "s", {"config.load"}, lambda: total("config.load")),
        ("sources.build_s", "s", {"sources.build"}, lambda: total("sources.build")),
        ("sources.n_max", "count", {"sources.build"}, lambda: count("sources.build", "n_max", max)),
        ("loss.apply_bernoulli_s", "s", {"loss.apply_bernoulli"}, lambda: total("loss.apply_bernoulli")),
        ("loss.kernel_terms", "count", {"loss.apply_bernoulli"}, lambda: count("loss.apply_bernoulli", "kernel_terms")),
        ("loss.mass_defect", "frac", {"loss.apply_bernoulli"}, lambda: count("loss.apply_bernoulli", "mass_defect", max)),
        ("detector.simulate_s", "s", {sim}, lambda: total(sim)),
        ("detector.self_s", "s", {sim}, lambda: self_s(sim)),
        ("detector.calls", "count", {sim}, lambda: len(of(sim))),
        ("detector.shots", "count", {sim}, lambda: count(sim, "shots")),
        ("detector.ns_per_shot", "ns", {sim}, lambda: per(self_s(sim), count(sim, "shots"))),
        (
            "detector.ns_per_detected_photon",
            "ns",
            {sim},
            lambda: per(self_s(sim), count(sim, "detected_photons")),
        ),
        ("calibration.eta_point_s", "s", {"calibration.eta_point"}, lambda: total("calibration.eta_point")),
        ("calibration.eta_points", "count", {"calibration.eta_point"}, lambda: len(of("calibration.eta_point"))),
        ("calibration.fit_s", "s", {"calibration.fit"}, lambda: total("calibration.fit")),
        ("calibration.constancy_s", "s", {"calibration.constancy"}, lambda: total("calibration.constancy")),
        (
            "calibration.gain_scaling_shots",
            "count",
            {scal, sim},
            lambda: sum(s["counts"].get("shots", 0) for s in of(sim) if scal in s["ancestors"]),
        ),
        ("moments.sample_s", "s", {"moments.sample"}, lambda: total("moments.sample")),
        ("moments.analytic_s", "s", {"moments.analytic"}, lambda: total("moments.analytic")),
        ("reconstruction.rebin_s", "s", {"reconstruction.rebin"}, lambda: total("reconstruction.rebin")),
        ("reconstruction.compare_s", "s", {"reconstruction.compare"}, lambda: total("reconstruction.compare")),
        ("reconstruction.bins", "count", {"reconstruction.rebin"}, lambda: count("reconstruction.rebin", "bins", max)),
        (
            "reconstruction.underflow_frac",
            "frac",
            {"reconstruction.rebin"},
            lambda: count("reconstruction.rebin", "underflow_frac", max),
        ),
        ("files.write_s", "s", {"files.write"}, lambda: total("files.write")),
        ("files.write_mb", "MB", {"files.write"}, lambda: count("files.write", "bytes") / 1e6),
        ("files.write_calls", "count", {"files.write"}, lambda: len(of("files.write"))),
        ("files.read_s", "s", {"files.read"}, lambda: total("files.read")),
        ("files.read_mb", "MB", {"files.read"}, lambda: count("files.read", "bytes") / 1e6),
        ("pipeline.self_s", "s", {"pipeline.run"}, lambda: self_s("pipeline.run")),
        (
            "cli.check_s",
            "s",
            {"cli.main"},
            lambda: sum(s["dur"] for s in of("cli.main") if s["command"] == "check"),
        ),
    ]
    return {name: (None if needs & missing else fn(), unit) for name, unit, needs, fn in table}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spans_path, run_id, sep, *command = argv
    if sep != "--" or not command:
        raise SystemExit("usage: tracer.py SPANS_JSON RUN_ID -- COMMAND [ARGS...]")
    tracer = Tracer(run_id)
    missing = install(tracer)
    import linphot.cli

    try:
        return linphot.cli.main(command)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"command": command[0], "missing": missing, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())

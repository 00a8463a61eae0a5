"""The one analysis of a sweep directory: blind, and exactly equivariant.

Blind ``calibrate`` followed by ``reconstruct --from-calibration --dark`` is
the analysis ``run`` and ``check`` apply to what they draw and read: ``run``
writes what it gives, plus the fields only the generating model fills.
An ast guard keeps it blind: the configured dark noise is read only where
the model is simulated or described, and no analysis function takes the
model or the config.  Its sums are exact and rounded once, so it commutes
with what leaves every rounding alone:

- every voltage times 2^k scales gamma_bar's estimate and its SE by
  exactly 2^k, leaves the slope's bits alone, and keeps every ``pm.csv``
  count;
- permuting each file's shots changes no byte;
- a common offset, dark record included, rounds each voltage once, so the
  intercept and slope move only by that rounding carried through the fit
  (each by less than 1e-12 of its SE), and a shot changes bin only from
  within an ulp of an edge.

Each relation is shown to have power: a mutant of the analysis that is
wrong in the way the relation guards against breaks it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linphot.calibration
import linphot.cli
import linphot.pipeline
from linphot import run_experiment
from linphot.cli import main
from linphot.config import from_dict
from linphot.detector import DarkNoiseModel, VoltageEnsemble, make_gain, simulate_ensemble
from linphot.files import read_ensemble, write_ensemble
from linphot.moments import MomentSet
from linphot.sources import make_poisson
from linphot.streams import DARK, ETA_SERIES, RECONSTRUCTION

ETAS = [0.1, 0.3, 0.5]
NAMES = ["dark.npy", *(f"ensemble_{i:02d}_eta_{eta:.6f}.npy" for i, eta in enumerate(ETAS)), "reconstruction.npy"]
KEYS = [(DARK,), *((ETA_SERIES, i) for i in range(len(ETAS))), (RECONSTRUCTION,)]
N_SHOTS = 2000

EXAMPLES = settings(max_examples=8, deadline=None, derandomize=True)
SWEEPS = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "mean": st.sampled_from([5.0, 20.0, 60.0]),
        "sigma": st.sampled_from([0.0, 2.0, 20.0]),
        "sigma0": st.sampled_from([1.0, 10.0, 30.0]),
    }
)


def write_sweep(directory, seed, mean, sigma, sigma0):
    """A sweep directory: a dark record, one ensemble per ``ETAS`` and a reconstruction ensemble."""
    directory.mkdir()
    source, gain, dark = make_poisson(mean), make_gain("gaussian", 100.0, sigma), DarkNoiseModel(sigma0)
    for name, eta, key in zip(NAMES, [0.0, *ETAS, 0.5], KEYS):
        ens = simulate_ensemble(source, eta, gain, dark, N_SHOTS, seed, stream_key=key)
        write_ensemble(directory / name, ens, None)
    return directory


def transformed(directory, target, fn):
    """A copy of the sweep ``directory`` in ``target`` with ``fn`` applied to each file's samples."""
    target.mkdir()
    for name in NAMES:
        ens = read_ensemble(directory / name)
        write_ensemble(target / name, VoltageEnsemble(fn(ens.samples), ens.eta, ens.n_samples, ens.seed), None)
    return target


def analysed(directory, reconstruction="reconstruction.npy"):
    """The texts of ``calibration.json``, ``pm.csv`` and ``pm_metrics.json`` of the blind analysis of ``directory``."""
    out = directory.with_name(directory.name + "_out")
    cal = out / "calibration.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["calibrate", "--ensembles", str(directory), "--out", str(out)]) == 0
        args = ["reconstruct", "--input", str(directory / reconstruction), "--from-calibration", str(cal)]
        assert main([*args, "--dark", str(directory / "dark.npy"), "--out", str(out)]) == 0
    return {name: (out / name).read_text() for name in ("calibration.json", "pm.csv", "pm_metrics.json")}


def pm_rows(text):
    """The ``m,pmf_hat,count`` rows of a ``pm.csv``."""
    return [line for line in text.splitlines() if not line.startswith("#")]


def scaling_holds(base, scaled, k):
    cal, cal_k = json.loads(base["calibration.json"])["fit"], json.loads(scaled["calibration.json"])["fit"]
    factor = 2.0**k
    metrics, metrics_k = json.loads(base["pm_metrics.json"]), json.loads(scaled["pm_metrics.json"])
    return (
        cal_k["intercept"] == factor * cal["intercept"]
        and cal_k["intercept_se"] == factor * cal["intercept_se"]
        and cal_k["slope"].hex() == cal["slope"].hex()
        and cal_k["slope_se"] == cal["slope_se"]
        and pm_rows(scaled["pm.csv"]) == pm_rows(base["pm.csv"])
        and metrics_k == {
            **metrics, "gamma_bar_used": factor * metrics["gamma_bar_used"], "mean_v": factor * metrics["mean_v"]
        }
    )


def offset_holds(base, shifted):
    fit, fit_c = json.loads(base["calibration.json"])["fit"], json.loads(shifted["calibration.json"])["fit"]
    counts = [np.array([int(row.split(",")[2]) for row in pm_rows(doc["pm.csv"])[1:]]) for doc in (base, shifted)]
    size = max(map(len, counts))
    moved = np.abs(np.subtract(*(np.pad(c, (0, size - len(c))) for c in counts))).sum()
    return (
        abs(fit_c["intercept"] - fit["intercept"]) < 1e-12 * fit["intercept_se"]
        and abs(fit_c["slope"] - fit["slope"]) < 1e-12 * fit["slope_se"]
        and moved <= 4  # two shots, each within an ulp of a bin edge
    )


def permuted(seed):
    rng = np.random.default_rng(seed)
    return lambda samples: rng.permutation(samples)


@EXAMPLES
@given(sweep=SWEEPS, k=st.integers(-8, 8))
def test_scaling_every_voltage_by_a_power_of_two(tmp_path_factory, sweep, k):
    root = tmp_path_factory.mktemp("scaling")
    base = write_sweep(root / "base", **sweep)
    assert scaling_holds(analysed(base), analysed(transformed(base, root / "scaled", lambda v: v * 2.0**k)), k)


@EXAMPLES
@given(sweep=SWEEPS)
def test_permuting_each_files_shots(tmp_path_factory, sweep):
    root = tmp_path_factory.mktemp("permutation")
    base = write_sweep(root / "base", **sweep)
    assert analysed(transformed(base, root / "permuted", permuted(sweep["seed"]))) == analysed(base)


@EXAMPLES
@given(sweep=SWEEPS, offset=st.integers(0, 12).map(lambda j: 2.0**j) | st.integers(0, 12).map(lambda j: -(2.0**j)))
def test_a_common_offset(tmp_path_factory, sweep, offset):
    root = tmp_path_factory.mktemp("offset")
    base = write_sweep(root / "base", **sweep)
    assert offset_holds(analysed(base), analysed(transformed(base, root / "shifted", lambda v: v + offset)))


def numpy_sum_moments(samples, order=5):
    """``sample_moments`` with numpy's pairwise sums in place of the exact ones."""
    x = np.asarray(samples, dtype=float)
    mean = np.sum(x) / x.size
    return MomentSet.from_central(mean, [np.sum((x - mean) ** r) / x.size for r in range(2, order + 1)])


def one_volt_off_zero(ensemble, dark_mean):
    """``subtract_offset`` with a fixed 1 V error in the zero."""
    return VoltageEnsemble(ensemble.samples - (dark_mean + 1.0), ensemble.eta, ensemble.n_samples, ensemble.seed)


# each relation: the transform, the relation, and a mutant of the analysis
# (the name it replaces, the stand-in, the modules that bind the name)
MUTANTS = {
    # order-dependent sums: a permutation moves their last bits
    "permutation": (
        permuted(1), lambda a, b: a == b, "sample_moments", numpy_sum_moments, (linphot.calibration, linphot.pipeline)
    ),
    # an error in volts does not scale with the voltages
    "scaling": (
        lambda v: v * 8.0, lambda a, b: scaling_holds(a, b, 3), "subtract_offset", one_volt_off_zero,
        (linphot.pipeline, linphot.cli),
    ),
    # no zero-setting: the offset stays in every mean
    "offset": (
        lambda v: v + 64.0, offset_holds, "subtract_offset", lambda ensemble, dark_mean: ensemble,
        (linphot.pipeline, linphot.cli),
    ),
}


@pytest.mark.parametrize("relation", MUTANTS)
def test_each_relation_fails_on_its_mutant(tmp_path, monkeypatch, relation):
    transform, holds, name, mutant, modules = MUTANTS[relation]
    base = write_sweep(tmp_path / "base", seed=1, mean=20.0, sigma=2.0, sigma0=10.0)
    other = transformed(base, tmp_path / "other", transform)
    assert holds(analysed(base), analysed(other))
    for module in modules:
        monkeypatch.setattr(module, name, mutant)
    assert not holds(analysed(base), analysed(other))


# where the configured dark noise (``sigma0``, ``models.dark``, ``config.dark``)
# may be read, by (module, top-level definition): the simulation, the
# gain-scaling check, the analytic voltage moments, the report's config
# lines and analytic column, and the components of the expected_rebinned_pmf
# oracle; against_model hands the dark model to the gain-scaling check
MODEL_READERS = {
    ("config.py", "build_dark"),
    ("detector.py", "DarkNoiseModel"),
    ("pipeline.py", "simulate_sweep"),
    ("calibration.py", "gain_scaling_check"),
    ("pipeline.py", "against_model"),
    ("moments.py", "analytic_voltage_moments"),
    ("pipeline.py", "report_text"),
    ("reconstruction.py", "_gaussian_components"),
}
# the analysis: dark record, sweep points, fit and rebinning
ANALYSIS = {
    "pipeline.py": {"dark_moments", "sweep_point", "sweep_points", "calibrate", "reconstruction_metrics"},
    "calibration.py": {"eta_point_from_samples", "fit_fano_line"},
    "moments.py": {"sample_moments"},
    "reconstruction.py": {"subtract_offset", "rebin", "self_consistency_check"},
}
PACKAGE = Path(linphot.pipeline.__file__).resolve().parent


def dark_noise_readers(trees):
    """The (module, top-level definition) of every read of the configured dark noise in ``trees``."""
    return {
        (name, top.name)
        for name, tree in trees.items()
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and (node.attr == "sigma0" or (node.attr == "dark" and ast.unparse(node.value) in ("models", "config")))
    }


def test_the_analysis_is_blind():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert dark_noise_readers(trees) == MODEL_READERS
    functions = {
        (name, node.name): node
        for name, tree in trees.items() for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    for name, analysis in ANALYSIS.items():
        for function in analysis:
            args = functions[name, function].args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                annotation = ast.unparse(arg.annotation) if arg.annotation else ""
                assert arg.arg not in ("models", "config"), (function, arg.arg)
                assert "Models" not in annotation and "RunConfig" not in annotation, (function, arg.arg)


def test_the_guard_sees_the_configured_variance_in_derive():
    # derive as it was: the points reduced with the configured sigma0^2
    source = (PACKAGE / "pipeline.py").read_text()
    edited = source.replace("calibrate(points, dark.central_moment(2))", "calibrate(points, models.dark.sigma0**2)")
    assert edited != source
    assert dark_noise_readers({"pipeline.py": ast.parse(edited)}) - MODEL_READERS == {("pipeline.py", "derive")}


ONE_ANALYSIS_CONFIGS = {
    "poisson": {},
    "gain-scaling": {"gain_scale_factors": [0.5, 2.0]},
    "fock-300": {"source": {"kind": "fock", "n": 300}},
    "pmf-table": {"source": {"kind": "pmf", "pmf": [0.1, 0.2, 0, 0.3, 0.15, 0.05, 0.2]}},
    "thermal-gamma": {"source": {"kind": "thermal", "mean": 50.0}, "gain": {"family": "gamma", "gamma_bar": 100.0, "sigma": 5.0}},
}


@pytest.mark.parametrize("overrides", ONE_ANALYSIS_CONFIGS.values(), ids=ONE_ANALYSIS_CONFIGS)
def test_run_writes_the_blind_analysis_of_its_files(tmp_path, capsys, overrides):
    raw = {
        "schema_version": 1,
        "source": {"kind": "poisson", "mean": 20.0},
        "gain": {"family": "gaussian", "gamma_bar": 100.0, "sigma": 2.0},
        "dark": {"sigma0": 10.0},
        "eta_series": ETAS,
        "n_samples": 10_000,
        "seed": 41,
        **overrides,
    }
    run = tmp_path / "run"
    run_experiment(from_dict(raw), run)
    blind = analysed(run, "reconstruction_eta_0.500000.npy")
    # the fields only the generating model gives are null in the blind record
    doc = json.loads((run / "calibration.json").read_text())
    assert doc["fit"]["gamma_bar_corrected"] is not None and doc["checks"]["mean_constancy"]["passed"]
    assert (doc["checks"]["gain_scaling"] is None) == ("gain_scale_factors" not in overrides)
    doc["config_sha256"] = doc["fit"]["gamma_bar_corrected"] = None
    doc["checks"] = {"mean_constancy": None, "gain_scaling": None}
    assert blind["calibration.json"] == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    sha_line, pm_text = (run / "pm.csv").read_text().split("\n", 1)
    assert sha_line.startswith("# config_sha256=") and blind["pm.csv"] == pm_text
    metrics = json.loads((run / "pm_metrics.json").read_text())
    assert json.loads(blind["pm_metrics.json"]) == {**metrics, "config_sha256": None, "tv_distance": None, "fidelity": None}
    capsys.readouterr()
    assert main(["check", "--out", str(run)]) == 0
    assert "[FAIL]" not in capsys.readouterr().out

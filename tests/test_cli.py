import ast
import builtins
import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

import linphot
from linphot import ConfigError, InvalidParameterError, VoltageEnsemble, run_experiment
from linphot.cli import main
from linphot.config import (
    SOURCE_KINDS,
    RunConfig,
    build_gain,
    build_source,
    config_hash,
    from_dict,
    load,
)
from linphot.files import as_dict, canonical_json, read_ensemble, write_ensemble
from linphot.pipeline import Models, against_model, calibrate, dark_moments, simulate_sweep, sweep_paths, sweep_points
from oracles import fsum_eta_point, write_ensemble_csv

BASE = {
    "schema_version": 1,
    "source": {"kind": "poisson", "mean": 20.0},
    "gain": {"family": "gaussian", "gamma_bar": 100.0, "sigma": 2.0},
    "dark": {"sigma0": 10.0},
    "eta_series": [0.1, 0.3, 0.5],
    "n_samples": 10_000,
    "seed": 99,
}


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """Output directory of one ``run_experiment(BASE)``; copy it before editing."""
    out = tmp_path_factory.mktemp("finished") / "run"
    run_experiment(from_dict(BASE), out)
    return out


def drop_last_line(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def write_config(tmp_path, overrides=None, name="cfg.json"):
    raw = json.loads(json.dumps(BASE))
    for key, value in (overrides or {}).items():
        raw[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


# every value a JSON document can hold, as Python's json module reads it
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
CONFIG_KEYS = list(RunConfig._fields)


class TestConfig:
    def test_round_trip_lossless(self):
        config = from_dict(BASE)
        assert from_dict(config.to_dict()) == config

    def test_hash_stable_under_key_order(self):
        config = from_dict(BASE)
        shuffled = from_dict(dict(reversed(list(BASE.items()))))
        assert config_hash(config) == config_hash(shuffled)

    def test_eta_out_of_range_names_field(self):
        raw = {**BASE, "eta_series": [0.1, 1.5, 0.5]}
        with pytest.raises(ConfigError, match=r"eta_series\[1\]"):
            from_dict(raw)

    def test_missing_gamma_bar_names_field(self):
        raw = {**BASE, "gain": {"family": "gaussian", "sigma": 1.0}}
        with pytest.raises(ConfigError, match="gain.gamma_bar"):
            from_dict(raw)

    def test_unknown_source_kind(self):
        raw = {**BASE, "source": {"kind": "laser"}}
        with pytest.raises(ConfigError, match="source.kind"):
            from_dict(raw)

    def test_default_dark_is_tenth_of_gain(self):
        raw = {k: v for k, v in BASE.items() if k != "dark"}
        assert from_dict(raw).dark.sigma0 == pytest.approx(10.0)

    def test_build_source_kinds(self):
        for kind, extra, mean in [
            ("poisson", {"mean": 4.0}, 4.0),
            ("thermal", {"mean": 4.0}, 4.0),
            ("multimode_thermal", {"mean": 4.0, "modes": 2}, 4.0),
            ("fock", {"n": 4}, 4.0),
            ("pmf", {"pmf": [0.0, 1.0]}, 1.0),
        ]:
            raw = {**BASE, "source": {"kind": kind, **extra}}
            src = build_source(from_dict(raw))
            assert src.mean_n == pytest.approx(mean, rel=1e-9)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_samples", True),
            ("seed", True),
            ("seed", False),
            ("reconstruct_eta", True),
            ("reconstruction_n_samples", True),
            ("source", {"kind": "fock", "n": True}),
            ("source", {"kind": "multimode_thermal", "mean": 4.0, "modes": True}),
            ("source", {"kind": "poisson", "mean": True}),
            ("gain", {"family": "gaussian", "gamma_bar": True, "sigma": 1.0}),
            ("eta_series", [0.1, True, 0.5]),
        ],
    )
    def test_booleans_are_not_numbers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            from_dict({**BASE, field: value})

    @pytest.mark.parametrize(
        "overrides,message",
        [
            # eta in (0, 1]
            ({"eta_series": [0.1, 1.5]}, "eta_series[1]: must be in (0, 1], got 1.5"),
            ({"eta_series": [0]}, "eta_series[0]: must be in (0, 1], got 0"),
            ({"eta_series": [0.5, -0.1]}, "eta_series[1]: must be in (0, 1], got -0.1"),
            ({"eta_series": [True]}, "eta_series[0]: must be in (0, 1], got True"),
            ({"eta_series": ["0.5"]}, "eta_series[0]: must be in (0, 1], got '0.5'"),
            ({"eta_series": [math.nan]}, "eta_series[0]: must be in (0, 1], got nan"),
            ({"eta_series": [10**400]}, f"eta_series[0]: must be in (0, 1], got {10**400!r}"),
            ({"reconstruct_eta": 0.0}, "reconstruct_eta: must be in (0, 1], got 0.0"),
            ({"reconstruct_eta": 1.0000001}, "reconstruct_eta: must be in (0, 1], got 1.0000001"),
            ({"reconstruct_eta": None}, "reconstruct_eta: must be in (0, 1], got None"),
            ({"reconstruct_eta": math.inf}, "reconstruct_eta: must be in (0, 1], got inf"),
            # a JSON integer >= 2
            ({"n_samples": 1}, "n_samples: must be an integer >= 2, got 1"),
            ({"n_samples": 2.0}, "n_samples: must be an integer >= 2, got 2.0"),
            ({"n_samples": None}, "n_samples: must be an integer >= 2, got None"),
            ({"n_samples": [100]}, "n_samples: must be an integer >= 2, got [100]"),
            ({"reconstruction_n_samples": 0}, "reconstruction_n_samples: must be an integer >= 2, got 0"),
            ({"reconstruction_n_samples": False}, "reconstruction_n_samples: must be an integer >= 2, got False"),
            ({"reconstruction_n_samples": "3"}, "reconstruction_n_samples: must be an integer >= 2, got '3'"),
            # a nonnegative finite number
            (
                {"source": {"kind": "poisson", "mean": -1.0}},
                "source.mean: must be a nonnegative finite number, got -1.0",
            ),
            (
                {"source": {"kind": "thermal", "mean": math.inf}},
                "source.mean: must be a nonnegative finite number, got inf",
            ),
            ({"source": {"kind": "thermal", "mean": "1"}}, "source.mean: must be a nonnegative finite number, got '1'"),
            (
                {"source": {"kind": "multimode_thermal", "mean": math.nan, "modes": 0}},
                "source.mean: must be a nonnegative finite number, got nan",
            ),
            ({"source": {"kind": "pmf", "pmf": [1, -1]}}, "source.pmf[1]: must be a nonnegative finite number, got -1"),
            (
                {"source": {"kind": "pmf", "pmf": [None]}},
                "source.pmf[0]: must be a nonnegative finite number, got None",
            ),
            (
                {"source": {"kind": "pmf", "pmf": [0.5, math.inf]}},
                "source.pmf[1]: must be a nonnegative finite number, got inf",
            ),
            # an object whose keys are all known
            ({"source": 5}, "source: must be an object"),
            ({"source": None}, "source: must be an object"),
            ({"source": [["kind", "poisson"]]}, "source: must be an object"),
            ({"source": {"kind": "laser", "x": 1}}, "source.x: unknown key"),
            ({"gain": "gain"}, "gain: must be an object"),
            ({"gain": {**BASE["gain"], "sigma0": 1.0}}, "gain.sigma0: unknown key"),
            ({"dark": []}, "dark: must be an object"),
            ({"dark": None}, "dark: must be an object"),
            ({"dark": {"sigma0": 1.0, "sigma": 1.0}}, "dark.sigma: unknown key"),
        ],
    )
    def test_each_field_rule_gives_its_exact_message(self, overrides, message):
        with pytest.raises(ConfigError) as info:
            from_dict({**BASE, **overrides})
        assert str(info.value) == message

    def test_gain_scaling_needs_the_sweep_design(self, tmp_path):
        with pytest.raises(ConfigError, match="n_samples"):
            from_dict({**BASE, "n_samples": 9_999, "gain_scale_factors": [2.0]})
        with pytest.raises(ConfigError, match="eta_series"):
            from_dict({**BASE, "eta_series": [0.1, 0.5, 0.5], "gain_scale_factors": [2.0]})
        # without the check the same sample count is a valid run
        from_dict({**BASE, "n_samples": 9_999})

    @pytest.mark.parametrize("family", ["empirical", "lognormal"])
    def test_unknown_gain_family_names_field(self, family):
        with pytest.raises(ConfigError, match="gain.family"):
            from_dict({**BASE, "gain": {**BASE["gain"], "family": family}})

    @pytest.mark.parametrize("family", ["empirical", "lognormal"])
    def test_unknown_gain_family_exits_2(self, tmp_path, capsys, family):
        cfg = write_config(tmp_path, {"gain": {**BASE["gain"], "family": family}})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "gain.family" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides,name",
        [
            ({"gain_scale_factor": [2.0]}, "gain_scale_factor"),
            ({"source": {"kind": "poisson", "mean": 20.0, "meen": 5.0}}, "source.meen"),
            ({"gain": {**BASE["gain"], "sigma0": 10.0}}, "gain.sigma0"),
            ({"dark": {"sigma": 10.0}}, "dark.sigma"),
            ({"eta_max": 0.5}, "eta_max"),
            ({"eta_count": 4}, "eta_count"),
            ({"moment_order": 5}, "moment_order"),
        ],
    )
    def test_unknown_key_names_it_and_writes_nothing(self, tmp_path, capsys, overrides, name):
        with pytest.raises(ConfigError, match=f"{name}: unknown key"):
            from_dict({**BASE, **overrides})
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{name}: unknown key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "pmf,name",
        [
            (5, "source.pmf"),
            (["a", 1], r"source.pmf\[0\]"),
            ([True, 1], r"source.pmf\[0\]"),
            ([1, -1, 2], r"source.pmf\[1\]"),
            ([1, 10**400], r"source.pmf\[1\]"),
            ([0, 0.0], "source.pmf"),
            ([], "source.pmf"),
            ([1e308, 1e308], "source.pmf"),
        ],
    )
    def test_bad_pmf_names_the_entry_and_writes_nothing(self, tmp_path, capsys, pmf, name):
        source = {"kind": "pmf", "pmf": pmf}
        with pytest.raises(ConfigError, match=name):
            from_dict({**BASE, "source": source})
        cfg = write_config(tmp_path, {"source": source})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert re.search(name, capsys.readouterr().err)
        assert not out.exists()

    @settings(max_examples=300, deadline=None)
    @given(
        top=st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES, max_size=2),
        source=st.fixed_dictionaries(
            {"kind": st.sampled_from(SOURCE_KINDS)},
            optional={
                "mean": JSON_VALUES,
                "modes": JSON_VALUES,
                "n": JSON_VALUES,
                "pmf": st.lists(JSON_SCALARS, max_size=4) | JSON_VALUES,
            },
        ),
        gain=st.dictionaries(st.sampled_from(["gamma_bar", "sigma", "family"]), JSON_VALUES),
        dark=st.dictionaries(st.just("sigma0"), JSON_VALUES),
    )
    def test_any_json_document_parses_or_is_a_config_error(self, top, source, gain, dark):
        raw = {**BASE, "source": source, "gain": {**BASE["gain"], **gain}, "dark": dark, **top}
        try:
            from_dict(raw)
        except ConfigError:
            pass

    def test_design_error_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n_samples": 2000, "gain_scale_factors": [2.0]})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "n_samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides,name",
        [
            # overflowed in make_gain
            ({"gain": {"family": "gaussian", "gamma_bar": 1e300, "sigma": 1e299}}, "gain.gamma_bar"),
            # gamma_bar**2 underflowed to 0 and calibrate divided by it
            (
                {"gain": {"family": "gaussian", "gamma_bar": 1e-300, "sigma": 0}, "dark": {"sigma0": 1e-301}},
                "gain.gamma_bar",
            ),
            # the gamma shape (gamma_bar/sigma)^2 was inf: run wrote config.json,
            # then failed on the non-finite dark record
            ({"gain": {"family": "gamma", "gamma_bar": 1.0, "sigma": 1e-160}}, "gain.sigma"),
        ],
        ids=["huge", "tiny", "narrow-gamma"],
    )
    def test_absurd_gain_scale_names_the_field_and_writes_nothing(self, tmp_path, capsys, overrides, name):
        with pytest.raises(ConfigError, match=name):
            from_dict({**BASE, **overrides})
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "gain",
        [
            {"family": "gamma", "gamma_bar": 1.0, "sigma": 1e-150},
            {"family": "gamma", "gamma_bar": 1e30, "sigma": 1e-120},
            {"family": "gamma", "gamma_bar": 1e-30, "sigma": 1e-180},  # sigma^2 underflows: a point mass
            {"family": "gamma", "gamma_bar": 1.0, "sigma": 0.0},
            {"family": "gaussian", "gamma_bar": 1.0, "sigma": 1e-160},
        ],
    )
    def test_the_narrowest_gains_accepted_draw_finite_sums(self, gain):
        model = build_gain(from_dict({**BASE, "gain": gain}))
        assert all(math.isfinite(k) for k in model.cumulants)
        sums = model.sample_sums(np.random.default_rng(1), np.array([0, 1, 5, 2**24, 10**8]))
        assert np.all(np.isfinite(sums))

    @pytest.mark.parametrize("field", ["n_samples", "reconstruction_n_samples"])
    def test_a_one_shot_ensemble_names_the_field_and_writes_nothing(self, tmp_path, capsys, field):
        # run wrote config.json and dark.npy, then failed at the first sweep
        # point, or wrote a NaN tolerance and no report.md
        with pytest.raises(ConfigError, match=f"{field}: must be an integer >= 2, got 1"):
            from_dict({**BASE, field: 1})
        cfg = write_config(tmp_path, {field: 1})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{field}: must be an integer >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_two_shot_ensembles_run_and_check(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n_samples": 2, "reconstruction_n_samples": 2})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "report.md").exists()
        capsys.readouterr()  # two shots per point may fail run's statistical verdicts
        assert main(["check", "--out", str(out)]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "gain,dark,name",
        [
            ({"gamma_bar": 1e-30, "sigma": 1e30}, {"sigma0": 1e30}, None),
            ({"gamma_bar": 1e30, "sigma": 0}, {"sigma0": 0}, None),
            ({"gamma_bar": 1e-31}, {}, "gain.gamma_bar"),
            ({"gamma_bar": 1e31}, {}, "gain.gamma_bar"),
            ({"gamma_bar": 1.0, "sigma": 1e31}, {}, "gain.sigma"),
            ({"gamma_bar": 1.0}, {"sigma0": 1e31}, "dark.sigma0"),
        ],
    )
    def test_voltage_scale_range(self, gain, dark, name):
        raw = {**BASE, "gain": gain, "dark": dark}
        if name is None:
            from_dict(raw)
        else:
            with pytest.raises(ConfigError, match=name):
                from_dict(raw)


class TestEnsembleCsv:
    def test_header_only_file_exits_2_without_a_warning(self, tmp_path, capsys):
        # numpy's loadtxt warns of an empty input; the reader names the file instead
        path = tmp_path / "ens.csv"
        path.write_text("# eta=0.5\n# seed=1\n# n_samples=0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["moments", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: ensemble file has no samples: {path}\n"

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(60)
        ens = VoltageEnsemble(
            samples=rng.normal(1000.0, 300.0, 500),
            eta=0.35,
            n_samples=500,
            seed=7,
        )
        path = tmp_path / "ens.csv"
        write_ensemble_csv(path, ens, config_sha256="abc")
        back = read_ensemble(path)
        assert np.array_equal(back.samples, ens.samples)  # %.17e round-trips
        assert back.eta == ens.eta
        assert back.seed == ens.seed
        header = path.read_text().splitlines()[0]
        assert header == "# eta=0.35"

    # -0.0, the smallest subnormal, the largest subnormal and +-max double
    EDGE_VALUES = np.array(
        [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308]
    )

    @settings(max_examples=40, deadline=None)
    @given(
        samples=hnp.arrays(
            np.float64,
            st.integers(1, 5000),
            elements=st.one_of(
                st.sampled_from(EDGE_VALUES.tolist()),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
        )
    )
    @example(samples=np.resize(EDGE_VALUES, 1))
    @example(samples=np.resize(EDGE_VALUES, 4097))
    def test_both_formats_read_back_bit_for_bit(self, tmp_path_factory, samples):
        directory = tmp_path_factory.mktemp("ens")
        ens = VoltageEnsemble(samples=samples, eta=0.5, n_samples=samples.size, seed=1)
        write_ensemble(directory / "ens.npy", ens, None)
        write_ensemble_csv(directory / "ens.csv", ens)
        for name in ("ens.npy", "ens.csv"):
            back = read_ensemble(directory / name)
            assert back.samples.tobytes() == samples.tobytes(), name  # bit for bit, signed zeros too
            assert (back.eta, back.n_samples, back.seed) == (0.5, samples.size, 1)

    # bytes cut from the end: the newline, inside the exponent, inside the
    # mantissa, and the whole last line "9.00000000000000000e+00\n"
    @pytest.mark.parametrize("cut", [1, 3, 10, 24])
    def test_truncated_file_rejected(self, tmp_path, cut):
        path = tmp_path / "ens.csv"
        write_ensemble_csv(path, VoltageEnsemble(samples=np.arange(10.0), eta=0.5, n_samples=10, seed=1))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(InvalidParameterError, match="truncated|malformed"):
            read_ensemble(path)

    def test_check_rejects_truncated_dark_record(self, finished_run, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(finished_run, out)
        path = out / "dark.npy"
        path.write_bytes(path.read_bytes()[:-8])
        assert main(["check", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ensemble file is truncated: header shape (10000,) needs 80128 bytes, the file has 80120" in err
        assert str(path) in err

    def test_blind_calibrate_rejects_truncated_ensemble(self, finished_run, tmp_path, capsys):
        ens_dir = tmp_path / "ens"
        ens_dir.mkdir()
        for path in [*finished_run.glob("dark.*"), *finished_run.glob("ensemble_*")]:
            shutil.copy(path, ens_dir)
        path = sorted(ens_dir.glob("ensemble_*.npy"))[-1]
        path.write_bytes(path.read_bytes()[:-8])
        code = main(["calibrate", "--ensembles", str(ens_dir), "--out", str(tmp_path / "c")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ensemble file is truncated: header shape (10000,) needs 80128 bytes, the file has 80120" in err
        assert str(path) in err
        assert not (tmp_path / "c").exists()

    def test_non_finite_samples_rejected(self, tmp_path):
        path = tmp_path / "ens.csv"
        path.write_text("# eta=0.5\n1.0\nnan\n3.0\ninf\n")
        with pytest.raises(InvalidParameterError, match=f"2 of 4 samples are not finite: {path}"):
            read_ensemble(path)

    def test_missing_eta_header_rejected(self, tmp_path):
        path = tmp_path / "ens.csv"
        path.write_text("# seed=1\n1.0\n2.0\n")
        with pytest.raises(InvalidParameterError, match="eta"):
            read_ensemble(path)

    def test_legacy_gain_scale_header_is_ignored(self, tmp_path):
        path = tmp_path / "ens.csv"
        write_ensemble_csv(path, VoltageEnsemble(samples=np.arange(10.0), eta=0.5, n_samples=10, seed=1))
        legacy = tmp_path / "legacy.csv"
        legacy.write_text(path.read_text().replace("# n_samples=", "# gain_scale=2.0\n# n_samples="))
        assert "# gain_scale=2.0\n" in legacy.read_text()
        back = read_ensemble(legacy)
        assert back.samples.tobytes() == read_ensemble(path).samples.tobytes()
        assert (back.eta, back.seed, back.n_samples) == (0.5, 1, 10)

    def test_blind_calibrate_reports_missing_eta(self, tmp_path, capsys):
        for name in ("dark.csv", "ensemble_00.csv"):
            (tmp_path / name).write_text("# seed=1\n1.0\n2.0\n")
        code = main(["calibrate", "--ensembles", str(tmp_path), "--out", str(tmp_path / "c")])
        assert code == 2
        assert "eta" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()


def small_npy(directory, samples=None):
    """An ensemble .npy of 10 samples and its sidecar in ``directory``; returns both paths."""
    samples = np.arange(10.0) if samples is None else samples
    path = directory / "ens.npy"
    ens = VoltageEnsemble(samples=samples, eta=0.5, n_samples=samples.size, seed=1)
    return path, write_ensemble(path, ens, "abc")


def save_array(array, **kwargs):
    def edit(npy, sidecar):
        with open(npy, "wb") as fh:
            np.save(fh, array, **kwargs)

    return edit


def edit_sidecar(fn):
    def edit(npy, sidecar):
        sidecar.write_text(json.dumps(fn(json.loads(sidecar.read_text()))))

    return edit


class TestEnsembleNpy:
    def test_round_trip_exact_with_sidecar(self, tmp_path):
        samples = np.random.default_rng(61).normal(1000.0, 300.0, 500)
        path = tmp_path / "ens.npy"
        sidecar = write_ensemble(path, VoltageEnsemble(samples=samples, eta=0.35, n_samples=500, seed=7), "abc")
        assert sidecar == tmp_path / "ens.json"
        assert json.loads(sidecar.read_text()) == {"config_sha256": "abc", "eta": 0.35, "n_samples": 500, "seed": 7}
        assert np.load(path, allow_pickle=False).tobytes() == samples.tobytes()
        back = read_ensemble(path)
        assert back.samples.tobytes() == samples.tobytes()
        assert (back.eta, back.n_samples, back.seed) == (0.35, 500, 7)

    # each edit breaks the .npy ("npy") or its sidecar ("json"); the error names that file
    @pytest.mark.parametrize(
        "edit, named, message",
        [
            (lambda npy, sidecar: npy.write_bytes(b""), "npy", "not a version 1.0 .npy"),
            (lambda npy, sidecar: npy.write_bytes(npy.read_bytes() + bytes(8)), "npy", "longer than its array"),
            (lambda npy, sidecar: npy.write_bytes(npy.read_bytes()[:-3]), "npy", "truncated"),
            (lambda npy, sidecar: npy.write_bytes(npy.read_bytes()[:130]), "npy", "truncated"),
            (lambda npy, sidecar: npy.write_bytes(npy.read_bytes()[:40]), "npy", "malformed .npy header"),
            (save_array(np.arange(10.0, dtype="<f4")), "npy", "holds a <f4 array of shape (10,)"),
            (save_array(np.arange(10.0, dtype=">f8")), "npy", "holds a >f8 array"),
            (save_array(np.arange(10)), "npy", "holds a <i8 array"),
            (save_array(np.arange(10.0).reshape(2, 5)), "npy", "of shape (2, 5), not 1-d <f8"),
            (save_array(np.array([1.0, None], dtype=object), allow_pickle=True), "npy", "holds a |O array"),
            (lambda npy, sidecar: sidecar.unlink(), "json", "sidecar not found"),
            (lambda npy, sidecar: sidecar.write_text("{"), "json", "invalid JSON"),
            (lambda npy, sidecar: sidecar.write_bytes(b"\xff\xfe\x00"), "json", "invalid JSON"),
            (edit_sidecar(lambda doc: []), "json", "not a JSON object with an eta"),
            (edit_sidecar(lambda doc: {k: v for k, v in doc.items() if k != "eta"}), "json", "with an eta"),
            (edit_sidecar(lambda doc: {**doc, "n_samples": 9}), "json", "n_samples=9, the array holds 10"),
            (edit_sidecar(lambda doc: {**doc, "eta": [0.5]}), "json", "eta or seed is not a number"),
            (edit_sidecar(lambda doc: {**doc, "seed": "one"}), "json", "eta or seed is not a number"),
        ],
        ids=[
            "zero-byte", "trailing-bytes", "truncated-array", "truncated-data", "truncated-header",
            "float32", "big-endian", "int64", "2-d", "object",
            "no-sidecar", "sidecar-not-json", "sidecar-not-utf8", "sidecar-not-object", "sidecar-without-eta",
            "sidecar-n-samples", "sidecar-eta-list", "sidecar-seed-text",
        ],
    )
    def test_malformed_file_is_named(self, tmp_path, edit, named, message):
        npy, sidecar = small_npy(tmp_path)
        edit(npy, sidecar)
        with pytest.raises(InvalidParameterError) as exc:
            read_ensemble(npy)
        assert message in str(exc.value)
        assert str(npy if named == "npy" else sidecar) in str(exc.value)

    def test_an_empty_array_has_no_samples(self, tmp_path):
        npy, sidecar = small_npy(tmp_path)
        save_array(np.zeros(0))(npy, sidecar)
        edit_sidecar(lambda doc: {**doc, "n_samples": 0})(npy, sidecar)
        with pytest.raises(InvalidParameterError, match="no samples"):
            read_ensemble(npy)

    def test_other_suffix_is_refused(self, tmp_path):
        path = tmp_path / "ens.txt"
        path.write_text("# eta=0.5\n1.0\n")
        with pytest.raises(InvalidParameterError, match="neither .npy nor .csv"):
            read_ensemble(path)

    def test_zero_byte_npy_exits_2_naming_it(self, tmp_path, capsys):
        npy, _ = small_npy(tmp_path)
        npy.write_bytes(b"")
        assert main(["moments", "--input", str(npy)]) == 2
        assert f"not a version 1.0 .npy array: {npy}" in capsys.readouterr().err


def valid_bytes(directory):
    """The bytes of a valid .npy, its sidecar and a CSV of the same 5-sample ensemble, by suffix."""
    ens = VoltageEnsemble(samples=np.array([-1.5, 0.0, 2.25, 1e300, -0.0]), eta=0.25, n_samples=5, seed=3)
    write_ensemble(directory / "ens.npy", ens, "abc")
    write_ensemble_csv(directory / "ens.csv", ens)
    return {suffix: (directory / f"ens{suffix}").read_bytes() for suffix in (".npy", ".json", ".csv")}


@st.composite
def damaged(draw, valid):
    """Arbitrary bytes, or ``valid`` cut short, with one byte changed or with bytes appended."""
    how = draw(st.sampled_from(["arbitrary", "cut", "flip", "append"]))
    if how == "arbitrary":
        return draw(st.binary(max_size=300))
    if how == "cut":
        return valid[: draw(st.integers(0, len(valid) - 1))]
    if how == "flip":
        i = draw(st.integers(0, len(valid) - 1))
        return valid[:i] + bytes([draw(st.integers(0, 255))]) + valid[i + 1 :]
    return valid + draw(st.binary(min_size=1, max_size=40))


class TestEnsembleReaderFuzz:
    """Whatever bytes an ensemble file holds, the reader returns an ensemble or names the file."""

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        return valid_bytes(tmp_path_factory.mktemp("valid"))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), target=st.sampled_from([".npy", ".json", ".csv"]))
    def test_any_bytes_read_or_raise_invalid_parameter(self, tmp_path_factory, valid, data, target):
        directory = tmp_path_factory.mktemp("fuzz")
        for suffix, content in valid.items():
            (directory / f"ens{suffix}").write_bytes(content)
        broken = directory / f"ens{target}"
        if target == ".json" and data.draw(st.booleans()):
            keys = st.sampled_from(["eta", "seed", "n_samples"])
            broken.write_text(json.dumps(data.draw(JSON_VALUES | st.dictionaries(keys, JSON_VALUES))))
        else:
            broken.write_bytes(data.draw(damaged(valid[target])))
        try:
            ens = read_ensemble(directory / ("ens.csv" if target == ".csv" else "ens.npy"))
        except (InvalidParameterError, FileNotFoundError) as exc:
            assert str(broken) in str(exc)
        else:
            assert ens.samples.ndim == 1 and ens.samples.size == ens.n_samples


class TestPmCsv:
    def test_reads_back_the_run_result(self, finished_run):
        rows = (finished_run / "pm.csv").read_text().splitlines()
        table = np.array([row.split(",") for row in rows[rows.index("m,pmf_hat,count") + 1 :]], dtype=float)
        pmf_hat, counts = table[:, 1], table[:, 2]
        metrics = json.loads((finished_run / "pm_metrics.json").read_text())
        assert np.array_equal(table[:, 0], np.arange(len(table)))
        assert counts.sum() == BASE["n_samples"]
        assert np.array_equal(pmf_hat, counts / counts.sum())
        assert counts @ np.arange(counts.size) / counts.sum() == metrics["mean_m_hat"]

    def test_check_rejects_a_cut_pm_table(self, finished_run, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(finished_run, out)
        lines = (out / "pm.csv").read_text().splitlines(keepends=True)
        (out / "pm.csv").write_text("".join(lines[:-1]) + lines[-1][:6])
        assert main(["check", "--out", str(out)]) == 1
        printed = capsys.readouterr().out
        assert printed.count("[FAIL]") == 1
        assert "[FAIL] pm.csv replayed byte for byte" in printed


class TestCheckCalibrationFile:
    def test_invalid_json_exits_2_naming_the_file(self, finished_run, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(finished_run, out)
        (out / "calibration.json").write_text("{")
        assert main(["check", "--out", str(out)]) == 2
        assert f"invalid JSON in {out / 'calibration.json'}" in capsys.readouterr().err

    def test_point_without_mean_v_is_one_failure(self, finished_run, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(finished_run, out)
        doc = json.loads((out / "calibration.json").read_text())
        del doc["fit"]["points"][1]["mean_v"]
        (out / "calibration.json").write_text(json.dumps(doc))
        assert main(["check", "--out", str(out)]) == 1
        printed = capsys.readouterr().out
        assert printed.count("[FAIL]") == 1
        assert "[FAIL] calibration.json replayed byte for byte" in printed


def edit_json(name, fn):
    """An edit of a run directory that applies ``fn`` to the document ``name`` and writes it back as run would."""

    def edit(out):
        doc = json.loads((out / name).read_text())
        fn(doc)
        (out / name).write_text(canonical_json(doc))

    return edit


def edit_line(name, prefix, fn):
    """An edit that replaces the first line of ``name`` starting with ``prefix`` by ``fn(line)``."""

    def edit(out):
        lines = (out / name).read_text().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        lines[i] = fn(lines[i])
        (out / name).write_text("".join(lines))

    return edit


def next_digit(line):
    """``line`` with its first digit counted up by one (9 becomes 0)."""
    i = next(i for i, char in enumerate(line) if char.isdigit())
    return line[:i] + str((int(line[i]) + 1) % 10) + line[i + 1 :]


def flip_hash(doc):
    sha = doc["config_sha256"]
    doc["config_sha256"] = ("1" if sha[0] == "0" else "0") + sha[1:]


class TestCheckVerifiesTheRun:
    """``check`` replays the run's stages and requires each derived artifact byte for byte."""

    RECONSTRUCTION = "reconstruction_eta_0.500000.npy"

    def check(self, finished_run, tmp_path, capsys, edit):
        out = tmp_path / "run"
        shutil.copytree(finished_run, out)
        edit(out)
        code = main(["check", "--out", str(out)])
        captured = capsys.readouterr()
        return out, code, captured.out, captured.err

    def test_an_untouched_run_passes(self, finished_run, tmp_path, capsys):
        _, code, printed, _ = self.check(finished_run, tmp_path, capsys, lambda out: None)
        assert code == 0
        assert "[FAIL]" not in printed
        for name in ("calibration.json", "pm.csv", "pm_metrics.json", "report.md"):
            assert f"[PASS] {name} replayed byte for byte" in printed
        assert "[PASS] config_sha256 of config.json in every ensemble sidecar" in printed

    # each edit of one derived artifact is exactly one FAIL naming it
    CALIBRATION_EDITS = {
        "chi2_dof": lambda doc: doc["fit"].update(chi2_dof=1.0),
        "slope_se": lambda doc: doc["fit"].update(slope_se=1e-3),
        "se_fano_v": lambda doc: doc["fit"]["points"][1].update(se_fano_v=0.5),
        "gamma_bar_corrected": lambda doc: doc["fit"].update(gamma_bar_corrected=100.0),
        "dark_variance_subtracted": lambda doc: doc.update(dark_variance_subtracted=99.0),
        "mean_constancy.passed": lambda doc: doc["checks"]["mean_constancy"].update(passed=False),
        "calibration-hash": flip_hash,
    }
    OTHER_EDITS = {
        "report-digit": ("report.md", edit_line("report.md", "- slope = ", next_digit)),
        "pm-count": ("pm.csv", edit_line("pm.csv", "1,", lambda line: line.rstrip("\n") + "1\n")),
        "pm-cut-last-row": ("pm.csv", lambda out: drop_last_line(out / "pm.csv")),
    }

    @pytest.mark.parametrize(
        "name, edit",
        [("calibration.json", edit_json("calibration.json", fn)) for fn in CALIBRATION_EDITS.values()]
        + list(OTHER_EDITS.values()),
        ids=[*CALIBRATION_EDITS, *OTHER_EDITS],
    )
    def test_one_edit_is_one_failure(self, finished_run, tmp_path, capsys, name, edit):
        _, code, printed, _ = self.check(finished_run, tmp_path, capsys, edit)
        assert code == 1
        assert printed.count("[FAIL]") == 1
        assert f"[FAIL] {name} replayed byte for byte" in printed

    def test_a_garbage_reconstruction_ensemble_exits_2_naming_it(self, finished_run, tmp_path, capsys):
        def edit(out):
            (out / self.RECONSTRUCTION).write_text("garbage")

        out, code, _, err = self.check(finished_run, tmp_path, capsys, edit)
        assert code == 2
        assert f"not a version 1.0 .npy array: {out / self.RECONSTRUCTION}" in err

    def test_a_substituted_reconstruction_ensemble_fails(self, finished_run, tmp_path, capsys):
        # a valid ensemble, with its sidecar and hash, whose first shot sits one
        # bin higher: every artifact rebinned from it differs
        def edit(out):
            ens = read_ensemble(out / self.RECONSTRUCTION)
            samples = ens.samples.copy()
            samples[0] += BASE["gain"]["gamma_bar"]
            sha = config_hash(load(out / "config.json"))
            write_ensemble(out / self.RECONSTRUCTION, replace(ens, samples=samples), sha)

        _, code, printed, _ = self.check(finished_run, tmp_path, capsys, edit)
        assert code == 1
        assert sorted(line for line in printed.splitlines() if line.startswith("[FAIL]")) == [
            f"[FAIL] {name} replayed byte for byte" for name in ("pm.csv", "pm_metrics.json", "report.md")
        ]

    @pytest.mark.parametrize(
        "name", ["ensemble_00_eta_0.100000.json", "reconstruction_eta_0.500000.json", "pm_metrics.json"]
    )
    def test_an_edited_config_hash_fails(self, finished_run, tmp_path, capsys, name):
        _, code, printed, _ = self.check(finished_run, tmp_path, capsys, edit_json(name, flip_hash))
        assert code == 1
        assert printed.count("[FAIL]") == 1
        if name == "pm_metrics.json":  # a derived artifact
            assert "[FAIL] pm_metrics.json replayed byte for byte" in printed
        else:
            assert f"[FAIL] config_sha256 of config.json in every ensemble sidecar (not in {name})" in printed

    def test_edited_metrics_fail(self, finished_run, tmp_path, capsys):
        def fn(doc):
            doc.update(mean_m_hat=1234.5, tv_distance=0.0)
            doc["self_consistency"]["passed"] = True

        _, code, printed, _ = self.check(finished_run, tmp_path, capsys, edit_json("pm_metrics.json", fn))
        assert code == 1
        assert printed.count("[FAIL]") == 1
        assert "[FAIL] pm_metrics.json replayed byte for byte" in printed

    def test_a_missing_metrics_file_fails(self, finished_run, tmp_path, capsys):
        _, code, printed, _ = self.check(
            finished_run, tmp_path, capsys, lambda out: (out / "pm_metrics.json").unlink()
        )
        assert code == 1
        assert printed.count("[FAIL]") == 1
        assert "[FAIL] pm_metrics.json replayed byte for byte" in printed

    def test_an_edited_gamma_bar_header_fails(self, finished_run, tmp_path, capsys):
        def edit(out):
            path = out / "pm.csv"
            scaled = re.sub(r"# gamma_bar=(.*)", lambda m: f"# gamma_bar={float(m[1]) * 1.001!r}", path.read_text())
            path.write_text(scaled)

        _, code, printed, _ = self.check(finished_run, tmp_path, capsys, edit)
        assert code == 1
        assert printed.count("[FAIL]") == 1
        assert "[FAIL] pm.csv replayed byte for byte" in printed

    def test_an_edited_pmf_hat_fails(self, finished_run, tmp_path, capsys):
        # one pmf_hat moved by 1e-12: the table no longer holds count / n_samples
        def move(line):
            m, p, c = line.rstrip("\n").split(",")
            return f"{m},{float(p) + 1e-12:.17e},{c}\n"

        _, code, printed, _ = self.check(finished_run, tmp_path, capsys, edit_line("pm.csv", "1,", move))
        assert code == 1
        assert printed.count("[FAIL]") == 1
        assert "[FAIL] pm.csv replayed byte for byte" in printed

    def test_a_pm_table_without_gamma_bar_fails(self, finished_run, tmp_path, capsys):
        def edit(out):
            path = out / "pm.csv"
            path.write_text(re.sub(r"# gamma_bar=.*\n", "", path.read_text()))

        _, code, printed, _ = self.check(finished_run, tmp_path, capsys, edit)
        assert code == 1
        assert printed.count("[FAIL]") == 1
        assert "[FAIL] pm.csv replayed byte for byte" in printed

    def test_an_edited_pm_table_hash_fails(self, finished_run, tmp_path, capsys):
        def edit(out):
            path = out / "pm.csv"
            path.write_text(path.read_text().replace("# config_sha256=", "# config_sha256=f", 1))

        _, code, printed, _ = self.check(finished_run, tmp_path, capsys, edit)
        assert code == 1
        assert printed.count("[FAIL]") == 1
        assert "[FAIL] pm.csv replayed byte for byte" in printed


class TestReconstructFromCalibration:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: [],
            lambda doc: {**doc, "fit": {**doc["fit"], "intercept": "x"}},
        ],
        ids=["not-an-object", "intercept-not-a-number"],
    )
    def test_malformed_file_exits_2_naming_it(self, finished_run, tmp_path, capsys, edit):
        cal = tmp_path / "calibration.json"
        cal.write_text(json.dumps(edit(json.loads((finished_run / "calibration.json").read_text()))))
        (ensemble,) = finished_run.glob("reconstruction_eta_*.npy")
        args = ["reconstruct", "--input", str(ensemble), "--from-calibration", str(cal)]
        assert main(args + ["--out", str(tmp_path / "rec")]) == 2
        assert f"calibration file is malformed: {cal}" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()

    def test_file_with_the_removed_fit_keys_still_reads(self, finished_run, tmp_path):
        doc = json.loads((finished_run / "calibration.json").read_text())
        doc["fit"].update(gamma_bar_est=doc["fit"]["intercept"], r_squared=0.5)
        cal = tmp_path / "calibration.json"
        cal.write_text(json.dumps(doc))
        (ensemble,) = finished_run.glob("reconstruction_eta_*.npy")
        args = ["reconstruct", "--input", str(ensemble), "--from-calibration", str(cal)]
        assert main(args + ["--out", str(tmp_path / "rec")]) == 0
        metrics = json.loads((tmp_path / "rec" / "pm_metrics.json").read_text())
        assert metrics["gamma_bar_used"] == doc["fit"]["intercept"]


class TestRunExperiment:
    def test_vacuum_config(self, tmp_path):
        raw = {
            **BASE,
            "source": {"kind": "poisson", "mean": 0.0},
            "n_samples": 10_000,
        }
        result = run_experiment(from_dict(raw), tmp_path / "out")
        # no light: calibration cannot fix the gain; rebinning falls back to
        # the configured value and everything lands in the zero bin
        assert result.reconstruction.pmf_hat[0] == 1.0
        report = (tmp_path / "out" / "report.md").read_text()
        assert "report" in report or len(report) > 0

    def test_byte_identical_reruns(self, tmp_path):
        config = from_dict(BASE)
        a = run_experiment(config, tmp_path / "a")
        b = run_experiment(config, tmp_path / "b")
        for name, path in a.files.items():
            assert path.read_bytes() == b.files[name].read_bytes(), name

    def test_artifacts_carry_config_hash(self, tmp_path):
        config = from_dict(BASE)
        result = run_experiment(config, tmp_path / "out")
        sha = config_hash(config)
        assert json.loads(result.files["dark_sidecar"].read_text())["config_sha256"] == sha
        assert sha in result.files["pm"].read_text()[:300]
        assert json.loads(result.files["calibration"].read_text())["config_sha256"] == sha
        assert sha in result.files["report"].read_text()


class TestCliCommands:
    def test_run_and_check(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["check", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "[PASS]" in captured and "[FAIL]" not in captured

    def test_bright_light_run_reports_the_exact_tv(self, tmp_path):
        # Poisson <n> = 1e4: the detected truth used to be all zeros above
        # ~1074 counts, so pm_metrics reported TV 0.5 whatever pm.csv held
        cfg = write_config(
            tmp_path,
            {
                "source": {"kind": "poisson", "mean": 1e4},
                "gain": {"family": "gaussian", "gamma_bar": 100.0, "sigma": 0.0},
                "n_samples": 2000,
            },
        )
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [r for r in (out / "pm.csv").read_text().splitlines() if not r.startswith("#")]
        pm = np.array([float(r.split(",")[1]) for r in rows[1:]])
        oracle = stats.poisson(0.5 * 1e4)
        m = np.arange(pm.size)
        tv = 0.5 * (np.abs(pm - oracle.pmf(m)).sum() + oracle.sf(m[-1]))
        reported = json.loads((out / "pm_metrics.json").read_text())["tv_distance"]
        assert reported == pytest.approx(tv, abs=1e-9)

    def test_moments_hand_case(self, tmp_path, capsys):
        ens = VoltageEnsemble(
            samples=np.array([0.0, 0.0, 300.0]), eta=0.5, n_samples=3, seed=1
        )
        write_ensemble_csv(tmp_path / "three.csv", ens)
        write_ensemble(tmp_path / "three.npy", ens, None)
        for name in ("three.csv", "three.npy"):
            assert main(["moments", "--input", str(tmp_path / name), "--order", "2"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["mean"] == pytest.approx(100.0)
            assert doc["central"]["mu2"] == pytest.approx(20000.0)

    def test_simulate_then_blind_calibrate_then_reconstruct(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n_samples": 20_000})
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
        assert (sim / "dark.npy").exists() and (sim / "dark.json").exists()
        assert main(["calibrate", "--ensembles", str(sim), "--out", str(sim)]) == 0
        doc = json.loads((sim / "calibration.json").read_text())
        assert doc["fit"]["valid"]
        assert doc["fit"]["intercept"] == pytest.approx(100.0, abs=12.0)
        rec = tmp_path / "rec"
        assert (
            main(
                [
                    "reconstruct",
                    "--input", str(sim / "ensemble_02_eta_0.500000.npy"),
                    "--from-calibration", str(sim / "calibration.json"),
                    "--dark", str(sim / "dark.npy"),
                    "--out", str(rec),
                ]
            )
            == 0
        )
        rows = [
            line.split(",")
            for line in (rec / "pm.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("m,")
        ]
        pmf = np.array([float(r[1]) for r in rows])
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_reconstruct_with_explicit_gamma(self, tmp_path):
        path = tmp_path / "ens.csv"
        write_ensemble_csv(
            path,
            VoltageEnsemble(
                samples=np.array([0.0, 100.0, 100.0, 200.0]), eta=1.0, n_samples=4, seed=1
            ),
        )
        out = tmp_path / "rec"
        assert main(
            ["reconstruct", "--input", str(path), "--gamma-bar", "100", "--out", str(out)]
        ) == 0
        metrics = json.loads((out / "pm_metrics.json").read_text())
        assert metrics["mean_m_hat"] == pytest.approx(1.0)
        assert metrics["gamma_bar_source"] == "--gamma-bar"
        assert metrics["config_sha256"] is None

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 2  # config loader reports the missing path as a config error
        assert "nope.json" in capsys.readouterr().err

    def test_invalid_eta_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"eta_series": [0.1, 1.5, 0.5]}, name="bad.json")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "eta_series[1]" in capsys.readouterr().err

    def test_missing_ensemble_exits_1(self, tmp_path, capsys):
        code = main(
            ["moments", "--input", str(tmp_path / "missing.csv")]
        )
        assert code == 1
        assert "missing.csv" in capsys.readouterr().err

    def test_blind_calibrate_without_dark_record_exits_1(self, tmp_path, capsys):
        code = main(["calibrate", "--ensembles", str(tmp_path / "none"), "--out", str(tmp_path)])
        assert code == 1
        assert "dark.csv" in capsys.readouterr().err

    def test_calibrate_requires_exactly_one_mode(self, tmp_path):
        # --ensembles is the one mode; the simulation mode and its seed are unknown arguments
        cfg = str(write_config(tmp_path))
        for args in ([], ["--config", cfg], ["--ensembles", str(tmp_path), "--config", cfg], ["--seed", "7"]):
            with pytest.raises(SystemExit) as exc:
                main(["calibrate", "--out", str(tmp_path / "c"), *args])
            assert exc.value.code == 2, args
        assert not (tmp_path / "c").exists()

    def test_calibrate_without_out_is_a_usage_error_naming_it(self, tmp_path, capsys):
        # calibrate reads no config, so no out_dir can stand in for --out
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--ensembles", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "the following arguments are required: --out" in err and "config error" not in err

    def test_out_dir_from_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, {"out_dir": "cfg_out"})
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "cfg_out" / "report.md").exists()

    def test_missing_out_everywhere_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "out_dir" in capsys.readouterr().err


KIND_SOURCES = {
    "poisson": {"kind": "poisson", "mean": 20.0},
    "thermal": {"kind": "thermal", "mean": 20.0},
    "multimode_thermal": {"kind": "multimode_thermal", "mean": 20.0, "modes": 3},
    "fock": {"kind": "fock", "n": 20},
    "pmf": {"kind": "pmf", "pmf": [0.1, 0.0, 0.3, 0.05, 0.25, 0.0, 0.0, 0.3]},
}


@pytest.mark.parametrize("family", ["gaussian", "gamma"])
@pytest.mark.parametrize("kind", SOURCE_KINDS)
def test_run_then_check_passes_on_every_source_kind_and_gain_family(tmp_path, capsys, kind, family):
    # check replays the detected law of every kind: named laws thin in
    # closed form, a pmf table through the binomial kernel
    cfg = write_config(
        tmp_path, {"source": KIND_SOURCES[kind], "gain": {**BASE["gain"], "family": family}}
    )
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["check", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "[PASS]" in printed and "[FAIL]" not in printed


# sources whose PMF would not fit in memory: each used to allocate
# gigabytes to terabytes, overflow, or fill memory block by block
TOO_LARGE_SOURCES = {
    "poisson-1e9": ({"kind": "poisson", "mean": 1e9}, "mean 1e+09"),
    "poisson-1e12": ({"kind": "poisson", "mean": 1e12}, "mean 1e+12"),
    "poisson-1e300": ({"kind": "poisson", "mean": 1e300}, "mean 1e+300"),
    "fock-1e12": ({"kind": "fock", "n": 10**12}, "n=1000000000000"),
    "thermal-1e12": ({"kind": "thermal", "mean": 1e12}, "mean 1e+12"),
    "thermal-1e6": ({"kind": "thermal", "mean": 1e6}, "mean 1e+06"),
}


# the CLI in a child that caps its own address space at 1.5 GB first
CAPPED_CLI = """
import resource, runpy
resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))
runpy.run_module("linphot.cli", run_name="__main__")
"""


@pytest.mark.parametrize("name", sorted(TOO_LARGE_SOURCES))
def test_a_source_too_large_to_tabulate_exits_2_and_writes_nothing(tmp_path, name):
    # capped and under a timeout, so a regression fails this test
    # instead of exhausting the machine
    source, named = TOO_LARGE_SOURCES[name]
    cfg = write_config(tmp_path, {"source": source})
    out = tmp_path / "o"
    src = str(Path(linphot.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, "run", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert named in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "simulate", "calibrate"])
def test_a_zero_mean_voltage_exits_2_naming_the_point(tmp_path, command):
    # a vacuum source without dark noise gives voltages of exactly 0, whose
    # fano ratio divided by zero: a ZeroDivisionError traceback and exit 1
    cfg = write_config(tmp_path, {"source": {"kind": "poisson", "mean": 0.0}, "dark": {"sigma0": 0.0}})
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    if command == "calibrate":  # blind, on recorded all-zero ensembles
        recorded = tmp_path / "recorded"
        recorded.mkdir()
        for name, eta in [("dark.npy", 0.0), ("ensemble_00_eta_0.100000.npy", 0.1)]:
            zeros = VoltageEnsemble(samples=np.zeros(10), eta=eta, n_samples=10, seed=1)
            write_ensemble(recorded / name, zeros, "abc")
        args = [command, "--ensembles", str(recorded), "--out", str(tmp_path / "o")]
    src = str(Path(linphot.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "linphot.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "eta=0.1: the mean voltage is exactly 0" in proc.stderr
    assert "Traceback" not in proc.stderr


ERROR_TYPES = {"LinphotError", "InvalidParameterError", "ConfigError"}


def raised_names(tree):
    """The name each ``raise`` in ``tree`` raises: the class it calls, or the object it re-raises."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


def test_the_package_raises_three_error_types():
    # the command line tells apart only ConfigError, LinphotError and OSError
    defined = {name for name, obj in vars(linphot.errors).items() if isinstance(obj, type)}
    assert defined == ERROR_TYPES
    package = Path(__file__).resolve().parents[1] / "src" / "linphot"
    others = {
        (path.name, name)
        for path in sorted(package.glob("*.py"))
        for name in raised_names(ast.parse(path.read_text()))
        if name not in ERROR_TYPES and not isinstance(getattr(builtins, name, None), type)
    }
    # the one other raise hands a job's own exception to the stream's consumer
    assert others == {("calibration.py", "result")}


# SHA-256 of every artifact of ``run_experiment`` on BASE.  The pins pin the
# random stream: they change only in a change that means to move it, and
# CHANGES.md then says so.  They assume the draws of the numpy release the
# suite runs with (PCG64 Poisson and normal), which numpy may change
# between releases.
ARTIFACT_SHA256 = {
    "calibration.json": "87d487ab3d339d6174587dbe9112a6e707d95719f3b237ce57d3caf890a50879",
    "config.json": "a1809df4fbe2367615d668ab441d0df7489719116609a9edf24bac9fbd0066d1",
    "dark.json": "a5bfec6150d3d263da93071ea63a82a9a7ca388d095db0814e57ae0b24345939",
    "dark.npy": "9e8ab31c84e4b75685d581863c32e1dc10c8b4adf44a86381eb52941b711a338",
    "ensemble_00_eta_0.100000.json": "992143824f9ef0cebe18118adca6ff89223ee1a8458cdbb147fe340da4b15e50",
    "ensemble_00_eta_0.100000.npy": "2fcacba2f68d3c472cdfb970b51f0585777f88690f8c7b6bca34016a6fa52954",
    "ensemble_01_eta_0.300000.json": "51001643e7ec3b7771bb147985d16ed64623b39c47b55b0156d38033d846d34d",
    "ensemble_01_eta_0.300000.npy": "04ea21b53ec3e23a1da6f965971f54fc8007fa2ca3feba56ffcb0ec44921e282",
    "ensemble_02_eta_0.500000.json": "8199efdbd08596923ca553471b38e513939dd6626cb6b33ef5fb20df4f38af1c",
    "ensemble_02_eta_0.500000.npy": "5bb34711b051cd9fa76d376271e53f608404da0a61603b708da32222f3daf7de",
    "pm.csv": "efe1eee4af0c1e4fc90fe71cb8d71f908cb86d82b833d8fce7b8e69920e5cdc6",
    "pm_metrics.json": "03b60f3f427f342e0401d7e9961709a0e798f48c3adc9f892f49cd0f9fa620eb",
    "reconstruction_eta_0.500000.json": "8199efdbd08596923ca553471b38e513939dd6626cb6b33ef5fb20df4f38af1c",
    "reconstruction_eta_0.500000.npy": "9154f0b2a4eb2c012211a9b46684728bc31cd72fa4922dac804a0a97b143fe7b",
    "report.md": "6bc80b3fdfb25dad907f950e21ce0ba8d85aca4bd658cf454772fd5d1098264e",
}

# SHA-256 of the ensemble CSVs of the same run when ensembles were written
# as CSV: the .npy samples, formatted as that CSV, must give these bytes.
CSV_SHA256 = {
    "dark.csv": "9585a77de903cc7a6c610b2a0a8b212326f68a90428789eabd7642e5af03932f",
    "ensemble_00_eta_0.100000.csv": "e544551363b0ce36697c970cf391f8f77cf51b57e7f6ad63123c322189d7f45b",
    "ensemble_01_eta_0.300000.csv": "8e2bee13b7c6511793eb49173deda166d7a6fa9d3a9443b568540f5c96118ece",
    "ensemble_02_eta_0.500000.csv": "765dc0ddfc3d4964794215a0ead8d9e72f3fd80d50090a1014ea606e3c8249be",
    "reconstruction_eta_0.500000.csv": "e0ad6ea0f9c93762d557a4f070e21fe2473c8b68fc487c696e16eff6498a12b4",
}


def assert_pinned(result, pins):
    written = {path.name: path for path in result.files.values()}
    assert sorted(written) == sorted(pins)
    for name, path in written.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == pins[name], name


def test_artifacts_match_pinned_hashes(tmp_path):
    assert_pinned(run_experiment(from_dict(BASE), tmp_path / "out"), ARTIFACT_SHA256)


def test_npy_samples_are_the_csv_samples_bit_for_bit(finished_run, tmp_path):
    # "%.17e" round-trips a double, so equal CSV bytes mean equal samples
    sha = config_hash(from_dict(BASE))
    for name, digest in CSV_SHA256.items():
        ens = read_ensemble(finished_run / name.replace(".csv", ".npy"))
        write_ensemble_csv(tmp_path / name, ens, config_sha256=sha)
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# SHA-256 of calibration.json for BASE with the gain-scaling check on; the
# one pinned document that holds a GainScalingReport.
GAIN_SCALING_CALIBRATION_SHA256 = "f91502d1f6fdb93b82f9c6298dc0dacc462e32f7bbcec6fb117bfaeefac936f1"


def test_gain_scaling_calibration_matches_pinned_hash(tmp_path):
    result = run_experiment(from_dict({**BASE, "gain_scale_factors": [0.5, 2.0]}), tmp_path / "out")
    assert result.verdicts["gain_scaling"] is not None
    digest = hashlib.sha256(result.files["calibration"].read_bytes()).hexdigest()
    assert digest == GAIN_SCALING_CALIBRATION_SHA256


# SHA-256 of every artifact of ``run_experiment`` on THERMAL_GAMMA: the
# negative-binomial law, the gamma gain draw and a positive fitted slope,
# none of which BASE (Poisson light, gaussian gain) reaches.
THERMAL_GAMMA = {
    **BASE,
    "source": {"kind": "thermal", "mean": 50.0},
    "gain": {"family": "gamma", "gamma_bar": 100.0, "sigma": 5.0},
}
THERMAL_GAMMA_SHA256 = {
    "calibration.json": "d2e52a19187848a1210f05496b340df119d812a6671deb4bae2a840f1566444c",
    "config.json": "bacbc369d0092c37478633b0ebcc9bff9273a4ee696fc84ee78e037b7955e714",
    "dark.json": "e6b56c12cf9f7642f25ae83cabcaf748fcf050f9b0ed7473fa6c256841dda97d",
    "dark.npy": "e078b9ed96e7eeeeb4cde1904aeebe87d26f790fd6923b5b34fc767fc9943f7d",
    "ensemble_00_eta_0.100000.json": "f1dfd8101a418f8872c71e1bd9939c034c8594d78265295a9991c1810bfe893a",
    "ensemble_00_eta_0.100000.npy": "2cc6afdc198f97bea3ce18c0ce2b77b9f10c8b506e09a902c8be1b8a307d289c",
    "ensemble_01_eta_0.300000.json": "7aa77cb71c61e1962dd96d9770d870770fd9e581f2dd0fe9b86e14be2a9088f6",
    "ensemble_01_eta_0.300000.npy": "7153b73793e458b4eda51552587b56d1203aa56d0c3ba341ce910c00f1ce2cc8",
    "ensemble_02_eta_0.500000.json": "4ff2c1d0588bcfb3dea1b0b9ef5b7d7cb816745130716280b81f7dd593427602",
    "ensemble_02_eta_0.500000.npy": "ffa198a4a6922b232b00e536abea2ef0fd71dff152f7eeb06973ae24f00b6aa4",
    "pm.csv": "4ed2c925f09c9c34d76831d00ff292e64b13163927fe8d6b19cb486c0b16dc88",
    "pm_metrics.json": "8eb86be5eb69324ca5a970a24d8b0a4177f1c67e3beb4900ff5f8568aedfd281",
    "reconstruction_eta_0.500000.json": "4ff2c1d0588bcfb3dea1b0b9ef5b7d7cb816745130716280b81f7dd593427602",
    "reconstruction_eta_0.500000.npy": "e9f883fc9b3998450acfd558089adac6e765988bacab0f81abeddf29a4d07379",
    "report.md": "e14a6ed9126c5bed59fdc19ec94afd491ca6da1255caeda8cf4376540573abec",
}


def test_thermal_gamma_artifacts_match_pinned_hashes(tmp_path):
    result = run_experiment(from_dict(THERMAL_GAMMA), tmp_path / "out")
    assert result.calibration.slope > 0
    assert_pinned(result, THERMAL_GAMMA_SHA256)


# the sweeps of the benchmark's workloads (perfbench/run.py) at seed 1; only
# the keys that set a sweep's draws are given
LADDER = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]
WORKLOAD_SWEEPS = {
    "reference": {"source": {"kind": "poisson", "mean": 100.0}, "n_samples": 100_000},
    "bright": {"source": {"kind": "poisson", "mean": 1400.0}, "n_samples": 30_000},
    "thermal": {
        "source": {"kind": "thermal", "mean": 100.0},
        "gain": {"family": "gamma", "gamma_bar": 100.0, "sigma": 5.0},
        "n_samples": 10_000,
        "tail_epsilon": 1e-40,
    },
}


@pytest.mark.parametrize("name", ["BASE", *WORKLOAD_SWEEPS])
def test_se_fano_is_the_np_std_form_on_every_sweep_point(tmp_path, name):
    # se_fano_v comes from the point's moments, no longer from np.std of
    # d (d - F): the two forms agree to rounding, and the rest is bit-equal;
    # each point is zero-set by the dark record's mean and reduced with its variance
    raw = BASE if name == "BASE" else {**BASE, "eta_series": LADDER, "seed": 1, **WORKLOAD_SWEEPS[name]}
    dark, points, _, files = simulate_sweep(Models(from_dict(raw)), tmp_path)
    for i, point in enumerate(points):
        samples = np.load(files[f"ensemble_{i}"])
        want = fsum_eta_point(point.eta, samples - dark.mean, dark.central_moment(2))
        assert point.se_fano_v == pytest.approx(want.se_fano_v, rel=1e-12, abs=0), point.eta
        assert point._replace(se_fano_v=0.0) == want._replace(se_fano_v=0.0)


def test_each_ensemble_is_reduced_once(tmp_path, monkeypatch):
    # one sample_moments call per ensemble that run draws and check reads
    reduced, drawn, read = [], [], []

    def spy(log, function):
        def logged(*args, **kwargs):
            log.append(None)
            return function(*args, **kwargs)

        return logged

    for module in (linphot.calibration, linphot.pipeline, linphot.cli):
        monkeypatch.setattr(module, "sample_moments", spy(reduced, linphot.moments.sample_moments))
    monkeypatch.setattr(linphot.pipeline, "read_ensemble", spy(read, linphot.pipeline.read_ensemble))
    monkeypatch.setattr(linphot.calibration, "simulate_ensemble", spy(drawn, linphot.calibration.simulate_ensemble))
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert len(reduced) == len(drawn) == 5  # dark, 3 sweep points, reconstruction
    reduced.clear()
    assert main(["check", "--out", str(tmp_path / "run")]) == 0
    assert len(reduced) == len(read) == 5


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_pinned_hashes_hold_on_any_core_count(tmp_path, monkeypatch, cores):
    # the sweep runs one worker per usable core; each ensemble owns its substream
    monkeypatch.setattr(linphot.calibration.os, "sched_getaffinity", lambda pid: set(range(cores)))
    before = threading.enumerate()
    result = run_experiment(from_dict(BASE), tmp_path / "out")
    for path in result.files.values():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ARTIFACT_SHA256[path.name], path.name
    scaled = run_experiment(from_dict({**BASE, "gain_scale_factors": [0.5, 2.0]}), tmp_path / "scaled")
    digest = hashlib.sha256(scaled.files["calibration"].read_bytes()).hexdigest()
    assert digest == GAIN_SCALING_CALIBRATION_SHA256
    assert [t for t in threading.enumerate() if t not in before] == []


def test_a_failed_ensemble_write_stops_the_sweep(tmp_path, monkeypatch):
    written = []

    def fail_second(path, ens, sha):
        if len(written) == 2:  # dark.npy, then ensemble 0
            raise OSError("disk full")
        written.append(path.name)
        return write_ensemble(path, ens, sha)

    monkeypatch.setattr(linphot.pipeline, "write_ensemble", fail_second)
    before = threading.enumerate()
    with pytest.raises(OSError, match="disk full") as excinfo:
        run_experiment(from_dict(BASE), tmp_path / "out")
    assert written == ["dark.npy", "ensemble_00_eta_0.100000.npy"]
    # excinfo keeps the traceback alive, and with it the frame that holds the sweep
    assert excinfo.traceback
    assert [t for t in threading.enumerate() if t not in before] == []


def test_two_cli_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {"n_samples": 10_000})
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    names = sorted(path.name for path in out1.iterdir())
    assert names == sorted(path.name for path in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("command", ["run", "simulate"])
@pytest.mark.parametrize(
    "first,second",
    [
        # check failed the fresh run on the old eta=0.7 file; blind calibrate fit it as a fifth point
        ({"eta_series": [0.1, 0.3, 0.5, 0.7]}, {"eta_series": [0.1, 0.3, 0.5], "seed": 7}),
        # check exited 2 on two ensemble files with sweep index 1
        ({"eta_series": [0.1, 0.2, 0.3, 0.5]}, {"eta_series": [0.1, 0.3, 0.5]}),
    ],
    ids=["fewer-etas", "shifted-etas"],
)
def test_a_used_out_is_refused_and_left_as_it_was(tmp_path, capsys, command, first, second):
    out = tmp_path / "run"
    assert main(["run", "--config", str(write_config(tmp_path, first, "first.json")), "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    cfg = write_config(tmp_path, second, "second.json")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {out} already holds a run's ensembles (dark.json); give an unused --out\n"
    )
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert main(["check", "--out", str(out)]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_run_experiment_refuses_a_used_out_and_leaves_it_as_it_was(tmp_path, capsys):
    # the path of scripts/run_reference_experiment.py: a second run must not write over the first
    out = tmp_path / "run"
    run_experiment(from_dict({**BASE, "eta_series": [0.1, 0.3, 0.5, 0.7]}), out)
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    message = f"{out} already holds a run's ensembles (dark.json); give an unused --out"
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        run_experiment(from_dict({**BASE, "eta_series": [0.1, 0.3, 0.5], "seed": 7}), out)
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert main(["check", "--out", str(out)]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_an_out_without_ensembles_is_used(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    assert main(["simulate", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    assert (out / "notes.txt").read_text() == "kept\n"
    assert (out / "dark.npy").exists()


def is_plain_json(value) -> bool:
    """Whether ``value`` holds only dicts with string keys, lists, strings, numbers and None, at every depth."""
    if isinstance(value, dict):
        return all(isinstance(key, str) and is_plain_json(item) for key, item in value.items())
    if isinstance(value, list):
        return all(is_plain_json(item) for item in value)
    return value is None or isinstance(value, (str, int, float))


def test_as_dict_turns_a_calibration_record_into_dicts_and_lists(finished_run):
    # json writes a NamedTuple as a list, so every level must be converted
    dark = dark_moments(finished_run / "dark.npy")
    blind = calibrate(sweep_points(sweep_paths(finished_run), dark), dark.central_moment(2))
    record = against_model(Models(from_dict(BASE)), blind)
    doc = as_dict(record)
    assert is_plain_json(doc)
    assert list(doc) == list(record._fields)
    assert doc["fit"]["points"] == [dict(zip(p._fields, p)) for p in record.fit.points]
    rows = doc["checks"]["mean_constancy"]["rows"]
    assert rows == [dict(zip(r._fields, r)) for r in record.checks.mean_constancy.rows]
    assert doc["checks"]["gain_scaling"] is None


# runs the CLI module as ``python -m linphot.cli`` does, after a prelude
CLI_AFTER = """
{prelude}
import runpy
runpy.run_module("linphot.cli", run_name="__main__", alter_sys=True)
"""

# reports at exit whether the collector was frozen
FREEZE_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0, file=sys.stderr))
"""


def cli_process(*args, prelude=""):
    """``python -m linphot.cli ARGS`` in a fresh interpreter, after running ``prelude``; the finished process."""
    return subprocess.run(
        [sys.executable, "-c", CLI_AFTER.format(prelude=prelude), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(linphot.__file__).resolve().parents[1])},
        timeout=60,
    )


class TestEntry:
    """The command exits with the collector frozen; ``main`` in process leaves it alone."""

    def test_the_command_exits_with_mains_code_after_freezing(self, finished_run, tmp_path, capsys):
        for out in (finished_run, tmp_path / "missing"):
            proc = cli_process("check", "--out", str(out), prelude=FREEZE_PROBE)
            code = main(["check", "--out", str(out)])
            assert proc.returncode == code, proc.stderr
            assert proc.stdout == capsys.readouterr().out  # stdout is flushed at exit
            assert "frozen at exit: True" in proc.stderr
        assert code == 2

    def test_main_leaves_the_collector_unfrozen(self, finished_run, capsys):
        before = gc.get_freeze_count()
        assert main(["check", "--out", str(finished_run)]) == 0
        assert gc.get_freeze_count() == before

    def test_the_script_is_the_entry_function(self):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert 'linphot = "linphot.cli:entry"' in pyproject


def keep_first_sample(path):
    """Rewrite the ensemble ``.npy`` at ``path`` to its first sample, with a matching sidecar."""
    ens = read_ensemble(path)
    sha = json.loads(path.with_suffix(".json").read_text())["config_sha256"]
    write_ensemble(path, replace(ens, samples=ens.samples[:1], n_samples=1), sha)


@pytest.mark.parametrize(
    "case",
    [
        "check-dark", "check-sweep", "check-reconstruction", "blind-calibrate-dark", "reconstruct-dark",
        "reconstruct-input", "moments-input",
    ],
)
def test_a_one_sample_ensemble_exits_2_naming_it(finished_run, tmp_path, case):
    # no statistic reduces it; it is refused where it is read, naming the file
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    (reconstruction,) = out.glob("reconstruction_eta_*.npy")
    path = {
        "check-sweep": sorted(out.glob("ensemble_*.npy"))[1],
        "check-reconstruction": reconstruction,
        "reconstruct-input": reconstruction,
        "moments-input": reconstruction,
    }.get(case, out / "dark.npy")
    keep_first_sample(path)
    args = {
        "check-dark": ["check", "--out", str(out)],
        "check-sweep": ["check", "--out", str(out)],
        "check-reconstruction": ["check", "--out", str(out)],
        "blind-calibrate-dark": ["calibrate", "--ensembles", str(out), "--out", str(tmp_path / "c")],
        "reconstruct-dark": [
            "reconstruct", "--input", str(reconstruction), "--gamma-bar", "100", "--dark", str(path),
            "--out", str(tmp_path / "r"),
        ],
        "reconstruct-input": [
            "reconstruct", "--input", str(path), "--gamma-bar", "100", "--out", str(tmp_path / "r"),
        ],
        "moments-input": ["moments", "--input", str(path)],
    }[case]
    proc = cli_process(*args)
    assert proc.returncode == 2, proc.stderr
    assert f"error: need at least 2 samples, got 1: {path}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "c").exists() and not (tmp_path / "r").exists()


# finite ensembles whose fifth centered powers pass the float range
OVERFLOWING_AT_ORDER_5 = {
    "powers-1e70": [1e70, -1e70, 1e70, -1e70],
    "powers-6e61": [6e61] * 5 + [-6e61] * 4,
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_AT_ORDER_5))
def test_an_overflowing_moment_order_exits_2_naming_it(tmp_path, name):
    path, _ = small_npy(tmp_path, np.array(OVERFLOWING_AT_ORDER_5[name]))
    proc = cli_process("moments", "--input", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: order 5: ")
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_a_moment_whose_sum_overflows_is_printed(tmp_path):
    # the sum of the fifth centered powers passes the float range, the moment does not
    path, _ = small_npy(tmp_path, np.array([4e61] * 50 + [-4e61] * 40))
    proc = cli_process("moments", "--input", str(path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["central"]["mu5"] == -4.550417449914479e307


def test_blind_calibrate_fits_a_sweep_whose_raw_moments_overflow(tmp_path, capsys):
    # E[x^4] of 1e80 + 1e70 z is past the float range; no statistic of the
    # analysis reads it, so the sweep is fitted.  moments --input prints the
    # raw moments, so it still refuses such an ensemble, naming the order
    rng = np.random.default_rng(9)
    sweep = tmp_path / "sweep"
    sweep.mkdir()
    dark = VoltageEnsemble(samples=1e70 * rng.standard_normal(1000), eta=0.0, n_samples=1000, seed=1)
    write_ensemble(sweep / "dark.npy", dark, None)
    for i, eta in enumerate((0.1, 0.3, 0.5)):
        # the dark noise plus a signal of Fano factor 5e61
        samples = 2e80 * eta + 1e70 * rng.standard_normal(1000) + 1e71 * math.sqrt(eta) * rng.standard_normal(1000)
        ens = VoltageEnsemble(samples=samples, eta=eta, n_samples=1000, seed=1)
        write_ensemble(sweep / f"ensemble_{i:02d}_eta_{eta:.6f}.npy", ens, None)
    assert main(["calibrate", "--ensembles", str(sweep), "--out", str(tmp_path / "c")]) == 0, capsys.readouterr().err
    fit = json.loads((tmp_path / "c" / "calibration.json").read_text())["fit"]
    assert fit["valid"] is True and abs(fit["intercept"] - 5e61) < 3 * fit["intercept_se"]
    proc = cli_process("moments", "--input", str(sweep / "ensemble_02_eta_0.500000.npy"), "--order", "4")
    assert proc.returncode == 2
    assert proc.stderr == "error: order 4: the raw moment mu4_raw is past the float range\n" and not proc.stdout


def test_a_dark_record_that_overflows_is_named(finished_run, tmp_path, capsys):
    # its variance overflows: blind calibrate names the file, as for a sweep ensemble
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    dark = read_ensemble(out / "dark.npy")
    samples = np.where(np.arange(dark.n_samples) % 2, 1e200, -1e200)
    write_ensemble(out / "dark.npy", replace(dark, samples=samples), None)
    assert main(["calibrate", "--ensembles", str(out), "--out", str(tmp_path / "c")]) == 2
    assert capsys.readouterr().err == f"error: order 2: the powers (x - mean)^2 overflow: {out / 'dark.npy'}\n"
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("command", ["run", "simulate"])
def test_the_seed_flag_is_the_config_seed(tmp_path, command):
    # --seed 7 writes the bytes of a config whose "seed" is 7
    flagged, seeded = tmp_path / "flag", tmp_path / "seed"
    cfg = write_config(tmp_path)
    assert main([command, "--config", str(cfg), "--out", str(flagged), "--seed", "7"]) == 0
    cfg = write_config(tmp_path, {"seed": 7}, name="seed7.json")
    assert main([command, "--config", str(cfg), "--out", str(seeded)]) == 0
    names = sorted(path.name for path in flagged.iterdir())
    assert names == sorted(path.name for path in seeded.iterdir()) and names
    for name in names:
        assert (flagged / name).read_bytes() == (seeded / name).read_bytes(), name
    parent = write_config(tmp_path, name="seed99.json")
    assert main([command, "--config", str(parent), "--out", str(tmp_path / "99")]) == 0
    assert any((tmp_path / "99" / name).read_bytes() != (seeded / name).read_bytes() for name in names)


@pytest.mark.parametrize("command", ["run", "simulate"])
def test_workers_flag_is_a_usage_error(tmp_path, command):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--workers", "2"])
    assert exc.value.code == 2


class TestSubcommandsAreStagesOfRun:
    """Each subcommand writes what the matching stage of ``run`` writes."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("stages")
        cfg = write_config(root)
        assert main(["run", "--config", str(cfg), "--out", str(root / "run")]) == 0
        return cfg, root / "run"

    def test_simulate_writes_the_run_ensembles(self, run_dir, tmp_path):
        cfg, run = run_dir
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
        names = sorted(p.name for p in sim.iterdir())
        assert names == sorted(p.name for p in [*run.glob("dark.*"), *run.glob("ensemble_*")])
        assert len(names) == 2 * (1 + len(BASE["eta_series"]))
        for name in names:
            assert (sim / name).read_bytes() == (run / name).read_bytes(), name

    def test_reconstruct_gives_the_run_pm_rows(self, run_dir, tmp_path):
        _, run = run_dir
        gamma = json.loads((run / "pm_metrics.json").read_text())["gamma_bar_used"]
        (ensemble,) = run.glob("reconstruction_eta_*.npy")
        rec = tmp_path / "rec"
        args = ["reconstruct", "--input", str(ensemble), "--gamma-bar", repr(gamma)]
        assert main(args + ["--dark", str(run / "dark.npy"), "--out", str(rec)]) == 0

        def rows(path):
            return [line for line in path.read_text().splitlines() if not line.startswith("#")]

        assert rows(rec / "pm.csv") == rows(run / "pm.csv")

    def test_reconstruct_from_calibration_gives_the_run_metrics(self, run_dir, tmp_path):
        _, run = run_dir
        (ensemble,) = run.glob("reconstruction_eta_*.npy")
        rec = tmp_path / "rec"
        args = ["reconstruct", "--input", str(ensemble), "--from-calibration"]
        args += [str(run / "calibration.json"), "--dark", str(run / "dark.npy")]
        assert main(args + ["--out", str(rec)]) == 0
        doc = json.loads((rec / "pm_metrics.json").read_text())
        run_doc = json.loads((run / "pm_metrics.json").read_text())
        # no config and no generating P_m: the three keys they fill are null
        assert doc == {**run_doc, "config_sha256": None, "tv_distance": None, "fidelity": None}
        assert run_doc["tv_distance"] is not None and run_doc["gamma_bar_source"] == "calibration intercept"


class TestCheckReadsTheSweepInOrder:
    """``check`` replays point i from ensemble i, by the index in its name."""

    def run_and_check(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        code = main(["check", "--out", str(out)])
        return out, code, capsys.readouterr().out

    # the second point was read from the first's file, a glob on the eta
    # the file name rounds to 6 places
    @pytest.mark.parametrize(
        "eta_series", [[0.1, 0.1, 0.3, 0.5], [0.1, 0.1000001, 0.3, 0.5]], ids=["repeated", "same-6-places"]
    )
    def test_repeated_eta_passes(self, tmp_path, capsys, eta_series):
        out, code, printed = self.run_and_check(tmp_path, capsys, {"eta_series": eta_series})
        assert sorted(p.name for p in out.glob("ensemble_*.npy"))[:2] == [
            "ensemble_00_eta_0.100000.npy",
            "ensemble_01_eta_0.100000.npy",
        ]
        assert code == 0
        assert "[FAIL]" not in printed
        # the recorded points, each of its own ensemble, replay byte for byte
        assert "[PASS] one ensemble per configured eta (4 ensembles, 4 etas)" in printed
        assert "[PASS] calibration.json replayed byte for byte" in printed

    def test_a_101_point_sweep_passes(self, tmp_path, capsys):
        etas = [round(0.01 + 0.004 * i, 6) for i in range(101)]
        out, code, printed = self.run_and_check(tmp_path, capsys, {"eta_series": etas, "n_samples": 500})
        # ensemble_100 sorts before ensemble_11 by name
        assert (out / "ensemble_100_eta_0.410000.npy").exists()
        assert code == 0
        assert "[FAIL]" not in printed
        assert "[PASS] one ensemble per configured eta (101 ensembles, 101 etas)" in printed
        assert "[PASS] calibration.json replayed byte for byte" in printed

    def test_a_missing_ensemble_is_one_failure(self, finished_run, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(finished_run, out)
        (out / "ensemble_01_eta_0.300000.npy").unlink()
        assert main(["check", "--out", str(out)]) == 1
        printed = capsys.readouterr().out
        assert printed.count("[FAIL]") == 1
        assert "[FAIL] one ensemble per configured eta (2 ensembles, 3 etas)" in printed

    def test_an_eta_header_that_differs_fails_its_point(self, finished_run, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(finished_run, out)
        path = out / "ensemble_00_eta_0.100000.json"
        path.write_text(path.read_text().replace('"eta": 0.1,', '"eta": 0.1000001,', 1))
        assert main(["check", "--out", str(out)]) == 1
        printed = capsys.readouterr().out
        assert printed.count("[FAIL]") == 1
        assert "[FAIL] one ensemble per configured eta (3 ensembles, 3 etas)" in printed

    def test_an_ensemble_name_without_an_index_is_named(self, finished_run, tmp_path, capsys):
        ens_dir = tmp_path / "ens"
        shutil.copytree(finished_run, ens_dir)
        (ens_dir / "ensemble_00_eta_0.100000.npy").rename(ens_dir / "ensemble_first.npy")
        code = main(["calibrate", "--ensembles", str(ens_dir), "--out", str(tmp_path / "c")])
        assert code == 2
        assert f"ensemble file name has no sweep index: {ens_dir / 'ensemble_first.npy'}" in capsys.readouterr().err

    def test_two_files_with_one_index_are_an_error(self, finished_run, tmp_path, capsys):
        ens_dir = tmp_path / "ens"
        shutil.copytree(finished_run, ens_dir)
        write_ensemble_csv(ens_dir / "ensemble_1.csv", read_ensemble(ens_dir / "ensemble_01_eta_0.300000.npy"))
        code = main(["calibrate", "--ensembles", str(ens_dir), "--out", str(tmp_path / "c")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"two ensemble files with sweep index 1: {ens_dir / 'ensemble_01_eta_0.300000.npy'}" in err
        assert not (tmp_path / "c").exists()

    def test_two_dark_records_are_an_error(self, finished_run, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(finished_run, out)
        write_ensemble_csv(out / "dark.csv", read_ensemble(out / "dark.npy"))
        assert main(["check", "--out", str(out)]) == 2
        assert f"two dark records: {out / 'dark.npy'} and {out / 'dark.csv'}" in capsys.readouterr().err

    def test_csv_ensembles_in_a_run_directory_fail_the_hash_verdict(self, finished_run, tmp_path, capsys):
        # the same samples as CSV, even with the hash in a header: a CSV has no sidecar
        out = tmp_path / "run"
        shutil.copytree(finished_run, out)
        sha = config_hash(load(out / "config.json"))
        for stem in ("dark", "ensemble_01_eta_0.300000"):
            write_ensemble_csv(out / f"{stem}.csv", read_ensemble(out / f"{stem}.npy"), config_sha256=sha)
            (out / f"{stem}.npy").unlink()
            (out / f"{stem}.json").unlink()
        assert main(["check", "--out", str(out)]) == 1
        printed = capsys.readouterr().out
        assert printed.count("[FAIL]") == 1
        assert (
            "[FAIL] config_sha256 of config.json in every ensemble sidecar "
            "(not in dark.csv, ensemble_01_eta_0.300000.csv)"
        ) in printed

    def test_blind_calibrate_writes_the_same_fit_from_npy_and_csv(self, finished_run, tmp_path):
        csv_dir = tmp_path / "csv"
        csv_dir.mkdir()
        for path in [*finished_run.glob("dark.npy"), *finished_run.glob("ensemble_*.npy")]:
            write_ensemble_csv(csv_dir / path.with_suffix(".csv").name, read_ensemble(path))
        for directory, out in ((finished_run, tmp_path / "from_npy"), (csv_dir, tmp_path / "from_csv")):
            assert main(["calibrate", "--ensembles", str(directory), "--out", str(out)]) == 0
        cal = (tmp_path / "from_npy" / "calibration.json").read_bytes()
        assert cal == (tmp_path / "from_csv" / "calibration.json").read_bytes()
        assert json.loads(cal)["fit"]["valid"] is True


class TestCheckWithoutAFit:
    """``check`` reads the sweep of a run whose calibration has no fit."""

    @pytest.fixture(scope="class")
    def dark_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("vacuum") / "run"
        result = run_experiment(from_dict({**BASE, "source": {"kind": "poisson", "mean": 0.0}}), out)
        assert result.calibration is None
        return out

    def test_the_run_passes(self, dark_run, capsys):
        assert main(["check", "--out", str(dark_run)]) == 0
        assert "[PASS] one ensemble per configured eta (3 ensembles, 3 etas)" in capsys.readouterr().out

    def test_a_missing_ensemble_is_one_failure(self, dark_run, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(dark_run, out)
        (out / "ensemble_01_eta_0.300000.npy").unlink()
        assert main(["check", "--out", str(out)]) == 1
        printed = capsys.readouterr().out
        assert printed.count("[FAIL]") == 1
        assert "[FAIL] one ensemble per configured eta (2 ensembles, 3 etas)" in printed

    def test_a_garbage_ensemble_exits_2_naming_it(self, dark_run, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(dark_run, out)
        (out / "ensemble_01_eta_0.300000.npy").unlink()
        (out / "ensemble_00_eta_0.100000.npy").write_text("garbage")
        assert main(["check", "--out", str(out)]) == 2
        assert f"not a version 1.0 .npy array: {out / 'ensemble_00_eta_0.100000.npy'}" in capsys.readouterr().err


class TestGainScalingInRun:
    def test_baseline_is_the_main_fit(self, tmp_path):
        config = from_dict({**BASE, "gain_scale_factors": [2.0]})
        result = run_experiment(config, tmp_path / "out")
        doc = json.loads(result.files["calibration"].read_text())
        scaling = doc["checks"]["gain_scaling"]
        assert scaling["baseline_intercept"] == doc["fit"]["intercept"]
        assert scaling["baseline_intercept_se"] == doc["fit"]["intercept_se"]
        assert result.verdicts["gain_scaling"] is not None

    def test_skipped_without_a_calibration(self, tmp_path):
        raw = {**BASE, "source": {"kind": "poisson", "mean": 1e-6}, "gain_scale_factors": [2.0]}
        result = run_experiment(from_dict(raw), tmp_path / "out")
        doc = json.loads(result.files["calibration"].read_text())
        assert doc["fit"] is None and doc["fit_error"]
        assert doc["checks"]["gain_scaling"] is None
        assert result.verdicts["gain_scaling"] is None

    def test_check_passes_without_simulating(self, tmp_path, capsys, monkeypatch):
        # the recorded gain-scaling section stands in for its re-simulation
        out = tmp_path / "out"
        run_experiment(from_dict({**BASE, "gain_scale_factors": [0.5, 2.0]}), out)

        def refuse(*args, **kwargs):
            raise AssertionError("check simulated an ensemble")

        # every module that binds the sampler; pipeline draws through calibration's stream
        for module in (linphot.detector, linphot.calibration):
            monkeypatch.setattr(module, "simulate_ensemble", refuse)
        assert main(["check", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "[FAIL]" not in printed
        assert "[PASS] report.md replayed byte for byte" in printed

    @pytest.mark.parametrize(
        "edit",
        [lambda scaling: scaling.pop("rows"), lambda scaling: scaling["rows"][0].update(factor="0.5")],
        ids=["rows-deleted", "factor-a-string"],
    )
    def test_a_malformed_recorded_section_exits_2_naming_the_file(self, tmp_path, edit):
        # the one recorded section check takes as it is; the report could not render it
        out = tmp_path / "out"
        run_experiment(from_dict({**BASE, "gain_scale_factors": [0.5, 2.0]}), out)
        edit_json("calibration.json", lambda doc: edit(doc["checks"]["gain_scaling"]))(out)
        proc = subprocess.run(
            [sys.executable, "-m", "linphot.cli", "check", "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(linphot.__file__).resolve().parents[1])},
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert f"calibration file is malformed: {out / 'calibration.json'}: checks.gain_scaling" in proc.stderr
        assert "Traceback" not in proc.stderr


MODULE_PROBE = """
import sys
sys.modules["scipy"] = None  # any import of scipy raises ImportError
{body}
print(sorted(m for m, mod in sys.modules.items() if mod is not None and any(m == n or m.startswith(n + ".") for n in {names!r})))
"""


def loaded_modules(body, *args, names=("scipy",)):
    """Run ``body`` in a fresh interpreter where scipy cannot be imported; return every module it loaded in the packages ``names``."""
    src = str(Path(linphot.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE.format(body=body, names=names), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    return proc.stdout.splitlines()[-1]


class TestStartupImports:
    """No command needs scipy, nor loads concurrent.futures: the laws are evaluated in numpy, the streams run on bare threads."""

    def test_import_linphot(self):
        assert loaded_modules("import linphot", names=("concurrent.futures", "scipy")) == "[]"

    def test_commands_that_read_ensemble_files(self, finished_run, tmp_path):
        (reconstruction,) = finished_run.glob("reconstruction_eta_*.npy")
        commands = [
            ["moments", "--input", str(reconstruction)],
            ["reconstruct", "--input", str(reconstruction), "--gamma-bar", "100", "--out", str(tmp_path / "r1")],
            [
                "reconstruct", "--input", str(reconstruction), "--dark", str(finished_run / "dark.npy"),
                "--from-calibration", str(finished_run / "calibration.json"), "--out", str(tmp_path / "r2"),
            ],
            ["calibrate", "--ensembles", str(finished_run), "--out", str(tmp_path / "c")],
        ]
        body = "import json\nfrom linphot import cli\nfor args in json.loads(sys.argv[1]):\n    assert cli.main(args) == 0, args"
        assert loaded_modules(body, json.dumps(commands)) == "[]"

    def test_import_cli_and_load_config(self, tmp_path):
        # every command's start-up
        cfg = write_config(tmp_path)
        body = "import linphot.cli, linphot.config\nlinphot.config.load(sys.argv[1])"
        assert loaded_modules(body, str(cfg), names=("concurrent.futures", "scipy")) == "[]"

    def test_check_a_finished_run(self, finished_run):
        body = "from linphot import cli\nassert cli.main(['check', '--out', sys.argv[1]]) == 0"
        assert loaded_modules(body, str(finished_run)) == "[]"

    def test_law_evaluating_commands(self, tmp_path):
        sources = {
            "poisson": BASE["source"],
            "thermal": {"kind": "thermal", "mean": 20.0},
            "multimode": {"kind": "multimode_thermal", "mean": 20.0, "modes": 3},
            "fock": {"kind": "fock", "n": 20},
            "table": {"kind": "pmf", "pmf": [0.1, 0.2, 0.3, 0.4]},
        }
        commands = []
        for name, source in sources.items():
            cfg = write_config(tmp_path, {"source": source}, name=f"{name}.json")
            commands.append(["run", "--config", str(cfg), "--out", str(tmp_path / name)])
        base = str(tmp_path / "poisson.json")
        commands.append(["simulate", "--config", base, "--out", str(tmp_path / "sim")])
        body = "import json\nfrom linphot import cli\nfor args in json.loads(sys.argv[1]):\n    assert cli.main(args) == 0, args"
        assert loaded_modules(body, json.dumps(commands), names=("concurrent.futures", "scipy")) == "[]"

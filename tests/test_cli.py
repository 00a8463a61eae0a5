import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields, replace
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
    build_source,
    config_hash,
    from_dict,
    load,
)
from linphot.files import canonical_json, read_ensemble, write_ensemble
from oracles import write_ensemble_csv

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
CONFIG_KEYS = [f.name for f in fields(RunConfig)]


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
            ("moment_order", True),
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

    def test_missing_config_exits_1(self, tmp_path, capsys):
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
        with pytest.raises(SystemExit):
            main(["calibrate", "--out", str(tmp_path)])

    def test_out_dir_from_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, {"out_dir": "cfg_out"})
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "cfg_out" / "report.md").exists()

    def test_missing_out_everywhere_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "out_dir" in capsys.readouterr().err


# SHA-256 of every artifact of ``run_experiment`` on BASE.  The pins pin the
# random stream: they change only in a change that means to move it, and
# CHANGES.md then says so.  They assume the draws of the numpy release the
# suite runs with (PCG64 Poisson and normal), which numpy may change
# between releases.
ARTIFACT_SHA256 = {
    "calibration.json": "020dfba7dcbc5393110a51a020b7722ef1eebd957fc85ed977bffe5d4e456078",
    "config.json": "8eda591e739779df11b5006369ad862fff24dd806eca67b1bb12d53f19a19996",
    "dark.json": "88042cdd03f5a0f83869ca1224950d5492aca1b36532b5ad1c52675ca8afdf94",
    "dark.npy": "9e8ab31c84e4b75685d581863c32e1dc10c8b4adf44a86381eb52941b711a338",
    "ensemble_00_eta_0.100000.json": "f64ee2febb6d7d0d3da56f402b631eb46cd0f40441dbf5a551d94abd7f09df31",
    "ensemble_00_eta_0.100000.npy": "2fcacba2f68d3c472cdfb970b51f0585777f88690f8c7b6bca34016a6fa52954",
    "ensemble_01_eta_0.300000.json": "0e29fdaa3ab411a16481c0fc9f7bb0919f1d34b065d1b8172b51042cbd008b5a",
    "ensemble_01_eta_0.300000.npy": "04ea21b53ec3e23a1da6f965971f54fc8007fa2ca3feba56ffcb0ec44921e282",
    "ensemble_02_eta_0.500000.json": "6df16bb06fb01d300a90155b5e2c5634008316841a3676bc29a0cccbcc6fc669",
    "ensemble_02_eta_0.500000.npy": "5bb34711b051cd9fa76d376271e53f608404da0a61603b708da32222f3daf7de",
    "pm.csv": "48cb5106250abd7928306babefe7c402c25ebdb21dfe43b7da85130fbed307ef",
    "pm_metrics.json": "a7c9f8f05bf65204a9d2f1670569e3ddd397d231102e95064ba6d8e33b9a2e42",
    "reconstruction_eta_0.500000.json": "6df16bb06fb01d300a90155b5e2c5634008316841a3676bc29a0cccbcc6fc669",
    "reconstruction_eta_0.500000.npy": "9154f0b2a4eb2c012211a9b46684728bc31cd72fa4922dac804a0a97b143fe7b",
    "report.md": "050e912f6bf3dfdfeac6b94679332bcbf6361049c8edb24c33a495e723ea037c",
}

# SHA-256 of the ensemble CSVs of the same run when ensembles were written
# as CSV: the .npy samples, formatted as that CSV, must give these bytes.
CSV_SHA256 = {
    "dark.csv": "7b43fead1b241797a0cbc6382f90874695ad9248266117c3a4718b59d366d9a3",
    "ensemble_00_eta_0.100000.csv": "235c8fe2f6f2d76c524559a3e5f6f841941c777dc044f6e2879b7d8171614304",
    "ensemble_01_eta_0.300000.csv": "74ed62ba652012be01129054217134cb690f7bf62d34e1418ea1c682d2340afa",
    "ensemble_02_eta_0.500000.csv": "16efaf3185797580748de95b4704dfdad92ab942f9a026a942894cf71ae591f1",
    "reconstruction_eta_0.500000.csv": "6062c3fa86f36acaaf9cb7a7c8b78521a64b1c0f0568742e2b6d945ff8db5b75",
}


def test_artifacts_match_pinned_hashes(tmp_path):
    result = run_experiment(from_dict(BASE), tmp_path / "out")
    written = {path.name: path for path in result.files.values()}
    assert sorted(written) == sorted(ARTIFACT_SHA256)
    for name, path in written.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ARTIFACT_SHA256[name], name


def test_npy_samples_are_the_csv_samples_bit_for_bit(finished_run, tmp_path):
    # "%.17e" round-trips a double, so equal CSV bytes mean equal samples
    sha = config_hash(from_dict(BASE))
    for name, digest in CSV_SHA256.items():
        ens = read_ensemble(finished_run / name.replace(".csv", ".npy"))
        write_ensemble_csv(tmp_path / name, ens, config_sha256=sha)
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# SHA-256 of calibration.json for BASE with the gain-scaling check on; the
# one pinned document that holds a GainScalingReport.
GAIN_SCALING_CALIBRATION_SHA256 = "64c930ac02f471a74d0fb47a8b2ea1dbb676bd2545ef7a98c61f6bc0fe7461b0"


def test_gain_scaling_calibration_matches_pinned_hash(tmp_path):
    result = run_experiment(from_dict({**BASE, "gain_scale_factors": [0.5, 2.0]}), tmp_path / "out")
    assert result.verdicts["gain_scaling"] is not None
    digest = hashlib.sha256(result.files["calibration"].read_bytes()).hexdigest()
    assert digest == GAIN_SCALING_CALIBRATION_SHA256


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

    def test_calibrate_config_mode_writes_the_run_fit(self, run_dir, tmp_path):
        cfg, run = run_dir
        cal = tmp_path / "cal"
        assert main(["calibrate", "--config", str(cfg), "--out", str(cal)]) == 0
        assert (cal / "calibration.json").read_bytes() == (run / "calibration.json").read_bytes()
        doc = json.loads((cal / "calibration.json").read_text())
        assert doc["checks"]["mean_constancy"]["passed"] is True

    def test_calibrate_config_mode_writes_the_run_gain_scaling_check(self, tmp_path):
        cfg = write_config(tmp_path, {"gain_scale_factors": [0.5, 2.0]})
        run, cal = tmp_path / "run", tmp_path / "cal"
        assert main(["run", "--config", str(cfg), "--out", str(run)]) == 0
        assert main(["calibrate", "--config", str(cfg), "--out", str(cal)]) == 0
        assert (cal / "calibration.json").read_bytes() == (run / "calibration.json").read_bytes()
        doc = json.loads((cal / "calibration.json").read_text())
        assert [row["factor"] for row in doc["checks"]["gain_scaling"]["rows"]] == [0.5, 2.0]

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

        for module in (linphot.detector, linphot.calibration, linphot.pipeline):
            monkeypatch.setattr(module, "simulate_ensemble", refuse)
        assert main(["check", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "[FAIL]" not in printed
        assert "[PASS] report.md replayed byte for byte" in printed


SCIPY_PROBE = """
import sys
{body}
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def loaded_scipy(body, *args):
    """Run ``body`` in a fresh interpreter; return every scipy module it loaded."""
    src = str(Path(linphot.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE.format(body=body), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    return proc.stdout.splitlines()[-1]


class TestStartupImports:
    """No command loads scipy: the photon-number laws are evaluated in numpy."""

    def test_import_cli_and_load_config(self, tmp_path):
        cfg = write_config(tmp_path)
        body = "import linphot.cli, linphot.config\nlinphot.config.load(sys.argv[1])"
        assert loaded_scipy(body, str(cfg)) == "[]"

    def test_check_a_finished_run(self, finished_run):
        body = "from linphot import cli\nassert cli.main(['check', '--out', sys.argv[1]]) == 0"
        assert loaded_scipy(body, str(finished_run)) == "[]"

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
        commands.append(["calibrate", "--config", base, "--out", str(tmp_path / "cal")])
        body = "import json\nfrom linphot import cli\nfor args in json.loads(sys.argv[1]):\n    assert cli.main(args) == 0, args"
        assert loaded_scipy(body, json.dumps(commands)) == "[]"

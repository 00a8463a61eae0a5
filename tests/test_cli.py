import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
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
from linphot.files import CSV_BLOCK, read_ensemble_csv, read_pm_csv, write_ensemble_csv

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
CONFIG_KEYS = [f.name for f in fields(RunConfig)] + ["eta_max", "eta_count"]


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

    def test_default_eta_ladder(self):
        raw = {k: v for k, v in BASE.items() if k != "eta_series"}
        raw["eta_max"] = 0.5
        config = from_dict(raw)
        assert len(config.eta_series) == 10
        assert config.eta_series[0] == pytest.approx(0.025)
        assert config.eta_series[-1] == pytest.approx(0.5)
        assert len(from_dict({**raw, "eta_count": 4}).eta_series) == 4

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

    @pytest.mark.parametrize("count", [True, 2, 10.0])
    def test_eta_count_must_be_an_integer_of_at_least_three(self, count):
        raw = {k: v for k, v in BASE.items() if k != "eta_series"}
        with pytest.raises(ConfigError, match="eta_count"):
            from_dict({**raw, "eta_max": 0.5, "eta_count": count})

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
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(60)
        ens = VoltageEnsemble(
            samples=rng.normal(1000.0, 300.0, 500),
            eta=0.35,
            n_samples=500,
            seed=7,
        )
        path = tmp_path / "ens.csv"
        write_ensemble_csv(path, ens, extra_header={"config_sha256": "abc"})
        back = read_ensemble_csv(path)
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
            st.one_of(
                st.sampled_from([1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1]),
                st.integers(1, 3 * CSV_BLOCK),
            ),
            elements=st.one_of(
                st.sampled_from(EDGE_VALUES.tolist()),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
        )
    )
    @example(samples=np.resize(EDGE_VALUES, 1))
    @example(samples=np.resize(EDGE_VALUES, CSV_BLOCK - 1))
    @example(samples=np.resize(EDGE_VALUES, CSV_BLOCK))
    @example(samples=np.resize(EDGE_VALUES, CSV_BLOCK + 1))
    def test_sample_lines_are_savetxt_bytes(self, tmp_path_factory, samples):
        path = tmp_path_factory.mktemp("csv") / "ens.csv"
        write_ensemble_csv(
            path, VoltageEnsemble(samples=samples, eta=0.5, n_samples=samples.size, seed=1)
        )
        reference = io.StringIO()
        np.savetxt(reference, samples, fmt="%.17e")
        lines = path.read_text().splitlines(keepends=True)
        assert "".join(line for line in lines if not line.startswith("#")) == reference.getvalue()
        back = read_ensemble_csv(path)
        assert back.samples.tobytes() == samples.tobytes()  # bit for bit, signed zeros too

    # bytes cut from the end: the newline, inside the exponent, inside the
    # mantissa, and the whole last line "9.00000000000000000e+00\n"
    @pytest.mark.parametrize("cut", [1, 3, 10, 24])
    def test_truncated_file_rejected(self, tmp_path, cut):
        path = tmp_path / "ens.csv"
        write_ensemble_csv(path, VoltageEnsemble(samples=np.arange(10.0), eta=0.5, n_samples=10, seed=1))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(InvalidParameterError, match="truncated|malformed"):
            read_ensemble_csv(path)

    def test_check_rejects_truncated_dark_record(self, finished_run, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(finished_run, out)
        drop_last_line(out / "dark.csv")
        assert main(["check", "--out", str(out)]) == 2
        assert "truncated: header n_samples=10000, 9999 voltage lines" in capsys.readouterr().err

    def test_blind_calibrate_rejects_truncated_ensemble(self, finished_run, tmp_path, capsys):
        ens_dir = tmp_path / "ens"
        ens_dir.mkdir()
        for path in finished_run.glob("*.csv"):
            if path.name == "dark.csv" or path.name.startswith("ensemble_"):
                shutil.copy(path, ens_dir)
        drop_last_line(sorted(ens_dir.glob("ensemble_*.csv"))[-1])
        code = main(["calibrate", "--ensembles", str(ens_dir), "--out", str(tmp_path / "c")])
        assert code == 2
        assert "truncated: header n_samples=10000, 9999 voltage lines" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_non_finite_samples_rejected(self, tmp_path):
        path = tmp_path / "ens.csv"
        path.write_text("# eta=0.5\n1.0\nnan\n3.0\ninf\n")
        with pytest.raises(InvalidParameterError, match="2 of 4 samples are not finite"):
            read_ensemble_csv(path)

    def test_missing_eta_header_rejected(self, tmp_path):
        path = tmp_path / "ens.csv"
        path.write_text("# seed=1\n1.0\n2.0\n")
        with pytest.raises(InvalidParameterError, match="eta"):
            read_ensemble_csv(path)

    def test_legacy_gain_scale_header_is_ignored(self, tmp_path):
        path = tmp_path / "ens.csv"
        write_ensemble_csv(path, VoltageEnsemble(samples=np.arange(10.0), eta=0.5, n_samples=10, seed=1))
        legacy = tmp_path / "legacy.csv"
        legacy.write_text(path.read_text().replace("# n_samples=", "# gain_scale=2.0\n# n_samples="))
        assert "# gain_scale=2.0\n" in legacy.read_text()
        back = read_ensemble_csv(legacy)
        assert back.samples.tobytes() == read_ensemble_csv(path).samples.tobytes()
        assert (back.eta, back.seed, back.n_samples) == (0.5, 1, 10)

    def test_blind_calibrate_reports_missing_eta(self, tmp_path, capsys):
        for name in ("dark.csv", "ensemble_00.csv"):
            (tmp_path / name).write_text("# seed=1\n1.0\n2.0\n")
        code = main(["calibrate", "--ensembles", str(tmp_path), "--out", str(tmp_path / "c")])
        assert code == 2
        assert "eta" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()


class TestPmCsv:
    def test_reads_back_the_run_result(self, finished_run):
        pmf_hat, counts = read_pm_csv(finished_run / "pm.csv")
        metrics = json.loads((finished_run / "pm_metrics.json").read_text())
        assert counts.sum() == BASE["n_samples"]
        assert np.array_equal(pmf_hat, counts / counts.sum())
        assert counts @ np.arange(counts.size) / counts.sum() == metrics["mean_m_hat"]

    # bytes cut from the end: the last count, then inside the pmf value
    @pytest.mark.parametrize("cut", [2, 10])
    def test_cut_last_row_is_malformed(self, finished_run, tmp_path, cut):
        path = tmp_path / "pm.csv"
        path.write_bytes((finished_run / "pm.csv").read_bytes()[:-cut])
        with pytest.raises(InvalidParameterError, match="malformed row"):
            read_pm_csv(path)

    def test_dropped_last_row_is_truncated(self, finished_run, tmp_path):
        path = tmp_path / "pm.csv"
        shutil.copy(finished_run / "pm.csv", path)
        drop_last_line(path)
        with pytest.raises(InvalidParameterError, match="truncated: header n_samples=10000"):
            read_pm_csv(path)

    def test_rows_must_count_up_from_zero(self, tmp_path):
        path = tmp_path / "pm.csv"
        path.write_text("# n_samples=2\nm,pmf_hat,count\n0,0.5,1\n2,0.5,1\n")
        with pytest.raises(InvalidParameterError, match="row 1 is '2,0.5,1'"):
            read_pm_csv(path)

    def test_check_rejects_a_cut_pm_table(self, finished_run, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(finished_run, out)
        lines = (out / "pm.csv").read_text().splitlines(keepends=True)
        (out / "pm.csv").write_text("".join(lines[:-1]) + lines[-1][:6])
        assert main(["check", "--out", str(out)]) == 2
        assert f"malformed row: {out / 'pm.csv'}" in capsys.readouterr().err

class TestCheckCalibrationFile:
    def test_invalid_json_exits_2_naming_the_file(self, finished_run, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(finished_run, out)
        (out / "calibration.json").write_text("{")
        assert main(["check", "--out", str(out)]) == 2
        assert f"invalid JSON in {out / 'calibration.json'}" in capsys.readouterr().err

    def test_point_without_mean_v_exits_2_naming_the_file(self, finished_run, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(finished_run, out)
        doc = json.loads((out / "calibration.json").read_text())
        del doc["fit"]["points"][1]["mean_v"]
        (out / "calibration.json").write_text(json.dumps(doc))
        assert main(["check", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"calibration file is malformed: {out / 'calibration.json'}" in err
        assert "mean_v" in err


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
        (ensemble,) = finished_run.glob("reconstruction_eta_*.csv")
        args = ["reconstruct", "--input", str(ensemble), "--from-calibration", str(cal)]
        assert main(args + ["--out", str(tmp_path / "rec")]) == 2
        assert f"calibration file is malformed: {cal}" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()

    def test_file_with_the_removed_fit_keys_still_reads(self, finished_run, tmp_path):
        doc = json.loads((finished_run / "calibration.json").read_text())
        doc["fit"].update(gamma_bar_est=doc["fit"]["intercept"], r_squared=0.5)
        cal = tmp_path / "calibration.json"
        cal.write_text(json.dumps(doc))
        (ensemble,) = finished_run.glob("reconstruction_eta_*.csv")
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
        assert sha in result.files["dark"].read_text(encoding="utf-8")[:300]
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
        path = tmp_path / "three.csv"
        ens = VoltageEnsemble(
            samples=np.array([0.0, 0.0, 300.0]), eta=0.5, n_samples=3, seed=1
        )
        write_ensemble_csv(path, ens)
        assert main(["moments", "--input", str(path), "--order", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mean"] == pytest.approx(100.0)
        assert doc["central"]["mu2"] == pytest.approx(20000.0)

    def test_simulate_then_blind_calibrate_then_reconstruct(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n_samples": 20_000})
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
        assert (sim / "dark.csv").exists()
        assert main(["calibrate", "--ensembles", str(sim), "--out", str(sim)]) == 0
        doc = json.loads((sim / "calibration.json").read_text())
        assert doc["fit"]["valid"]
        assert doc["fit"]["intercept"] == pytest.approx(100.0, abs=12.0)
        rec = tmp_path / "rec"
        assert (
            main(
                [
                    "reconstruct",
                    "--input", str(sim / "ensemble_02_eta_0.500000.csv"),
                    "--from-calibration", str(sim / "calibration.json"),
                    "--dark", str(sim / "dark.csv"),
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
# suite runs with (PCG64 uniform, binomial, normal and gamma), which numpy
# may change between releases.
ARTIFACT_SHA256 = {
    "calibration.json": "ff9a917a7e463362cab62fa32394710eac26aa17e2c0d502a33b39d6a7118101",
    "config.json": "8eda591e739779df11b5006369ad862fff24dd806eca67b1bb12d53f19a19996",
    "dark.csv": "9464b2933d81f00bce8e54cf24545e7cc94c8eeffdc949398185c2bf12354388",
    "ensemble_00_eta_0.100000.csv": "a687a12da56f10f71f8f4fd6735847e8508006ebf8f450930e9998aea5ac4cc4",
    "ensemble_01_eta_0.300000.csv": "55f0d1170af15e7a67fbd88fa38fcd2043c72df81c9b09a65d4f19090affa91c",
    "ensemble_02_eta_0.500000.csv": "03bfe14419dd5ee3effa051a3dd53e1e263a69698385bbdcfac7273cb0c262c6",
    "pm.csv": "ddecbe3f84715c9938b67d621baa178d038de0f43fb2b2062be0697655c10c44",
    "pm_metrics.json": "f6aa26bbd1f32a1c23f9e121a62421b3ae3ca2e5c6224284912a3ba58261a8f2",
    "reconstruction_eta_0.500000.csv": "62c18e870caac9ac9a560110c06fe38542978110d5f5fb9411b7eeb1f579ef2f",
    "report.md": "1131181fb597c07ec4cc24ec4cbab2f67302a5bf836a5ed0663a660641ad3edb",
}


def test_artifacts_match_pinned_hashes(tmp_path):
    result = run_experiment(from_dict(BASE), tmp_path / "out")
    written = {path.name: path for path in result.files.values()}
    assert sorted(written) == sorted(ARTIFACT_SHA256)
    for name, path in written.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ARTIFACT_SHA256[name], name


# SHA-256 of calibration.json for BASE with the gain-scaling check on; the
# one pinned document that holds a GainScalingReport.
GAIN_SCALING_CALIBRATION_SHA256 = "1547881f0ebc01ab01a3c6d49780461a4b0a9f162a44a6bebdc5e17936ab93e7"


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
        assert names == ["dark.csv"] + sorted(p.name for p in run.glob("ensemble_*.csv"))
        for name in names:
            assert (sim / name).read_bytes() == (run / name).read_bytes(), name

    def test_calibrate_config_mode_writes_the_run_fit(self, run_dir, tmp_path):
        cfg, run = run_dir
        cal = tmp_path / "cal"
        assert main(["calibrate", "--config", str(cfg), "--out", str(cal)]) == 0
        doc = json.loads((cal / "calibration.json").read_text())
        run_doc = json.loads((run / "calibration.json").read_text())
        assert doc["fit"] == run_doc["fit"]
        assert doc["config_sha256"] == run_doc["config_sha256"]
        assert doc["dark_variance_subtracted"] == run_doc["dark_variance_subtracted"]

    def test_reconstruct_gives_the_run_pm_rows(self, run_dir, tmp_path):
        _, run = run_dir
        gamma = json.loads((run / "pm_metrics.json").read_text())["gamma_bar_used"]
        (ensemble,) = run.glob("reconstruction_eta_*.csv")
        rec = tmp_path / "rec"
        args = ["reconstruct", "--input", str(ensemble), "--gamma-bar", repr(gamma)]
        assert main(args + ["--dark", str(run / "dark.csv"), "--out", str(rec)]) == 0

        def rows(path):
            return [line for line in path.read_text().splitlines() if not line.startswith("#")]

        assert rows(rec / "pm.csv") == rows(run / "pm.csv")

    def test_reconstruct_from_calibration_gives_the_run_metrics(self, run_dir, tmp_path):
        _, run = run_dir
        (ensemble,) = run.glob("reconstruction_eta_*.csv")
        rec = tmp_path / "rec"
        args = ["reconstruct", "--input", str(ensemble), "--from-calibration"]
        args += [str(run / "calibration.json"), "--dark", str(run / "dark.csv")]
        assert main(args + ["--out", str(rec)]) == 0
        doc = json.loads((rec / "pm_metrics.json").read_text())
        run_doc = json.loads((run / "pm_metrics.json").read_text())
        assert doc["self_consistency"] == run_doc["self_consistency"]


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

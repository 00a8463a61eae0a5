import json

import numpy as np
import pytest

from linphot import ConfigError, InvalidParameterError, VoltageEnsemble, run_experiment
from linphot.cli import main
from linphot.config import (
    build_source,
    config_hash,
    from_dict,
    load,
)
from linphot.files import read_ensemble_csv, write_ensemble_csv

BASE = {
    "schema_version": 1,
    "source": {"kind": "poisson", "mean": 20.0},
    "gain": {"family": "gaussian", "gamma_bar": 100.0, "sigma": 2.0},
    "dark": {"sigma0": 10.0},
    "eta_series": [0.1, 0.3, 0.5],
    "n_samples": 10_000,
    "seed": 99,
}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    raw = json.loads(json.dumps(BASE))
    for key, value in (overrides or {}).items():
        raw[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


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
            gain_scale=2.0,
        )
        path = tmp_path / "ens.csv"
        write_ensemble_csv(path, ens, extra_header={"config_sha256": "abc"})
        back = read_ensemble_csv(path)
        assert np.array_equal(back.samples, ens.samples)  # %.17e round-trips
        assert back.eta == ens.eta
        assert back.seed == ens.seed
        assert back.gain_scale == ens.gain_scale
        header = path.read_text().splitlines()[0]
        assert header == "# eta=0.35"

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

    def test_blind_calibrate_reports_missing_eta(self, tmp_path, capsys):
        for name in ("dark.csv", "ensemble_00.csv"):
            (tmp_path / name).write_text("# seed=1\n1.0\n2.0\n")
        code = main(["calibrate", "--ensembles", str(tmp_path), "--out", str(tmp_path / "c")])
        assert code == 2
        assert "eta" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()


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
        assert doc["fit"]["gamma_bar_est"] == pytest.approx(100.0, abs=12.0)
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

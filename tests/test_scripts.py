"""Smoke tests: the experiment scripts in ``scripts/`` run at tiny sizes."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, args):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name] + args)
    return module.main()


def test_run_reference_experiment(monkeypatch, tmp_path, capsys):
    out = tmp_path / "reference"
    args = ["--out", str(out), "--n-samples", "10000", "--skip-scaling"]
    assert run_script(monkeypatch, "run_reference_experiment", args) == 0
    assert (out / "report.md").exists()
    assert "[PASS] calibration_valid" in capsys.readouterr().out


def test_sweep_gain_spread(monkeypatch, tmp_path):
    table = tmp_path / "spread.csv"
    args = ["--spreads", "0.02", "--n-samples", "2000", "--seeds", "1", "--csv", str(table)]
    assert run_script(monkeypatch, "sweep_gain_spread", args) == 0
    header, row = table.read_text().splitlines()
    assert header.startswith("sigma_over_gamma,")
    sigma, tv_mean, _, floor, _ = (float(x) for x in row.split(","))
    assert sigma == pytest.approx(0.02)
    assert 0.0 <= floor < tv_mean < 1.0

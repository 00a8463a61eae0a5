"""Smoke tests: the experiment scripts in ``scripts/`` run at tiny sizes, the
benchmark's span tracer finds every layer function it times, and every
benchmark workload is a valid config."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from linphot.config import from_dict
from linphot.pipeline import Models

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


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


# loads perfbench/tracer.py from its path without writing bytecode next to it
TRACER_PROBE = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
print(tracer.install(tracer.Tracer("t")))
"""


def test_benchmark_tracer_finds_every_layer_function():
    # a renamed or moved layer function would turn its per-layer metric
    # into null instead of failing the benchmark
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRACER_PROBE, str(ROOT / "perfbench" / "tracer.py")],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.fixture(scope="module")
def benchmark_runner():
    """perfbench/run.py, loaded from its path without writing bytecode next to it."""
    added = {"oracle", "tracer"} - set(sys.modules)  # run.py imports its neighbours by name
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        mp.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    for name in added:
        sys.modules.pop(name, None)
    return module


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
@pytest.mark.parametrize("name", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_every_benchmark_workload_is_a_valid_config(benchmark_runner, name, tiny):
    # a config change that the benchmark's own configs do not survive fails here, not in every benchmark run
    Models(from_dict(benchmark_runner.workload_config(name, 1, tiny=tiny)))

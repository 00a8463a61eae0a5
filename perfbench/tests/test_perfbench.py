"""Self-tests of the benchmark: oracle, metric names, smoke runs of each workload.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from linphot.loss import apply_bernoulli  # noqa: E402
from linphot.sources import make_poisson, make_thermal  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _max_abs_diff(source_spec, dist, eta):
    pm = apply_bernoulli(dist, eta).pmf
    q = oracle.detected_distribution(source_spec, eta).pmf(np.arange(pm.size))
    return float(np.max(np.abs(pm - q)))


@pytest.mark.parametrize(
    "spec, dist",
    [
        ({"kind": "poisson", "mean": 100.0}, make_poisson(100.0)),
        ({"kind": "thermal", "mean": 20.0}, make_thermal(20.0)),
    ],
)
def test_oracle_agrees_with_apply_bernoulli(spec, dist):
    assert _max_abs_diff(spec, dist, 0.5) <= 1e-12


def test_oracle_disagrees_with_apply_bernoulli_in_bright_light():
    # Documents the loss-channel defect: apply_bernoulli seeds each column
    # with eta**m, which underflows to 0 above ~1074 detected photons at
    # eta = 0.5.  The change that fixes the loss channel should invert this
    # test into an agreement to 1e-12.
    assert _max_abs_diff({"kind": "poisson", "mean": 1e4}, make_poisson(1e4), 0.5) > 1e-3


def test_tv_to_oracle_counts_the_tail():
    dist = oracle.detected_distribution({"kind": "poisson", "mean": 2.0}, 1.0)
    assert oracle.tv_to_oracle(np.array([1.0]), dist) == pytest.approx(1.0 - dist.pmf(0))
    exact = dist.pmf(np.arange(60))
    assert oracle.tv_to_oracle(exact, dist) < 1e-12


def test_missing_fit_is_one_failed_check(tmp_path):
    (tmp_path / "calibration.json").write_text(json.dumps({"fit": None, "fit_error": "too few points"}))
    (tmp_path / "pm_metrics.json").write_text(json.dumps({"tv_distance": 0.0}))
    (tmp_path / "pm.csv").write_text("m,p\n0,1.0\n")
    config = {"source": {"kind": "poisson", "mean": 0.0}, "eta_series": [0.5]}
    checks, tv = oracle.check_run_dir(tmp_path, config)
    assert tv == pytest.approx(0.0)
    assert [(name, ok) for name, ok, _ in checks] == [
        ("tv_distance agrees with oracle", True),
        ("calibration fit present", False),
    ]


def test_metric_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


def test_missing_function_is_unmeasured():
    metrics = tracer.layer_metrics([{"command": "run", "missing": ["loss.apply_bernoulli"], "spans": []}])
    assert metrics["loss.apply_bernoulli_s"] == (None, "s")
    assert metrics["loss.mass_defect"][0] is None
    assert metrics["files.write_s"] == (0, "s")


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run(workload):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_run():
    proc = _bench("--workload", "reference", "--seed", "1", "--seconds", "1", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] is not None for v in result["metrics"].values())
    assert result["metrics"]["calibration.gain_scaling_shots"]["value"] == 3 * 10 * 10_000
    assert result["metrics"]["files.write_calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "reference", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

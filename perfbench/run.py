#!/usr/bin/env python3
"""End-to-end benchmark of the ``linphot`` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reference --seed 1 --seconds 30 --trace 0

Each iteration is ``linphot run --config W.json --out D`` followed by
``linphot check --out D``, each in a fresh interpreter, one child process at
a time.  Every run directory is checked against closed-form oracles
(``oracle.py``).  With ``--trace 0`` the end-to-end metrics are reported;
with ``--trace 1`` each iteration is run once untraced and once under the
span tracer (``tracer.py``) and the per-layer metrics are reported.  The
last line of standard output is one JSON object; the lines before it give
each metric's median, maximum and sample count, and every check outcome.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
import tracer

HERE = Path(__file__).resolve().parent
ETA_LADDER = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]
GAUSSIAN_GAIN = {"family": "gaussian", "gamma_bar": 100.0, "sigma": 2.0}

# The run configs; --seed sets "seed".  "tiny" holds the overrides of the
# self-test smoke runs, which only exercise the harness.
WORKLOADS = {
    "reference": {
        "config": {
            "source": {"kind": "poisson", "mean": 100.0},
            "gain": GAUSSIAN_GAIN,
            "n_samples": 100_000,
            "gain_scale_factors": [0.5, 2.0],
        },
        "tiny": {"n_samples": 10_000},
    },
    "bright": {
        "config": {
            "source": {"kind": "poisson", "mean": 1400.0},
            "gain": GAUSSIAN_GAIN,
            "n_samples": 30_000,
        },
        "tiny": {"source": {"kind": "poisson", "mean": 1000.0}, "n_samples": 2000},
    },
    "thermal": {
        "config": {
            "source": {"kind": "thermal", "mean": 100.0},
            "gain": {"family": "gamma", "gamma_bar": 100.0, "sigma": 5.0},
            "n_samples": 10_000,
            "tail_epsilon": 1e-40,
        },
        "tiny": {"source": {"kind": "thermal", "mean": 50.0}, "n_samples": 2000, "tail_epsilon": 1e-12},
    },
}

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "check_pass_frac": "frac",
}
SETUP_SAMPLES = 3  # set-up probes at the start of a run, and at least as many at its end
TIME_LIMIT_S = 150.0  # every run must end well inside 180 s
SETUP_PROBE = (
    "import sys, linphot.cli, linphot.config; linphot.config.load(sys.argv[1])"
)


def workload_config(name: str, seed: int, tiny: bool = False) -> dict:
    cfg = {
        "schema_version": 1,
        "dark": {"sigma0": 10.0},
        "eta_series": ETA_LADDER,
        **WORKLOADS[name]["config"],
        "seed": seed,
    }
    if tiny:
        cfg.update(WORKLOADS[name]["tiny"])
    return cfg


class Harness:
    """Launches the child processes of one benchmark run and keeps its tallies."""

    def __init__(self, root: Path, work: Path, config: dict, run_id: str, deadline: float):
        self.root = root
        self.work = work
        self.config = config
        self.run_id = run_id
        self.deadline = deadline
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(config, indent=2))
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.log = work / "children.log"
        self.attempted = 0
        self.failed = 0
        self.checks: list = []

    def child(self, args: list) -> tuple[int, float, float]:
        """Run one child to completion: (exit code, wall s, peak RSS in MB)."""
        self.attempted += 1
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(self.log, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.root, env=self.env,
                stdout=log, stderr=subprocess.STDOUT,
            )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            self.failed += 1
        return code, wall, usage.ru_maxrss * 1024 / 1e6

    def setup_probe(self) -> float:
        return self.child(["-c", SETUP_PROBE, str(self.config_path)])[1]

    def iteration(self, index: int, traced: bool) -> dict:
        """``linphot run`` then ``linphot check``; checks the run directory."""
        out = self.work / f"out{index}"
        commands = {
            "run": ["run", "--config", str(self.config_path), "--out", str(out)],
            "check": ["check", "--out", str(out)],
        }
        wall = rss = 0.0
        traces = []
        artifact = None
        for name, argv in commands.items():
            if traced:
                spans = self.work / f"spans{index}_{name}.json"
                tag = f"{self.run_id}-i{index}-{name}"
                args = [str(HERE / "tracer.py"), str(spans), tag, "--", *argv]
            else:
                args = ["-m", "linphot.cli", *argv]
            code, seconds, peak = self.child(args)
            wall += seconds
            rss = max(rss, peak)
            self.checks.append((f"linphot {name} exit status 0", code == 0, f"exit {code}"))
            if traced and spans.exists():
                traces.append(json.loads(spans.read_text()))
            if name == "run":
                artifact = sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) / 1e6
        checks, tv_oracle = oracle.check_run_dir(out, self.config)
        self.checks += checks
        shutil.rmtree(out, ignore_errors=True)
        return {"wall": wall, "rss": rss, "artifact": artifact, "traces": traces, "tv_oracle": tv_oracle}

    def loop(self, until: float, step, minimum: int = 1) -> list:
        """Call ``step(i)`` at least ``minimum`` times, then while the next call
        is projected to end by ``until`` (a ``time.perf_counter()`` value)."""
        results = []
        last = 0.0
        while len(results) < minimum or time.perf_counter() + last <= min(until, self.deadline):
            t = time.perf_counter()
            results.append(step(len(results)))
            last = time.perf_counter() - t
        return results


def _medians(samples: dict) -> dict:
    """Print each metric's median, maximum and sample count; return the medians.

    ``samples`` maps a metric name to ``(values, unit)``; ``None`` values are
    unmeasured.  Returns ``{name: (median or None, unit)}``.
    """
    metrics = {}
    for name, (values, unit) in samples.items():
        known = [v for v in values if v is not None]
        if not known:
            print(f"{name:<34} unmeasured")
            metrics[name] = (None, unit)
            continue
        median = statistics.median(known)
        print(f"{name:<34} median {median:.6g} {unit}  max {max(known):.6g} {unit}  (n={len(known)})")
        metrics[name] = (median, unit)
    return metrics


def measure(h: Harness, seconds: float) -> dict:
    """Set-up probes at the start, iterations, then set-up probes in the time left.

    Spreading the probes over the run averages out the host's drift in speed.
    """
    h.setup_probe()  # warm-up: compiles bytecode and fills the page cache
    end = time.perf_counter() + seconds
    setup = [h.setup_probe() for _ in range(SETUP_SAMPLES)]
    reserve = SETUP_SAMPLES * statistics.median(setup)
    iters = h.loop(end - reserve, lambda i: h.iteration(i, traced=False))
    setup += h.loop(end, lambda i: h.setup_probe(), minimum=SETUP_SAMPLES)
    passed = sum(ok for _, ok, _ in h.checks)
    failed = len(h.checks) - passed
    print(f"{'check_fail_frac':<34} {failed / len(h.checks):.6g} ({failed} of {len(h.checks)} checks failed)")
    samples = {
        "run_s": [it["wall"] for it in iters],
        "setup_s": setup,
        "peak_rss_mb": [it["rss"] for it in iters],
        "artifact_mb": [it["artifact"] for it in iters],
        "check_pass_frac": [passed / len(h.checks)],
    }
    return _medians({name: (values, END_TO_END_UNITS[name]) for name, values in samples.items()})


def trace(h: Harness, seconds: float) -> dict:
    def pair(i):
        return h.iteration(2 * i, traced=False), h.iteration(2 * i + 1, traced=True)

    per_iter = []
    for plain, traced in h.loop(time.perf_counter() + seconds, pair):
        layers = tracer.layer_metrics(traced["traces"])
        layers["reconstruction.tv_oracle"] = (traced["tv_oracle"], "frac")
        layers["trace.overhead_s"] = (traced["wall"] - plain["wall"], "s")
        per_iter.append(layers)
    return _medians(
        {name: ([layers[name][0] for layers in per_iter], unit) for name, (_, unit) in per_iter[0].items()}
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="linphot end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes (self-tests only)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "linphot" / "cli.py").is_file():
        print(f"error: no linphot source under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    started = time.perf_counter()
    config = workload_config(args.workload, args.seed, tiny=args.tiny)
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    work = root / ".perfbench_work" / run_id
    work.mkdir(parents=True, exist_ok=True)
    try:
        h = Harness(root, work, config, run_id, deadline=started + TIME_LIMIT_S)
        print(f"workload={args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
        if args.trace:
            metrics = trace(h, args.seconds)
        else:
            metrics = measure(h, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    outcomes = {}
    for name, ok, detail in h.checks:
        tally = outcomes.setdefault(name, [0, 0, ""])
        tally[0] += ok
        tally[1] += 1
        if not ok:
            tally[2] = detail
    for name, (passed, total, detail) in outcomes.items():
        verdict = "PASS" if passed == total else "FAIL"
        print(f"[{verdict}] {name} ({passed}/{total})" + (f": {detail}" if detail else ""))
    result = {
        "correct": all(ok for _, ok, _ in h.checks),
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {
            name: {"value": value, "unit": unit} if value is not None
            else {"value": None, "unit": unit, "unmeasured": True}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

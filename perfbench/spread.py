#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's median and spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --runs 10 --trace-runs 2 --json perfbench/baseline.json

For every workload in BENCHMARK.json this runs ``run.py`` once per seed
(seeds 1..runs, ``run_seconds`` each), then prints every end-to-end metric
by name and unit with its median, quartiles and spread (quartile distance
over median, as a share), next to its bound, and the check outcomes of the
first run.  ``--trace-runs N`` adds traced runs on seeds 1..N and prints the
per-layer medians.  ``--json`` writes all values, with the program, the
machine and this command, in the layout of ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

SPEC = json.loads(Path("BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else None, "values": values,
    }


def _round(value):
    """Seven significant digits, so the file stays readable."""
    if isinstance(value, list):
        return [_round(v) for v in value]
    return float(f"{value:.7g}") if isinstance(value, float) else value


def _program() -> str:
    init = Path("src/linphot/__init__.py").read_text()
    version = next(line.split('"')[1] for line in init.splitlines() if line.startswith("__version__"))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return f"linphot {version} at commit {commit}"


def write_json(path: str, report: dict) -> None:
    """Write ``report`` in the layout of baseline.json: one line per metric."""
    head = {
        "program": _program(),
        "machine": f"{os.cpu_count()} CPUs, {platform.platform()}, Python {platform.python_version()}, "
                   f"numpy {numpy.__version__}, scipy {scipy.__version__}",
        "command": shlex.join(["python3", *sys.argv]),
        "run_seconds": SPEC["run_seconds"],
    }
    lines = ["{"] + [f" {json.dumps(k)}: {json.dumps(v)}," for k, v in head.items()] + [' "workloads": {']
    for wi, (workload, entry) in enumerate(report.items()):
        lines.append(f"  {json.dumps(workload)}: {{")
        for key in ("seeds", "correct", "child_processes"):
            lines.append(f"   {json.dumps(key)}: {json.dumps(entry[key])},")
        for si, section in enumerate(("end_to_end", "per_layer")):
            items = [
                f"    {json.dumps(name)}: {json.dumps({k: _round(v) for k, v in stats.items()})}"
                for name, stats in entry[section].items()
            ]
            lines += [f'   "{section}": {{', ",\n".join(items), "   }" + ("," if si == 0 else "")]
        lines.append("  }" + ("," if wi < len(report) - 1 else ""))
    lines += [" }", "}"]
    text = "\n".join(line for line in lines if line) + "\n"
    json.loads(text)
    Path(path).write_text(text)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--json", help="also write all values to this file, as baseline.json is")
    args = parser.parse_args()

    seeds = list(range(1, args.runs + 1))
    report = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        results = []
        for seed in seeds:
            result, lines = bench(workload, seed, 0)
            results.append(result)
            if seed == 1:
                checks = [line for line in lines if line.startswith("[")]
        entry = {
            "seeds": seeds,
            "correct": [r["correct"] for r in results],
            "child_processes": {
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
            },
            "end_to_end": {},
            "per_layer": {},
        }
        print(f"== {workload}: {len(results)} runs, {SPEC['run_seconds']} s each; "
              f"correct in {sum(entry['correct'])}/{len(results)}; "
              f"{entry['child_processes']['failed']} of {entry['child_processes']['attempted']} "
              f"child processes failed")
        for m in SPEC["end_to_end"]:
            stats = summarize([r["metrics"][m["name"]]["value"] for r in results])
            entry["end_to_end"][m["name"]] = {"unit": m["unit"], **stats}
            spread = stats["spread"]
            verdict = ("steady" if spread <= m["bound"] / 3 else
                       "within bound" if spread <= m["bound"] else "WIDER THAN BOUND")
            print(f"  {m['name']:<16} median {stats['median']:.6g} {m['unit']:<5} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}  spread {spread:.3f} "
                  f"(bound {m['bound']}) {verdict}")
        print("  checks of the first run:")
        for line in checks:
            print(f"    {line}")
        traced = [bench(workload, seed, 1)[0] for seed in seeds[: args.trace_runs]]
        for m in SPEC["per_layer"] if traced else []:
            known = [r["metrics"][m["name"]]["value"] for r in traced]
            known = [v for v in known if v is not None]
            entry["per_layer"][m["name"]] = {
                "unit": m["unit"], "median": statistics.median(known) if known else None,
                "values": known,
            }
            value = f"{statistics.median(known):.6g}" if known else "unmeasured"
            print(f"  {m['name']:<34} {value} {m['unit']}  (n={len(known)})")
        report[workload] = entry
    if args.json:
        write_json(args.json, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the reference coherent-light experiment end to end.

Coherent source with 100 mean photons, gaussian gain (mean response 100,
2 percent spread), baseline noise at a tenth of the gain, ten efficiency
settings up to 0.5, and the 0.5x / 2x output-gain scaling check.  Writes
all artifacts (ensembles, calibration.json, pm.csv, report.md) to --out.
"""

import argparse
import sys
from pathlib import Path

from linphot.config import from_dict
from linphot.pipeline import run_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/reference", help="output directory")
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--n-samples", type=int, default=100_000, help="shots per eta point")
    parser.add_argument(
        "--skip-scaling", action="store_true", help="skip the slow output-gain scaling check"
    )
    args = parser.parse_args()

    config = from_dict(
        {
            "schema_version": 1,
            "source": {"kind": "poisson", "mean": 100.0},
            "gain": {"family": "gaussian", "gamma_bar": 100.0, "sigma": 2.0},
            "dark": {"sigma0": 10.0},
            "eta_series": [0.05 + 0.05 * i for i in range(10)],
            "n_samples": args.n_samples,
            "seed": args.seed,
            "gain_scale_factors": [] if args.skip_scaling else [0.5, 2.0],
            "reconstruction_n_samples": 10 * args.n_samples,
        }
    )
    result = run_experiment(config, Path(args.out))
    print(f"wrote {result.files['report']}")
    ok = True
    for name, verdict in result.verdicts.items():
        if verdict is None:
            continue
        print(f"[{'PASS' if verdict else 'FAIL'}] {name}")
        ok = ok and verdict
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

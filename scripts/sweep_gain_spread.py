#!/usr/bin/env python3
"""Map reconstruction quality against the relative gain spread.

For each sigma/gamma value the script rebins simulated ensembles at the
true mean response and reports the total-variation distance to the exact
detected-photon PMF, next to the infinite-sample misassignment floor from
the gaussian bin-overlap oracle.  This is the empirical answer to "how
narrow does the single-photon response need to be": there is no sharp
cutoff, the table shows the degradation curve.  It needs the ``test``
extra (``pip install -e '.[test]'``): the floor's oracle,
``expected_rebinned_pmf``, imports scipy, which the package itself does
not depend on.
"""

import argparse
import sys

import numpy as np

from linphot import (
    DarkNoiseModel,
    apply_bernoulli,
    compare,
    expected_rebinned_pmf,
    make_gain,
    make_poisson,
    rebin,
    simulate_ensemble,
    total_variation,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mean-n", type=float, default=50.0)
    parser.add_argument("--eta", type=float, default=0.5)
    parser.add_argument("--gamma-bar", type=float, default=100.0)
    parser.add_argument("--sigma0-rel", type=float, default=0.1, help="sigma0 / gamma_bar")
    parser.add_argument(
        "--spreads",
        type=float,
        nargs="+",
        default=[0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5],
        help="sigma / gamma_bar values to scan",
    )
    parser.add_argument("--n-samples", type=int, default=200_000)
    parser.add_argument("--seeds", type=int, default=5, help="seeds averaged per point")
    parser.add_argument("--csv", help="optional path for a CSV copy of the table")
    args = parser.parse_args()

    source = make_poisson(args.mean_n)
    dark = DarkNoiseModel(args.sigma0_rel * args.gamma_bar)
    detected = apply_bernoulli(source, args.eta)
    rows = []
    print(f"# source=poisson({args.mean_n:g}) eta={args.eta:g} gamma_bar={args.gamma_bar:g}")
    print(f"{'sigma/gamma':>12} {'TV (avg)':>10} {'TV (sd)':>9} {'floor':>10} {'underflow':>10}")
    for rel in args.spreads:
        gain = make_gain("gaussian", args.gamma_bar, rel * args.gamma_bar)
        floor = total_variation(
            expected_rebinned_pmf(detected, gain, dark, args.gamma_bar), detected.pmf
        )
        tvs, uf = [], []
        for seed in range(args.seeds):
            ens = simulate_ensemble(source, args.eta, gain, dark, args.n_samples, seed=seed)
            result = rebin(ens, args.gamma_bar)
            tvs.append(compare(result, detected).tv_distance)
            uf.append(result.underflow_fraction)
        rows.append((rel, np.mean(tvs), np.std(tvs), floor, np.mean(uf)))
        print(
            f"{rel:12.3f} {rows[-1][1]:10.5f} {rows[-1][2]:9.5f} "
            f"{floor:10.2e} {rows[-1][4]:10.2e}"
        )
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("sigma_over_gamma,tv_mean,tv_sd,misassignment_floor,underflow\n")
            for row in rows:
                fh.write(",".join(f"{x:.8e}" for x in row) + "\n")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

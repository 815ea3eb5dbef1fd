#!/usr/bin/env python3
"""Compare mean imbalance across design families at matched redundancy.

Block and clustering designs never share an n (n = d^2 - d + 1 vs d | n), so
the comparison runs block vs cyclic at the block design's n, and cyclic vs
clustering at the next multiple of d, all on paired seeds.

Usage: python scripts/fig_design_comparison.py [--d 3 5] [--trials 20000]
       [--seed 2] [--out fig_design_comparison.csv]
"""

import argparse
import sys

from storagebalance.cli import ExperimentConfig, run_simulate
from storagebalance.metrics import rows_to_csv


def run() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, nargs="+", default=[3, 5])
    ap.add_argument("--trials", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--out", default="fig_design_comparison.csv")
    args = ap.parse_args()

    rows = []
    for d in args.d:
        nb = d * d - d + 1
        nc = d * (nb // d + 1)
        # each pair shares k, so run_simulate solves both designs on one draw
        for kinds, n in ((["block_design", "cyclic"], nb), (["cyclic", "clustering"], nc)):
            rows += run_simulate(ExperimentConfig(
                kinds=kinds, n=n, m=1, d_values=[d], r=1, sigma_specs=[{"fraction_of_n": 0.8}],
                trials=args.trials, master_seed=args.seed,
            ))
    with open(args.out, "w") as fh:
        fh.write(rows_to_csv(rows))
    print(f"wrote {args.out}")
    for row in rows:
        print(f"  {row.kind:<13} n={row.n:<3} d={row.d}: mean imbalance {row.imbalance.mean:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())

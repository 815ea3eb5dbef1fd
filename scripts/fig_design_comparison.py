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

from storagebalance.allocation import build_block_design, build_clustering, build_cyclic
from storagebalance.metrics import ExperimentRow, estimate_metrics, rows_to_csv, t_star_series


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
        # each pair shares k, so one call solves both on one draw
        for pair in (
            [build_block_design(d), build_cyclic(nb, d)],
            [build_cyclic(nc, d), build_clustering(nc, d)],
        ):
            sigma = 0.8 * pair[0].n
            series = t_star_series(pair, args.trials, args.seed)
            for alloc, t_stars in zip(pair, series):
                p, imb = estimate_metrics(alloc, sigma, args.trials, args.seed, t_stars)
                rows.append(
                    ExperimentRow(
                        kind=alloc.kind, n=alloc.n, k=alloc.k, d=alloc.d, r=alloc.r,
                        sigma=sigma, trials=args.trials, seed=args.seed, p=p, imbalance=imb,
                    )
                )
    with open(args.out, "w") as fh:
        fh.write(rows_to_csv(rows))
    print(f"wrote {args.out}")
    for row in rows:
        print(f"  {row.kind:<13} n={row.n:<3} d={row.d}: mean imbalance {row.imbalance.mean:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())

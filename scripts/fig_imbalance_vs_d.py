#!/usr/bin/env python3
"""Sweep the redundancy level d for a cyclic design and tabulate P_sigma and
the mean imbalance factor (the 1/d-decay picture).

Writes a plot-ready CSV; defaults reproduce the n=100, sigma=0.8n setup.

Usage: python scripts/fig_imbalance_vs_d.py [--n 100] [--trials 100000]
       [--seed 1] [--out fig_imbalance_vs_d.csv]
"""

import argparse
import json
import os
import sys
import tempfile

from storagebalance.cli import main as cli_main


def run() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--d-max", type=int, default=5)
    ap.add_argument("--trials", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="fig_imbalance_vs_d.csv")
    args = ap.parse_args()

    config = {
        "kind": "cyclic",
        "n": args.n,
        "d": list(range(1, args.d_max + 1)),
        "sigma": {"fraction_of_n": 0.8},
        "trials": args.trials,
        "master_seed": args.seed,
        "outputs": [{"format": "csv", "path": args.out}],
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        code = cli_main(["simulate", "--config", path])
    if code == 0:
        print(f"wrote {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(run())

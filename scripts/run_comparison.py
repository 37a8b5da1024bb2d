#!/usr/bin/env python3
"""Full desk-scale comparison: five-fold cross-validation of every fusion
method over several seeds, printing per-seed tables and the grand means."""

import argparse

import numpy as np

from kpff.config import RunConfig
from kpff.harness import comparison_table, crossval
from kpff.net import FUSION_METHODS


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="0,1,2,3,4")
    ap.add_argument("--max-epochs", type=int, default=40)
    ap.add_argument("--lr", type=float, default=3e-3)
    ap.add_argument("--dropout-p", type=float, default=0.1)
    args = ap.parse_args()

    means = {m: [] for m in FUSION_METHODS}
    for seed in (int(s) for s in args.seeds.split(",")):
        cfg = RunConfig(seed=seed, max_epochs=args.max_epochs, lr=args.lr,
                        dropout_p=args.dropout_p, val_interval=10)
        report, _, wall = crossval(cfg, FUSION_METHODS)
        print(f"--- seed {seed} ({wall:.0f}s) ---")
        print(comparison_table(report))
        for m in FUSION_METHODS:
            means[m].append(report["methods"][m]["mean_final_acc"])

    print("\n=== mean over seeds ===")
    for m in FUSION_METHODS:
        print(f"{m:<13} {100 * np.mean(means[m]):6.2f}%  (+/- {100 * np.std(means[m]):.2f})")


if __name__ == "__main__":
    main()

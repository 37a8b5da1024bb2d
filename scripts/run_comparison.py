#!/usr/bin/env python3
"""Full desk-scale comparison: five-fold cross-validation of every fusion
method over several seeds, printing per-seed tables and the grand means."""

import argparse

import numpy as np

from kpff.cli import comma_list, positive_int
from kpff.config import FieldError, RunConfig
from kpff.harness import comparison_table, crossval
from kpff.net import FUSION_METHODS


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=comma_list(int), default=[0, 1, 2, 3, 4])
    ap.add_argument("--max-epochs", type=positive_int, default=40)
    ap.add_argument("--lr", type=float, default=3e-3)
    ap.add_argument("--dropout-p", type=float, default=0.1)
    args = ap.parse_args(argv)
    try:  # every config checked before the first run
        configs = [RunConfig(seed=seed, max_epochs=args.max_epochs, lr=args.lr,
                             dropout_p=args.dropout_p, val_interval=10) for seed in args.seeds]
    except FieldError as exc:
        ap.error(f"argument --{exc.fields[0].replace('_', '-')}: {exc}")

    means = {m: [] for m in FUSION_METHODS}
    for cfg in configs:
        report, _, wall = crossval(cfg, FUSION_METHODS)
        print(f"--- seed {cfg.seed} ({wall:.0f}s) ---")
        print(comparison_table(report))
        for m in FUSION_METHODS:
            means[m].append(report["methods"][m]["mean_final_acc"])

    print("\n=== mean over seeds ===")
    for m in FUSION_METHODS:
        print(f"{m:<13} {100 * np.mean(means[m]):6.2f}%  (+/- {100 * np.std(means[m]):.2f})")


if __name__ == "__main__":
    main()

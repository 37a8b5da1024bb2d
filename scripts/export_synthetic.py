#!/usr/bin/env python3
"""Write the synthetic dataset to disk as PGM files (one directory per
class), so the `--data-dir` ingestion path can be exercised end to end."""

import argparse
from pathlib import Path

from kpff.cli import int_at_least, positive_int
from kpff.data import generate_synthetic, write_pnm


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out", type=Path)
    ap.add_argument("--per-class", type=positive_int, default=25)
    ap.add_argument("--size", type=int_at_least(8), default=16)  # generate_synthetic's least
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    # a used directory would mix two exports, which load_image_dir reads as one
    if args.out.exists() and (not args.out.is_dir() or any(args.out.iterdir())):
        ap.error(f"{args.out}: the output must not exist yet, or be an empty directory")
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file on the way to it, or no permission
        ap.error(f"{args.out}: cannot make the output directory: {exc.strerror}")

    ds = generate_synthetic(per_class=args.per_class, size=args.size, seed=args.seed)
    counters = {}
    for img, label in zip(ds.images, ds.labels):
        name = ds.class_names[label]
        d = args.out / name
        d.mkdir(exist_ok=True)
        k = counters.get(name, 0)
        counters[name] = k + 1
        write_pnm(d / f"{name}_{k:03d}.pgm", img)
    print(f"wrote {len(ds)} images under {args.out}")


if __name__ == "__main__":
    main()

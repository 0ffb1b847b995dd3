#!/usr/bin/env python3
"""Empirical supremum of the norm-to-testing ratio rho over random
instances, per (dimension, band radius, depth) cell.

Writes a CSV with one row per cell and prints it.  Exits 2 on a bad
argument, 1 without a CSV when a sample's rho is NaN.
"""
import argparse
import csv
import math
import sys

import numpy as np

from haarlab import (MeasureGrid, build_lattice, induce, random_band,
                     testing_constants)

DEFAULT_CELLS = "1,0,3 1,1,3 1,1,4 1,2,4 2,1,2"


def sample_rho(dim, r, depth, seed):
    lattice = build_lattice(dim, 0, -depth)
    rng_mu = np.random.default_rng(seed * 3 + 1)
    rng_nu = np.random.default_rng(seed * 3 + 2)
    mu = MeasureGrid(lattice, np.exp(rng_mu.standard_normal(lattice.n_leaves)))
    nu = MeasureGrid(lattice, np.exp(rng_nu.standard_normal(lattice.n_leaves)))
    t = induce(random_band(lattice, r, seed=seed), mu, nu)
    return testing_constants(t, r)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--cells", default=DEFAULT_CELLS,
                   help="space-separated dim,r,depth triples")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--out", default="ratio_table.csv")
    args = p.parse_args(argv)
    if args.samples < 1:
        p.error(f"--samples must be at least 1, got {args.samples}")
    cells = []
    for cell in args.cells.split():
        try:
            dim, r, depth = (int(x) for x in cell.split(","))
        except ValueError:
            p.error(f"--cells: {cell!r} is not a dim,r,depth triple of integers")
        try:  # the instance errors only the library detects, such as r -1 or dim 0
            random_band(build_lattice(dim, 0, -depth), r, seed=0)
        except ValueError as exc:
            p.error(f"--cells {cell}: {exc}")
        cells.append((dim, r, depth))
    if not cells:
        p.error("--cells names no cell")

    rows = []
    for dim, r, depth in cells:
        best_rho, best_seed, best = -1.0, -1, None
        for seed in range(args.samples):
            rep = sample_rho(dim, r, depth, seed)
            if math.isnan(rep.rho):
                print(f"error: N={dim} r={r} depth={depth}: rho is NaN at seed {seed}",
                      file=sys.stderr)
                return 1
            if rep.rho > best_rho:
                best_rho, best_seed, best = rep.rho, seed, rep
        rows.append([dim, r, depth, args.samples, best_seed, best.norm,
                     best.c_direct_local, best.c_adjoint_local, best.c_diag,
                     best_rho])
        print(f"N={dim} r={r} depth={depth}: sup rho = {best_rho:.6f} "
              f"(seed {best_seed})")
    header = ["N", "r", "depth", "samples", "argmax_seed", "norm",
              "c_direct_local", "c_adjoint_local", "c_diag", "rho"]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

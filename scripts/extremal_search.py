#!/usr/bin/env python3
"""Hill-climbing search for instances with a large norm-to-testing ratio.

Writes a replayable JSON artifact; replay it with
`haarlab --replay artifact.json`.
"""
import argparse
import json
import sys

from haarlab import SearchConfig, build_lattice, extremal_search, random_band


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--root-amplitude", type=float, default=0.0)
    p.add_argument("--out", default="artifact.json")
    args = p.parse_args(argv)
    if args.depth < 1:
        p.error(f"--depth must be at least 1, got {args.depth}")
    if args.iterations < 0:
        p.error(f"--iterations must be non-negative, got {args.iterations}")
    try:  # the instance errors only the library detects, such as --r -1 or --dim 0
        random_band(build_lattice(args.dim, 0, -args.depth), args.r, seed=args.seed,
                    root_amplitude=args.root_amplitude)
    except ValueError as exc:
        p.error(str(exc))

    config = SearchConfig(dim=args.dim, top_level=0, leaf_level=-args.depth,
                          r=args.r, seed=args.seed,
                          iterations=args.iterations,
                          root_amplitude=args.root_amplitude)
    result = extremal_search(config)
    print(f"rho: {result.history[0]:.6f} -> {result.rho:.6f} "
          f"after {args.iterations} steps")
    with open(args.out, "w") as fh:
        json.dump(result.to_artifact(), fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

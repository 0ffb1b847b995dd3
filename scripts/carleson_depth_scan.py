#!/usr/bin/env python3
"""Greedy maximization of the Carleson embedding constant on deepening
1D trees.  The constant is nondecreasing in depth and stays below 4.
"""
import argparse
import sys

from haarlab import greedy_embedding_sequence


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--min-depth", type=int, default=3)
    p.add_argument("--max-depth", type=int, default=10)
    p.add_argument("--iterations", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if args.min_depth < 1:
        p.error(f"--min-depth must be at least 1, got {args.min_depth}")
    if args.min_depth > args.max_depth:
        p.error(f"--min-depth {args.min_depth} exceeds --max-depth {args.max_depth}")
    if args.iterations < 0:
        p.error(f"--iterations must be non-negative, got {args.iterations}")

    print("depth embedding_constant")
    seq = None
    for depth in range(args.min_depth, args.max_depth + 1):
        seq, const = greedy_embedding_sequence(depth, seed=args.seed,
                                               iterations=args.iterations,
                                               init=seq)
        print(f"{depth:5d} {const:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

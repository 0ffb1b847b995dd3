#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the results of every workload at
the default workload seed (0):

    python3 perfbench/reference.py [--workload NAME ...]

Runs ROUNDS[name] rounds of each workload, untimed and untraced, and
stores each op's reference entry (workloads.Workload.reference_entry).
A benchmark run at seed 0 compares every op of those rounds against it;
later rounds get the invariant checks only.  An op that fails its checks
aborts the regeneration, so a wrong result is never stored.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import worker     # noqa: E402  (needs src/ on the path)
import workloads  # noqa: E402

# More rounds than one 25 s run reaches on a 2-core machine.
ROUNDS = {"sweep": 2000, "search": 80, "verify_large": 40, "carleson_scan": 50}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=sorted(ROUNDS),
                   help="regenerate only these workloads (default: all)")
    args = p.parse_args(argv)

    try:
        with open(worker.REFERENCE_PATH) as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        stored = {"seed": worker.DEFAULT_SEED, "rounds": {}, "workloads": {}}
    for table in (stored["rounds"], stored["workloads"]):
        for name in set(table) - set(ROUNDS):
            del table[name]
    for name in args.workload or sorted(ROUNDS):
        w = workloads.WORKLOADS[name]
        os.makedirs(worker.OUT_ROOT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=worker.OUT_ROOT) as out_dir:
            _, failures, entries = worker.run_loop(
                w, worker.DEFAULT_SEED, out_dir, rounds=ROUNDS[name])
        if failures:
            for k, label, messages in failures[:5]:
                print(f"{name} round {k} kind {label}: {messages}", file=sys.stderr)
            print(f"error: {name} has {len(failures)} failed ops; "
                  "reference not written", file=sys.stderr)
            return 1
        stored["rounds"][name] = ROUNDS[name]
        stored["workloads"][name] = dict(entries)
        print(f"{name}: {ROUNDS[name]} rounds, {len(w.kinds)} kinds")
    with open(worker.REFERENCE_PATH, "w") as fh:
        json.dump(stored, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

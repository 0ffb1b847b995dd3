#!/usr/bin/env python3
"""haarlab benchmark.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

Runs one workload of BENCHMARK.json on the haarlab sources of this
checkout (`src/`, nothing installed) and prints a run manifest, every
metric by name with its unit, and as the last line one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  Exits 2
without a result when the sources or BENCHMARK.json are missing, 1 when a
workload process fails.

setup_s is measured in SETUP_SAMPLES fresh processes (SETUP_SAMPLES - 1
that stop after set-up, then the measuring one), each scaled to reference
seconds by calibration loops run just before and after it (hostspeed.py),
and reported as their median.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
SETUP_CAL_LOOPS = 5  # calibration loops before and after each set-up
DEADLINE_S = 170.0     # a run must end within 180 s


class ChildFailed(RuntimeError):
    pass


def run_child(argv: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py to completion; return its JSON line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"workload process timed out after {exc.timeout:.0f} s")
    if proc.returncode != 0:
        raise ChildFailed(f"workload process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed("workload process printed no result")
    return json.loads(lines[-1])


def git_rev() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="second-long inputs, for the self-tests")
    args = p.parse_args(argv)
    start = time.monotonic()
    deadline = start + DEADLINE_S

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "haarlab", "__init__.py")):
        print(f"error: no haarlab sources under {src}", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [wl["name"] for wl in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    # One CPU for this process and every process it starts, so the
    # calibration loops (hostspeed.py) run where the ops run: the two CPUs
    # of a shared host can differ in speed at the same moment.
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})

    # One BLAS thread: the matrices are small enough (at most 2047 x 1024)
    # that a second thread adds no speed, but it ties every op to the
    # other core being free, which on a shared host it often is not.
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        child_args.append("--tiny")

    speed = hostspeed.HostSpeed()
    setups = []    # (wall seconds, scaled seconds)

    def timed_child(argv: list[str]) -> dict:
        for _ in range(SETUP_CAL_LOOPS):
            speed.sample()
        t0 = time.monotonic()
        res = run_child(argv, env, deadline)
        wall = res["ready"] - t0
        for _ in range(SETUP_CAL_LOOPS):
            speed.sample()
        loops = speed.loops[-2 * SETUP_CAL_LOOPS:]
        setups.append((wall, wall * hostspeed.CAL_REF_S / statistics.median(loops)))
        return res

    try:
        for _ in range(SETUP_SAMPLES - 1 if not args.trace else 0):
            timed_child(child_args + ["--setup-only"])
        res = timed_child(child_args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    measured = dict(res["metrics"])
    notes = {}
    if not args.trace:
        measured["setup_s"] = statistics.median(s for _, s in setups)
        notes["setup_s"] = (f"median of {len(setups)} fresh processes, scaled; "
                            "wall " + ", ".join(f"{w:.4f}" for w, _ in setups))
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    manifest = {"git_rev": git_rev(), **res["environment"],
                "nproc": os.cpu_count(), "cpus_allowed": len(allowed),
                "pinned_cpu": allowed[-1],
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny}
    print("manifest " + json.dumps(manifest, sort_keys=True))
    for kind, size in res["sizes"].items():
        print(f"size {kind}: " + " ".join(f"{k}={v}" for k, v in size.items()))
    attempted, failed = res["attempted"], res["failed"]
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    for line in res["info"]:
        print(line)
    metrics = {}
    for m in wanted:
        value = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"])
        print(f"{m['name']} {value:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Wall-clock and peak memory of the runner suites and the greedy depth
scan on larger lattices.

For each --cell DIM DEPTH and each --suite, one `runner.run` of
configs/default.json's recipe with that lattice (top level 0, leaf level
-DEPTH), in a fresh subprocess with one BLAS thread.  A run records its
wall-clock (the `runner.run` call alone), its peak RSS (`ru_maxrss` of the
subprocess, imports included), its exit code and the instance size:
leaves, active cubes, band entries and the zero-mass leaves of each
measure.  A config over the runner's dense-array budget is recorded as
skipped.  The `scan` suite (not a default) instead chains
`greedy_embedding_sequence` from depth 3 to DEPTH on the 1D tree, seed 0
and 30 iterations as in carleson_depth_scan.py, and records the chain's
wall-clock and peak RSS, the final embedding constant and the active
cubes of the deepest tree; it takes DIM 1 and DEPTH 3 or more.

Each --source LABEL=DIR runs the haarlab package under DIR (a checkout's
src/; default: this checkout's, labelled "this"), so one file can hold a
before/after pair; the sources take turns run by run, and which runs
first alternates repeat by repeat.  Writes BENCH_<N>.json in the working
directory.  Exits 2 on a bad argument, 1 when a run crashes.
"""
import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SUITES = ("verify", "testing", "carleson")  # the defaults; "scan" runs on request
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One run, in the subprocess: argv[1] is {"config", "suite", "out"}; prints one JSON line.
CHILD = """
import json, resource, sys, time
from haarlab import runner
job = json.loads(sys.argv[1])
try:
    start = time.perf_counter()
    code, _ = runner.run(job["config"], job["out"], suite=job["suite"])
    seconds = time.perf_counter() - start
except runner.ConfigError as exc:
    print(json.dumps({"skipped": str(exc)}))
    sys.exit(0)
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
lattice, mu, nu, band, _ = runner.build_instance(job["config"])
print(json.dumps({"seconds": seconds, "peak_rss_mb": peak_mb, "exit_code": code,
                  "n_leaves": lattice.n_leaves, "n_cubes": len(lattice.levels),
                  "band_nnz": int(band.values.size),
                  "zero_mass_leaves": {"mu": int((mu.leaf_mass == 0).sum()),
                                       "nu": int((nu.leaf_mass == 0).sum())}}))
"""

# One chained greedy scan, in the subprocess: argv[1] is {"depth"}.
SCAN_CHILD = """
import json, resource, sys, time
from haarlab import greedy_embedding_sequence
job = json.loads(sys.argv[1])
start, seq = time.perf_counter(), None
for depth in range(3, job["depth"] + 1):
    seq, const = greedy_embedding_sequence(depth, seed=0, iterations=30, init=seq)
seconds = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "peak_rss_mb": peak_mb, "embedding_constant": const,
                  "n_cubes": len(seq.lattice.levels)}))
"""


def run_one(src: str, suite: str, job: dict) -> dict:
    """One suite run in a fresh interpreter on the package under src."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0",
               **{name: "1" for name in BLAS_THREADS})
    proc = subprocess.run([sys.executable, "-c", SCAN_CHILD if suite == "scan" else CHILD,
                           json.dumps(job)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{suite} run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("number", type=int, help="N of the BENCH_<N>.json to write")
    p.add_argument("--cell", nargs=2, type=int, action="append", required=True,
                   metavar=("DIM", "DEPTH"), help="a lattice to run on; repeatable")
    p.add_argument("--suite", action="append", choices=SUITES + ("scan",),
                   help="a suite to run; repeatable (default: verify, testing and carleson)")
    p.add_argument("--source", action="append", metavar="LABEL=DIR",
                   help="a src/ directory holding the haarlab package; repeatable")
    p.add_argument("--repeat", type=int, default=1, help="runs per cell, suite and source")
    args = p.parse_args(argv)
    if args.number < 0:
        p.error(f"the BENCH number must be nonnegative, got {args.number}")
    if args.repeat < 1:
        p.error(f"--repeat must be at least 1, got {args.repeat}")
    for dim, depth in args.cell:
        if dim < 1 or depth < 1:
            p.error(f"--cell {dim} {depth}: DIM and DEPTH must be at least 1")
        if "scan" in (args.suite or ()) and (dim != 1 or depth < 3):
            p.error(f"--cell {dim} {depth}: the scan suite needs DIM 1 and DEPTH at least 3")
    sources = {}
    for spec in args.source or [f"this={os.path.join(ROOT, 'src')}"]:
        label, sep, src = spec.partition("=")
        if not (sep and label and os.path.isfile(os.path.join(src, "haarlab", "runner.py"))):
            p.error(f"--source {spec!r} is not LABEL=DIR with DIR/haarlab/runner.py")
        if label in sources:
            p.error(f"--source label {label!r} given twice")
        sources[label] = src
    with open(os.path.join(ROOT, "configs", "default.json")) as fh:
        recipe = json.load(fh)

    runs = []
    out = f"BENCH_{args.number}.json"
    scratch = tempfile.TemporaryDirectory()  # the runs' reports, removed at exit
    for dim, depth in args.cell:
        config = dict(recipe, lattice={"dim": dim, "top_level": 0, "leaf_level": -depth})
        for suite in args.suite or SUITES:
            for repeat in range(args.repeat):
                order = list(sources.items())
                job = ({"depth": depth} if suite == "scan" else
                       {"config": config, "suite": suite, "out": scratch.name})
                for label, src in order[::-1] if repeat % 2 else order:
                    try:
                        result = run_one(os.path.abspath(src), suite, job)
                    except RuntimeError as exc:
                        print(f"error: {label} dim {dim} depth {depth}: {exc}", file=sys.stderr)
                        return 1
                    runs.append({"source": label, "dim": dim, "depth": depth,
                                 "suite": suite, "repeat": repeat, **result})
                    shown = ("skipped" if "skipped" in result else
                             f"{result['seconds']:.2f} s {result['peak_rss_mb']:.0f} MB")
                    print(f"{label:>10} {dim}D depth {depth:>2} {suite:>9}: {shown}", flush=True)
    bench = {
        "recipe": "configs/default.json with lattice {dim, top_level 0, leaf_level -depth}",
        "scan": "greedy_embedding_sequence chained from depth 3 to depth, seed 0, 30 iterations",
        "blas_threads": 1,
        "host": {"machine": platform.machine(), "nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "date": time.strftime("%Y-%m-%d", time.gmtime())},
        "sources": list(sources),
        "runs": runs,
    }
    with open(out, "w") as fh:
        fh.write(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

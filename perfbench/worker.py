"""One workload process: set up, run the closed loop, check every op.

run.py starts this file in a fresh interpreter with the checkout's `src/`
on PYTHONPATH.  It prints one JSON line: the CLOCK_MONOTONIC time at which
set-up ended (imports, inputs, one untimed warm-up op on the smallest
input) and, unless --setup-only, the measured results.

Ops run one at a time, in whole rounds (see workloads.py).  Each op is
timed alone; a calibration loop (hostspeed.py) and the op's checks and
reference comparison run after its timer stops.  With --trace 1 a fixed
list of rounds runs three times, the middle pass traced, so counts repeat
exactly and the overhead is measured on the same work.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict

import numpy as np

import haarlab
import hostspeed
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE_PATH = os.path.join(ROOT, "perfbench", "reference.json")
OUT_ROOT = os.path.join(ROOT, ".perfbench")    # report files and spans
DEFAULT_SEED = 0

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def tail(samples):
    """(percentile, value) for the highest percentile of TAIL_LADDER that
    has at least MIN_BEYOND samples beyond it; None when even the lowest
    has fewer."""
    n = len(samples)
    best = None
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= MIN_BEYOND:
            best = pct
    if best is None:
        return None
    return best, float(np.percentile(samples, best))


def load_reference(name: str):
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["workloads"][name]


def run_loop(w, seed, out_dir, reference=None, *, seconds=None, rounds=None,
             tracer=None, speed=None):
    """Run whole rounds: `rounds` of them, or until `seconds` have passed.
    With a hostspeed.HostSpeed, a calibration loop runs after an op when
    one is due.

    Returns (samples, failures, entries): (kind label, op seconds, op end
    time) per op, (round, kind label, messages) per failed op, and the
    reference entries per kind label in round order.
    """
    samples, failures = [], []
    entries = defaultdict(list)
    start = time.perf_counter()
    k = 0
    while (k < rounds if rounds is not None else
           time.perf_counter() - start < seconds):
        state = prev = None
        for kind, inp in w.round_inputs(seed, k):
            label = w.label(kind)
            if tracer is not None:
                tracer.run_id = len(samples)
            t0 = time.perf_counter()
            try:
                result, state = w.op(inp, state, out_dir)
            except Exception:  # the op failed; count it and go on
                t1 = time.perf_counter()
                samples.append((label, t1 - t0, t1))
                failures.append((k, label, [traceback.format_exc()]))
                state = prev = None
                continue
            t1 = time.perf_counter()
            samples.append((label, t1 - t0, t1))
            if speed is not None:
                speed.sample_if_due()
            messages = w.check(result, prev)
            entry = w.reference_entry(result)
            if reference is not None and k < len(reference[label]):
                messages += w.compare(entry, reference[label][k])
            if messages:
                failures.append((k, label, messages))
            entries[label].append(entry)
            prev = result
        k += 1
    return samples, failures, entries


def end_to_end(samples, speed) -> tuple[dict, list[str]]:
    """The gated end-to-end metrics, and printed lines for the rest.

    Op times are scaled to reference seconds (hostspeed.py).  ops_per_s
    is ops over their summed scaled time.  Kinds differ in cost up to
    100x, so op_p50_ms is the geometric mean over kinds of each kind's
    median scaled op time: a pooled median would sit in the gap between
    two kinds and jump with one op more or less on either side.
    """
    scaled = [dt * speed.scale(t) for _, dt, t in samples]
    by_kind = defaultdict(list)
    for (label, _, _), dt in zip(samples, scaled):
        by_kind[label].append(dt)
    log_medians = [math.log(statistics.median(v)) for v in by_kind.values()]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": len(scaled) / sum(scaled),
        "op_p50_ms": 1e3 * math.exp(statistics.fmean(log_medians)),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    wall = [dt for _, dt, _ in samples]
    loops = speed.loops
    info = [f"wall_ops_per_s {len(wall) / sum(wall):.6g} 1/s  "
            "(all ops / their summed wall time, not scaled)",
            f"host_speed {hostspeed.CAL_REF_S / statistics.median(loops):.6g}  "
            f"(reference loop time / median of {len(loops)} calibration loops, "
            f"min {1e3 * min(loops):.4g} ms, max {1e3 * max(loops):.4g} ms)"]
    tail_at = tail(scaled)
    if tail_at is None:
        info.append(f"op_tail_ms omitted: {len(scaled)} ops leave fewer than "
                    f"{MIN_BEYOND} beyond p{TAIL_LADDER[0]:g}")
    else:
        info.append(f"op_tail_ms {1e3 * tail_at[1]:.6g} ms  "
                    f"(p{tail_at[0]:g} of {len(scaled)} ops, scaled)")
    return metrics, info


def blas_threads():
    """The thread count of numpy's bundled OpenBLAS, or None if unknown."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = os.path.realpath(os.path.join(ROOT, "src", "haarlab"))
    if os.path.dirname(os.path.realpath(haarlab.__file__)) != src:
        print(f"error: imported haarlab from {haarlab.__file__}, not {src}",
              file=sys.stderr)
        return 2

    w = (workloads.TINY if args.tiny else workloads.WORKLOADS)[args.workload]
    reference = (load_reference(w.name)
                 if args.seed == DEFAULT_SEED and not args.tiny else None)
    os.makedirs(OUT_ROOT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT_ROOT)
    try:
        _, warm = w.round_inputs(args.seed, workloads.WARMUP_ROUND)[0]
        w.op(warm, None, out_dir)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0

        info = []
        if not args.trace:
            speed = hostspeed.HostSpeed()
            speed.sample()
            samples, failures, _ = run_loop(w, args.seed, out_dir, reference,
                                            seconds=args.seconds, speed=speed)
            speed.sample()
            metrics, info = end_to_end(samples, speed)
            attempted = len(samples)
        else:
            # untraced, traced, untraced: the overhead is taken against the
            # faster untraced pass, so first-use costs do not hide it
            tracer = tracing.Tracer()
            passes, failures = [], []
            for traced in (False, True, False):
                if traced:
                    tracer.install()
                try:
                    samples, pass_failures, _ = run_loop(
                        w, args.seed, out_dir, reference, rounds=w.traced_rounds,
                        tracer=tracer if traced else None)
                finally:
                    if traced:
                        tracer.uninstall()
                passes.append(sum(dt for _, dt, _ in samples))
                failures += pass_failures
            metrics = tracer.summary()
            metrics["trace.overhead_frac"] = passes[1] / min(passes[0], passes[2]) - 1.0
            tracer.write(os.path.join(
                OUT_ROOT, f"spans-{w.name}-seed{args.seed}.json"))
            attempted = 3 * len(samples)

        for k, label, messages in failures[:5]:
            print(f"op failed: round {k} kind {label}: {'; '.join(messages)}",
                  file=sys.stderr)
        print(json.dumps({
            "ready": ready, "attempted": attempted, "failed": len(failures),
            "metrics": metrics, "info": info,
            "environment": environment(), "sizes": w.sizes(args.seed)}))
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench

They run the tiny variants of the workloads, so they take about half a
minute.
"""
import copy
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import haarlab    # noqa: E402
import hostspeed  # noqa: E402
import tracing    # noqa: E402
import worker     # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
WORKLOAD_NAMES = [wl["name"] for wl in BENCH["workloads"]]


def run_bench(workload, seed, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS) == list(workloads.TINY)
    for wl in BENCH["workloads"]:
        assert wl["why"] == workloads.WORKLOADS[wl["name"]].why
    assert {m["name"] for m in BENCH["per_layer"]} - {"trace.overhead_frac"} \
        <= tracing.Tracer.metric_names()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench(workload, 0, trace)
    result = result_of(proc)
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        assert re.search(rf"^{re.escape(m['name'])} \S+ {re.escape(m['unit'])}\b",
                         proc.stdout, re.M)
    assert re.search(r"^manifest .*\"blas_threads\": 1", proc.stdout, re.M)
    if not trace:
        for name in ("error_rate", "wall_ops_per_s", "host_speed", "op_tail_ms"):
            assert re.search(rf"^{name} ", proc.stdout, re.M)


def test_tail_picks_highest_percentile_with_ten_beyond():
    samples = list(range(1, 1001))
    pct, value = worker.tail(samples)
    assert pct == 99.0                      # p99.9 would leave one beyond
    assert sum(s > value for s in samples) >= 10
    assert worker.tail(list(range(999)))[0] == 95.0   # 9.99 beyond p99
    assert worker.tail(list(range(20)))[0] == 50.0
    assert worker.tail(list(range(19))) is None


def test_corrupted_reference_counts_as_failed_op(tmp_path):
    w = workloads.WORKLOADS["sweep"]
    reference = worker.load_reference("sweep")
    samples, failures, _ = worker.run_loop(w, worker.DEFAULT_SEED, str(tmp_path),
                                           reference, rounds=1)
    assert len(samples) == len(w.kinds) and failures == []

    label = w.label(w.kinds[1])
    for bad_value in (reference[label][0]["rho"] * (1 + 1e-8), float("nan"),
                      float("inf")):
        bad = copy.deepcopy(reference)
        bad[label][0]["rho"] = bad_value
        samples, failures, _ = worker.run_loop(
            w, worker.DEFAULT_SEED, str(tmp_path), bad, rounds=1)
        assert [(k, lab) for k, lab, _ in failures] == [(0, label)]
        assert len(failures) / len(samples) > 0


def test_non_finite_never_passes():
    assert not workloads.close(float("nan"), float("nan"))
    assert not workloads.close(float("inf"), float("inf"))
    assert workloads.non_finite({"a": float("nan"), "b": 1.0, "c": float("-inf")}) \
        == ["a is nan", "c is -inf"]


def test_seed_changes_inputs_not_metric_names():
    for w in workloads.WORKLOADS.values():
        assert w.round_inputs(0, 0) != w.round_inputs(1, 0)
        assert [k for k, _ in w.round_inputs(0, 0)] == [k for k, _ in w.round_inputs(1, 0)]
    names = [set(result_of(run_bench("search", seed, 0))["metrics"]) for seed in (0, 1)]
    assert names[0] == names[1]


def test_tracer_rebinds_imported_names_and_restores_them():
    originals = (haarlab.search.testing_constants, haarlab.operators.tree_distance,
                 haarlab.runner.SUITE_RUNNERS["verify"],
                 haarlab.operators.BandOperator.__dict__["leaf_matrix"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert haarlab.search.testing_constants is haarlab.analysis.testing_constants
        assert haarlab.search.testing_constants is not originals[0]
        assert haarlab.operators.tree_distance is not originals[1]
        assert haarlab.runner.SUITE_RUNNERS["verify"] is haarlab.runner.suite_verify
    finally:
        tracer.uninstall()
    assert (haarlab.search.testing_constants, haarlab.operators.tree_distance,
            haarlab.runner.SUITE_RUNNERS["verify"],
            haarlab.operators.BandOperator.__dict__["leaf_matrix"]) == originals


def test_traced_counts_repeat_exactly(tmp_path):
    totals = {}
    for name in ("search", "verify_large"):
        w = workloads.TINY[name]
        worker.run_loop(w, 3, str(tmp_path), rounds=1)  # fill the haar_system cache
        counts = []
        for _ in range(2):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                worker.run_loop(w, 3, str(tmp_path), rounds=1, tracer=tracer)
            finally:
                tracer.uninstall()
            counts.append({k: v for k, v in tracer.summary().items()
                           if k.endswith(".calls") or k in (
                               "operators.band_nnz", "search.accept_ratio")})
        assert counts[0] == counts[1]
        totals[name] = counts[0]
    assert totals["search"]["analysis.operator_norm.calls"] > 0
    assert totals["verify_large"]["measures.martingale_difference.calls"] > 0


def test_scaling_cancels_host_speed():
    speed = hostspeed.HostSpeed()
    speed.ends = [1.0, 2.0, 3.0, 4.0]
    speed.loops = [0.001, 0.001, 0.004, 0.004]
    ref = hostspeed.CAL_REF_S
    assert speed.scale(0.5) == pytest.approx(ref / 0.0025)
    samples = [("a", 0.010, 1.5), ("a", 0.040, 3.5)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hostspeed, "CAL_WINDOW", 1)
        assert speed.scale(1.5) == pytest.approx(ref / 0.001)
        assert speed.scale(3.5) == pytest.approx(ref / 0.004)
        metrics, _ = worker.end_to_end(samples, speed)
    # the second op ran 4x slower on a 4x slower host: both scale to 10 * ref
    assert metrics["ops_per_s"] == pytest.approx(2 / (2 * 10 * ref))
    assert metrics["op_p50_ms"] == pytest.approx(1e3 * 10 * ref)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("sweep", 0, 0, cwd=tmp_path,
                     script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""Smoke runs of the scripts under scripts/, each as a subprocess on a small
input: they write what their usage lines promise."""
import csv
import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

import haarlab
from haarlab import runner

SRC = os.path.dirname(os.path.dirname(haarlab.__file__))
SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def run(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=SRC)).stdout


def test_ratio_table_writes_one_row_per_cell(tmp_path):
    out = tmp_path / "table.csv"
    run([os.path.join(SCRIPTS, "ratio_table.py"), "--samples", "5",
         "--cells", "1,1,3 2,1,2", "--out", str(out)], tmp_path)
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["N", "r", "depth", "samples", "argmax_seed", "norm",
                      "c_direct_local", "c_adjoint_local", "c_diag", "rho"]
    assert [row[:4] for row in rows] == [["1", "1", "3", "5"], ["2", "1", "2", "5"]]
    assert all(float(row[-1]) > 0 for row in rows)


def test_carleson_depth_scan_is_nondecreasing_and_at_most_4(tmp_path):
    out = run([os.path.join(SCRIPTS, "carleson_depth_scan.py"), "--max-depth", "6",
               "--iterations", "5"], tmp_path)
    head, *lines = out.splitlines()
    assert head == "depth embedding_constant"
    depths, consts = zip(*((int(d), float(c)) for d, c in map(str.split, lines)))
    assert depths == (3, 4, 5, 6)
    assert list(consts) == sorted(consts) and consts[-1] <= 4.0


@pytest.mark.parametrize("script,args,message", [
    ("carleson_depth_scan.py", ["--min-depth", "0"], "--min-depth must be at least 1, got 0"),
    ("carleson_depth_scan.py", ["--min-depth", "5", "--max-depth", "3"],
     "--min-depth 5 exceeds --max-depth 3"),
    ("carleson_depth_scan.py", ["--iterations", "-1"], "--iterations must be non-negative"),
    ("extremal_search.py", ["--depth", "0"], "--depth must be at least 1, got 0"),
    ("extremal_search.py", ["--iterations", "-3"], "--iterations must be non-negative"),
    ("extremal_search.py", ["--r", "-1"], "band radius must be nonnegative"),
    ("extremal_search.py", ["--dim", "0"], "dim must be positive, got 0"),
    ("ratio_table.py", ["--samples", "0"], "--samples must be at least 1, got 0"),
    ("ratio_table.py", ["--cells", "1,1,3 1,0"],
     "--cells: '1,0' is not a dim,r,depth triple of integers"),
    ("ratio_table.py", ["--cells", "1,x,3"],
     "--cells: '1,x,3' is not a dim,r,depth triple of integers"),
    ("ratio_table.py", ["--cells", "1,-1,3"], "--cells 1,-1,3: band radius must be nonnegative"),
    ("ratio_table.py", ["--cells", "1,1,0"], "--cells 1,1,0: leaf_level must be below top_level"),
    ("ratio_table.py", ["--cells", " "], "--cells names no cell"),
    ("bench.py", ["1"], "the following arguments are required: --cell"),
    ("bench.py", ["1", "--cell", "1", "0"], "--cell 1 0: DIM and DEPTH must be at least 1"),
    ("bench.py", ["1", "--cell", "1", "3", "--repeat", "0"], "--repeat must be at least 1, got 0"),
    ("bench.py", ["1", "--cell", "1", "3", "--source", "src"],
     "--source 'src' is not LABEL=DIR with DIR/haarlab/runner.py"),
    ("bench.py", ["1", "--cell", "1", "3", "--suite", "decompose"],
     "argument --suite: invalid choice: 'decompose'"),
    ("bench.py", ["1", "--cell", "1", "4", "--cell", "2", "3", "--suite", "scan"],
     "--cell 2 3: the scan suite needs DIM 1 and DEPTH at least 3")],
    ids=["scan_depth_0", "scan_min_above_max", "scan_negative_iterations",
         "search_depth_0", "search_negative_iterations", "search_negative_r", "search_dim_0",
         "table_samples_0", "table_pair", "table_not_integer", "table_negative_r",
         "table_depth_0", "table_no_cell", "bench_no_cell", "bench_depth_0", "bench_repeat_0",
         "bench_bad_source", "bench_bad_suite", "bench_scan_dim_2"])
def test_script_usage_errors_exit_2(tmp_path, script, args, message):
    out = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *args], cwd=tmp_path,
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert out.returncode == 2
    assert f"error: {message}" in out.stderr
    assert out.stdout == "" and not any(tmp_path.iterdir())  # no header, no artifact


def test_bench_writes_one_run_per_cell_suite_and_source(tmp_path):
    out = run([os.path.join(SCRIPTS, "bench.py"), "7", "--cell", "1", "3", "--cell", "2", "2",
               "--suite", "verify", "--suite", "carleson", "--source", f"a={SRC}",
               "--source", f"b={SRC}", "--repeat", "2"], tmp_path)
    assert out.splitlines()[-1] == "wrote BENCH_7.json"
    assert sorted(os.listdir(tmp_path)) == ["BENCH_7.json"]  # the reports are gone
    with open(tmp_path / "BENCH_7.json") as fh:
        bench = json.load(fh)
    assert bench["sources"] == ["a", "b"] and bench["blas_threads"] == 1
    runs = bench["runs"]
    # the sources take turns, and which goes first alternates repeat by repeat
    assert [(r["dim"], r["depth"], r["suite"], r["repeat"], r["source"]) for r in runs] == [
        (dim, depth, suite, repeat, source) for dim, depth in ((1, 3), (2, 2))
        for suite in ("verify", "carleson") for repeat, order in enumerate(("ab", "ba"))
        for source in order]
    for r in runs:
        assert r["exit_code"] == 0 and r["seconds"] > 0 and r["peak_rss_mb"] > 0
        assert (r["n_leaves"], r["n_cubes"]) == ((8, 15) if r["dim"] == 1 else (16, 21))
        assert r["band_nnz"] > 0 and set(r["zero_mass_leaves"]) == {"mu", "nu"}


def test_bench_scan_records_the_chained_greedy_scan(tmp_path):
    out = run([os.path.join(SCRIPTS, "bench.py"), "8", "--cell", "1", "4", "--suite", "scan"],
              tmp_path)
    assert out.splitlines()[-1] == "wrote BENCH_8.json"
    with open(tmp_path / "BENCH_8.json") as fh:
        (r,) = json.load(fh)["runs"]
    assert (r["source"], r["dim"], r["depth"], r["suite"]) == ("this", 1, 4, "scan")
    assert r["seconds"] > 0 and r["peak_rss_mb"] > 0 and r["n_cubes"] == 31
    seq = None
    for depth in (3, 4):  # the chain carleson_depth_scan.py runs, to the same bits
        seq, const = haarlab.greedy_embedding_sequence(depth, seed=0, iterations=30,
                                                       init=seq)
    assert r["embedding_constant"] == const


def test_bench_search_times_the_search_and_its_replay(tmp_path):
    out = run([os.path.join(SCRIPTS, "bench.py"), "9", "--cell", "1", "3", "--suite", "search"],
              tmp_path)
    assert out.splitlines()[-1] == "wrote BENCH_9.json"
    assert sorted(os.listdir(tmp_path)) == ["BENCH_9.json"]
    with open(tmp_path / "BENCH_9.json") as fh:
        (r,) = json.load(fh)["runs"]
    assert (r["source"], r["dim"], r["depth"], r["suite"]) == ("this", 1, 3, "search")
    assert r["exit_code"] == r["replay_exit_code"] == 0
    assert r["seconds"] > 0 and r["peak_rss_mb"] > 0 and (r["n_leaves"], r["n_cubes"]) == (8, 15)
    with open(os.path.join(SCRIPTS, os.pardir, "configs", "default.json")) as fh:
        config = dict(json.load(fh), lattice={"dim": 1, "top_level": 0, "leaf_level": -3})
    artifact = runner.run(config, str(tmp_path / "search"), suite="search")[1]["artifact"]
    assert r["band_nnz"] == len(artifact["operator"]["entries"])
    assert r["zero_mass_leaves"] == {"mu": artifact["mu"].count(0.0),
                                     "nu": artifact["nu"].count(0.0)}


def test_ratio_table_exits_1_on_a_nan_rho(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("ratio_table",
                                                  os.path.join(SCRIPTS, "ratio_table.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    sample_rho = script.sample_rho

    def nan_at_seed_1(dim, r, depth, seed):
        rep = sample_rho(dim, r, depth, seed)
        return dataclasses.replace(rep, rho=math.nan) if (depth, seed) == (4, 1) else rep

    monkeypatch.setattr(script, "sample_rho", nan_at_seed_1)
    out = tmp_path / "table.csv"
    assert script.main(["--samples", "3", "--cells", "1,1,3 1,1,4", "--out", str(out)]) == 1
    assert "error: N=1 r=1 depth=4: rho is NaN at seed 1" in capsys.readouterr().err
    assert not out.exists()


def test_extremal_search_artifact_replays(tmp_path):
    artifact = tmp_path / "artifact.json"
    run([os.path.join(SCRIPTS, "extremal_search.py"), "--iterations", "5",
         "--out", str(artifact)], tmp_path)
    run(["-m", "haarlab", "--replay", str(artifact), "--out", str(tmp_path / "replay")],
        tmp_path)
    assert (tmp_path / "replay" / "report.json").exists()


def test_report_diff_compares_shared_fields_when_one_side_adds_a_detail(tmp_path):
    report = {"timestamp": "then", "sizes": [4, 5],
              "checks": [{"name": "carleson_property", "passed": True,
                          "details": {"max_excess": -0.5}},
                         {"name": "rho", "passed": True, "details": {"rho": 1.25}}]}
    for side in ("old", "new"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "report.json").write_text(json.dumps(report))
        # the new side gains a detail and a size, and one number moves by an ulp
        report["checks"][0]["details"]["witness"] = {"level": -1, "coords": [0]}
        report["sizes"].append(6)
        report["checks"][1]["details"]["rho"] = math.nextafter(1.25, 2.0)
    out = subprocess.run([sys.executable, os.path.join(SCRIPTS, "report_diff.py"), "old", "new"],
                         cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 1
    head, *lines, total = out.stdout.splitlines()
    rows = {field: (int(n), int(bad), d) for field, n, bad, d, _ in
            (line.rsplit(maxsplit=4) for line in lines)}
    field = "report.json:checks[{}].details.{}".format
    assert rows[field("carleson_property", "max_excess")] == (1, 0, "0")
    assert rows[field("carleson_property", "witness.level") + " (only in new)"] == (1, 1, "-")
    assert rows[field("carleson_property", "witness.coords[]") + " (only in new)"] == (1, 1, "-")
    assert rows[field("rho", "rho")] == (1, 1, "2.22e-16")
    assert rows["report.json:sizes[]"] == (2, 0, "0")
    assert rows["report.json:sizes[] (count differs)"] == (1, 1, "-")
    assert total == "4 of 10 fields differ"

import copy
import importlib.util
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import haarlab
from haarlab import io, runner
from haarlab.cli import main
from haarlab.lattice import build_lattice
from haarlab.runner import ConfigError, validate_config

BASE_CONFIG = {
    "lattice": {"dim": 1, "top_level": 0, "leaf_level": -3},
    "mu": {"type": "lognormal", "seed": 11},
    "nu": {"type": "zero_blocks", "fraction": 0.25, "seed": 12},
    "operator": {"type": "random_band", "r": 1, "seed": 13, "amplitude": 1.0,
                 "root_amplitude": 0.5},
    "r": 1,
    "seed": 0,
}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def run_cli(tmp_path, config, suite, extra=(), out_name="out"):
    out = str(tmp_path / out_name)
    code = main(["--config", write_config(tmp_path, config),
                 "--suite", suite, "--out", out, *extra])
    return code, out


def test_verify_suite_passes(tmp_path, capsys):
    code, out = run_cli(tmp_path, BASE_CONFIG, "verify")
    assert code == 0
    report = read_report(out)
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])
    printed = capsys.readouterr().out
    assert "[pass] parseval" in printed
    assert "suite verify: pass" in printed
    well_localized, = [c for c in report["checks"] if c["name"] == "well_localized"]
    assert 0 < well_localized["details"]["scale"] < math.inf


def test_testing_suite_writes_table(tmp_path):
    code, out = run_cli(tmp_path, BASE_CONFIG, "testing")
    assert code == 0
    with open(os.path.join(out, "testing_constants.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header[:3] == ["N", "r", "depth"]
    assert "rho" in header


def test_carleson_suite_writes_sequence(tmp_path):
    code, out = run_cli(tmp_path, BASE_CONFIG, "carleson")
    assert code == 0
    assert os.path.exists(os.path.join(out, "carleson_sequence.csv"))
    report = read_report(out)
    consts = report["constants"]
    assert consts["embedding_constant"] <= 4.0 * consts["carleson_constant"] + 1e-9


def test_decompose_suite_passes(tmp_path):
    code, _ = run_cli(tmp_path, BASE_CONFIG, "decompose")
    assert code == 0


@pytest.mark.parametrize("suite", ["verify", "search"])
def test_json_files_are_one_write_of_json_dumps(tmp_path, monkeypatch, suite):
    # json.dump wrote the same bytes in about 280 small writes per report
    writes = []

    class Counted:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, text):
            writes.append(os.path.basename(self.fh.name))
            return self.fh.write(text)

    monkeypatch.setattr(runner, "open", lambda *a, **k: Counted(open(*a, **k)), raising=False)
    config = dict(BASE_CONFIG, search={"iterations": 3})
    code, report = runner.run(config, str(tmp_path), suite=suite)
    files = {"report.json": report}
    if suite == "search":
        files["artifact.json"] = report["artifact"]
    assert sorted(writes) == sorted(files)
    for name, obj in files.items():
        with open(tmp_path / name) as fh:
            assert fh.read() == json.dumps(obj, indent=2, sort_keys=True)


def test_reports_deterministic_modulo_timestamp(tmp_path):
    config = dict(BASE_CONFIG, search={"iterations": 25})
    code_a, out_a = run_cli(tmp_path, config, "search", out_name="a")
    code_b, out_b = run_cli(tmp_path, config, "search", out_name="b")
    assert code_a == code_b == 0
    rep_a, rep_b = read_report(out_a), read_report(out_b)
    rep_a.pop("timestamp"), rep_b.pop("timestamp")
    assert rep_a == rep_b
    with open(os.path.join(out_a, "artifact.json")) as fa, \
            open(os.path.join(out_b, "artifact.json")) as fb:
        assert fa.read() == fb.read()


def test_search_section_integral_numbers_as_floats(tmp_path):
    # JSON integers may arrive as floats; the run is the same
    _, out_a = run_cli(tmp_path, dict(BASE_CONFIG, search={"iterations": 3, "step": 1}),
                       "search", out_name="a")
    _, out_b = run_cli(tmp_path, dict(BASE_CONFIG, search={"iterations": 3.0, "step": 1.0}),
                       "search", out_name="b")
    with open(os.path.join(out_a, "artifact.json")) as fa, \
            open(os.path.join(out_b, "artifact.json")) as fb:
        assert fa.read() == fb.read()


def test_spec_integers_as_integral_floats(tmp_path):
    # the same holds for the seeds, counts and radii of measure and operator specs
    def config(n):
        return dict(BASE_CONFIG, mu={"type": "lognormal", "seed": n(11)},
                    nu={"type": "sparse_atoms", "count": n(5), "seed": n(12)},
                    operator=dict(BASE_CONFIG["operator"], r=n(1), seed=n(13)))
    reports = [read_report(run_cli(tmp_path, config(n), "testing", out_name=n.__name__)[1])
               for n in (int, float)]
    assert reports[0]["constants"] == reports[1]["constants"]


def test_index_numbers_as_integral_floats():
    # the checked path reads an integral float as its int: the same band arrays
    lattice = io.lattice_from_json(BASE_CONFIG["lattice"])
    floats = dict(HAAR_ROOT, cube={"level": 0.0, "coords": [0.0]}, component=0.0)
    got, want = (io.band_from_json(explicit(ix), lattice) for ix in (floats, HAAR_ROOT))
    for name in ("rows", "cols", "values"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.rows.dtype == want.rows.dtype and got.cols.dtype == want.cols.dtype


def test_seed_flag_changes_results(tmp_path):
    config = dict(BASE_CONFIG, search={"iterations": 25})
    _, out_a = run_cli(tmp_path, config, "search", out_name="a")
    _, out_b = run_cli(tmp_path, config, "search", extra=["--seed", "99"],
                       out_name="b")
    assert read_report(out_a)["constants"] != read_report(out_b)["constants"]


def test_replay_roundtrip_and_tamper_detection(tmp_path):
    config = dict(BASE_CONFIG, search={"iterations": 25})
    _, out = run_cli(tmp_path, config, "search")
    artifact_path = os.path.join(out, "artifact.json")
    assert main(["--replay", artifact_path,
                 "--out", str(tmp_path / "replay")]) == 0
    with open(artifact_path) as fh:
        artifact = json.load(fh)
    artifact["mu"][0] *= 2.0
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(artifact))
    assert main(["--replay", str(tampered),
                 "--out", str(tmp_path / "replay2")]) == 1


def test_search_keeps_the_config_lattice_roots_and_replays(tmp_path):
    # the search draws its band and measures on the config's lattice, every root kept
    roots = [{"level": 0, "coords": [1]}, {"level": 0, "coords": [2]}]
    config = dict(BASE_CONFIG, lattice=dict(BASE_CONFIG["lattice"], roots=roots),
                  search={"iterations": 25})
    code, out = run_cli(tmp_path, config, "search")
    assert code == 0
    artifact_path = os.path.join(out, "artifact.json")
    with open(artifact_path) as fh:
        artifact = json.load(fh)
    assert artifact["lattice"]["roots"] == roots and len(artifact["mu"]) == 16
    assert main(["--replay", artifact_path, "--out", str(tmp_path / "replay")]) == 0


def test_invalid_configs_exit_2(tmp_path):
    bad_levels = copy.deepcopy(BASE_CONFIG)
    bad_levels["lattice"]["leaf_level"] = 0
    assert main(["--config", write_config(tmp_path, bad_levels, "bad1.json"),
                 "--out", str(tmp_path / "o1")]) == 2

    missing = {k: v for k, v in BASE_CONFIG.items() if k != "operator"}
    assert main(["--config", write_config(tmp_path, missing, "bad2.json"),
                 "--out", str(tmp_path / "o2")]) == 2

    assert main(["--config", str(tmp_path / "nope.json")]) == 2
    assert main(["--out", str(tmp_path / "o3")]) == 2

    text_tolerance = dict(BASE_CONFIG, tolerances={"zero": "abc"})
    assert main(["--config", write_config(tmp_path, text_tolerance, "bad3.json"),
                 "--out", str(tmp_path / "o4")]) == 2


def test_bad_tolerance_override_exits_2(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["--config", cfg, "--tolerance-override", "zero"]) == 2
    assert main(["--config", cfg, "--tolerance-override", "zero=abc"]) == 2


def test_tolerance_override_can_force_failure(tmp_path):
    code, out = run_cli(tmp_path, BASE_CONFIG, "verify",
                        extra=["--tolerance-override", "zero=1e-30"])
    assert code == 1
    assert not read_report(out)["passed"]


def test_validate_config_messages():
    with pytest.raises(ConfigError):
        validate_config({"lattice": {"dim": 1, "top_level": 0,
                                     "leaf_level": -1}})
    with pytest.raises(ConfigError):
        validate_config(dict(BASE_CONFIG, r=-1))


def test_unknown_suite_rejected(tmp_path):
    config = dict(BASE_CONFIG, suite="verify")
    cfg = write_config(tmp_path, config)
    code = main(["--config", cfg, "--suite", "verify",
                 "--out", str(tmp_path / "ok")])
    assert code == 0
    with pytest.raises(SystemExit):
        main(["--config", cfg, "--suite", "bogus"])


@pytest.mark.parametrize("change", [
    {"mu": {"type": "explicit", "mass": [float("nan")] + [1.0] * 7}},
    {"mu": {"type": "explicit", "mass": [1.0] * 5}},
    {"operator": {"type": "no_such_operator"}},
    {"operator": dict(BASE_CONFIG["operator"], amplitude=float("nan"))},
    {"operator": dict(BASE_CONFIG["operator"], root_amplitude=float("nan"))},
], ids=["nan_mass", "wrong_length_mass", "unknown_operator", "nan_amplitude",
        "nan_root_amplitude"])
def test_bad_instance_exits_2_without_checks(tmp_path, capsys, change):
    code, _ = run_cli(tmp_path, dict(BASE_CONFIG, **change), "testing")
    assert code == 2
    assert "[pass]" not in capsys.readouterr().out


HAAR_ROOT = {"kind": "haar", "cube": {"level": 0, "coords": [0]}, "component": 0}
BAD_INDICES = {  # on BASE_CONFIG's lattice: 1D, levels 0 to -3, root [0]
    "leaf": {"kind": "haar", "cube": {"level": -3, "coords": [0]}, "component": 0},
    "outside": {"kind": "haar", "cube": {"level": 5, "coords": [99]}, "component": 0},
    "component_1": {"kind": "haar", "cube": {"level": 0, "coords": [0]}, "component": 1},
    "component_4": {"kind": "haar", "cube": {"level": 0, "coords": [0]}, "component": 4},
    "negative_component": {"kind": "haar", "cube": {"level": 0, "coords": [0]}, "component": -1},
    "root_not_a_root": {"kind": "root", "cube": {"level": -1, "coords": [0]}},
    "root_outside": {"kind": "root", "cube": {"level": 0, "coords": [1]}},
    "wrong_length_coords": {"kind": "haar", "cube": {"level": 0, "coords": [0, 0]},
                            "component": 0},
    "unknown_kind": {"kind": "leaf", "cube": {"level": 0, "coords": [0]}, "component": 0},
    "bare_cube": {"level": 0, "coords": [0]},
    # bools are ints to Python, and False == 0: no lookup may take them as numbers
    "false_component": {"kind": "haar", "cube": {"level": 0, "coords": [0]}, "component": False},
    "false_coords": {"kind": "haar", "cube": {"level": 0, "coords": [False]}, "component": 0},
    "true_level": {"kind": "haar", "cube": {"level": True, "coords": [0]}, "component": 0},
}
BAD_OPERATORS = {
    "alpha_object": {"type": "multiplier", "alpha": {'{"level": 0, "coords": [0]}': 2.0}},
    "nan_alpha": {"type": "multiplier", "alpha": float("nan")},
    "inf_root_alpha": {"type": "multiplier", "root_alpha": float("inf")},
    "text_alpha": {"type": "multiplier", "alpha": "2"},
    **{f"explicit_{name}_row": {"type": "explicit", "r": 0, "entries": [
        {"row": ix, "col": HAAR_ROOT, "value": 1.0}]} for name, ix in BAD_INDICES.items()},
    **{f"explicit_{name}_col": {"type": "explicit", "r": 0, "entries": [
        {"row": HAAR_ROOT, "col": HAAR_ROOT, "value": 1.0},
        {"row": HAAR_ROOT, "col": ix, "value": 0.5}]} for name, ix in BAD_INDICES.items()},
}


def replay_with(tmp_path, capsys, **changes):
    """Replay a search artifact with some fields replaced: exit code and
    stderr."""
    _, out = run_cli(tmp_path, dict(BASE_CONFIG, search={"iterations": 2}), "search",
                     out_name="good")
    with open(os.path.join(out, "artifact.json")) as fh:
        artifact = dict(json.load(fh), **changes)
    bad_artifact = tmp_path / "bad_artifact.json"
    bad_artifact.write_text(json.dumps(artifact))
    capsys.readouterr()
    code = main(["--replay", str(bad_artifact), "--out", str(tmp_path / "replay")])
    captured = capsys.readouterr()
    assert "[pass]" not in captured.out
    return code, captured.err


@pytest.mark.parametrize("operator", BAD_OPERATORS.values(), ids=list(BAD_OPERATORS))
def test_bad_operator_spec_exits_2_under_every_suite_and_replay(tmp_path, capsys, operator):
    config = dict(BASE_CONFIG, operator=operator, search={"iterations": 2})
    for suite in runner.SUITES:
        assert run_cli(tmp_path, config, suite, out_name=suite)[0] == 2, suite
    assert "[pass]" not in capsys.readouterr().out
    code, err = replay_with(tmp_path, capsys, operator=operator)
    assert code == 2
    assert "cannot replay artifact" in err


def explicit(*rows):
    """An explicit operator with entries 1, 2, ... in the given rows and the
    root's Haar column."""
    return {"type": "explicit", "r": 0, "entries": [
        {"row": row, "col": HAAR_ROOT, "value": k + 1.0} for k, row in enumerate(rows)]}


BAND = BASE_CONFIG["operator"]
# config section, its value, and a word the error message must contain
BAD_NUMBERS = {
    "negative_amplitude": ("operator", dict(BAND, amplitude=-1.0), "amplitude"),
    "negative_root_amplitude": ("operator", dict(BAND, root_amplitude=-0.5),
                                "root_amplitude"),
    "fractional_component": ("operator", explicit(dict(HAAR_ROOT, component=0.9)), "component"),
    "bool_component": ("operator", explicit(dict(HAAR_ROOT, component=False)), "component"),
    "fractional_level": ("operator", explicit(dict(HAAR_ROOT, cube={
        "level": -0.5, "coords": [0]})), "level"),
    "fractional_coords": ("operator", explicit(dict(HAAR_ROOT, cube={
        "level": 0, "coords": [0.7]})), "coordinate"),
    "text_coords": ("operator", explicit(dict(HAAR_ROOT, cube={
        "level": 0, "coords": ["0"]})), "coordinate"),
    "fractional_r": ("operator", dict(BAND, r=1.5), "random_band r"),
    "fractional_seed": ("operator", dict(BAND, seed=2.7), "random_band seed"),
    "repeated_pair": ("operator", explicit(HAAR_ROOT, HAAR_ROOT), "repeats"),
    "search_negative_amplitude": ("search", {"iterations": 2, "amplitude": -1},
                                  "amplitude"),
    "search_negative_root_amplitude": ("search", {"iterations": 2, "root_amplitude": -1},
                                       "root_amplitude"),
    "fractional_lognormal_seed": ("mu", {"type": "lognormal", "seed": 1.5}, "seed"),
    "fractional_atom_count": ("mu", {"type": "sparse_atoms", "count": 2.5, "seed": 1},
                              "count"),
    "text_uniform_total": ("mu", {"type": "uniform", "total": "abc"}, "total"),
    "negative_random_band_seed": ("operator", dict(BAND, seed=-1),
                                  "random_band seed must be nonnegative"),
    "negative_lognormal_seed": ("mu", {"type": "lognormal", "seed": -1},
                                "lognormal seed must be nonnegative"),
    "negative_zero_blocks_seed": ("nu", {"type": "zero_blocks", "seed": -3},
                                  "zero_blocks seed must be nonnegative"),
    "negative_atom_count": ("mu", {"type": "sparse_atoms", "count": -2, "seed": 1},
                            "sparse_atoms count must be nonnegative"),
}


@pytest.mark.parametrize("section,value,word", BAD_NUMBERS.values(), ids=list(BAD_NUMBERS))
def test_bad_number_in_spec_exits_2_under_every_suite_and_replay(tmp_path, capsys,
                                                                 section, value, word):
    config = {**BASE_CONFIG, "search": {"iterations": 2}, section: value}
    for suite in runner.SUITES:
        assert run_cli(tmp_path, config, suite, out_name=suite)[0] == 2, suite
        captured = capsys.readouterr()
        assert "[pass]" not in captured.out
        assert word in captured.err, suite
    if section == "operator":  # artifacts store bands, not measure specs or searches
        code, err = replay_with(tmp_path, capsys, operator=value)
        assert code == 2
        assert word in err


def explicit_entries(entries):
    return {"type": "explicit", "r": 0, "entries": entries}


def both(section, value):
    """The same bad value in a config section and in the artifact field."""
    return {section: value}, {section: value}


TEXT_MASSES, BOOL_MASSES = ["1.5"] * 8, [True] * 8
# config change (None for an artifact-only field or value), artifact change,
# and the words the error message must contain
BAD_INPUTS = {
    "int_coords": (*both("operator", explicit(dict(HAAR_ROOT, cube={
        "level": 0, "coords": 5}))), "cube coords must be a JSON array"),
    "int_cube": (*both("operator", explicit(dict(HAAR_ROOT, cube=5))),
                 "cube must be a JSON object"),
    "list_row": (*both("operator", explicit([HAAR_ROOT])), "entry row must be a JSON object"),
    "text_col": (*both("operator", explicit_entries([
        {"row": HAAR_ROOT, "col": "root", "value": 1.0}])), "entry col must be a JSON object"),
    "int_entry": (*both("operator", explicit_entries([5])),
                  "operator entry must be a JSON object"),
    "int_entries": (*both("operator", explicit_entries(5)),
                    "operator entries must be a JSON array"),
    "text_masses": ({"mu": {"type": "explicit", "mass": TEXT_MASSES}}, {"mu": TEXT_MASSES},
                    "leaf mass must be a finite float"),
    "bool_masses": ({"nu": {"type": "explicit", "mass": BOOL_MASSES}}, {"nu": BOOL_MASSES},
                    "leaf mass must be a finite float"),
    "text_masses_bare_list": (*both("nu", TEXT_MASSES), "leaf mass must be a finite float"),
    "bool_masses_bare_list": (*both("mu", BOOL_MASSES), "leaf mass must be a finite float"),
    "int_lattice": (*both("lattice", 5), "lattice must be a JSON object"),
    "int_roots": (*both("lattice", dict(BASE_CONFIG["lattice"], roots=5)),
                  "roots must be a JSON array"),
    "int_operator": (*both("operator", 5), "operator must be a JSON object"),
    "fractional_replay_r": (None, {"r": 1.5}, "artifact r must be a finite int"),
    "negative_replay_r": (None, {"r": -1}, "artifact r must be nonnegative"),
    "text_replay_rho": (None, {"rho": "abc"}, "artifact rho must be a float"),
    "bool_replay_rho": (None, {"rho": True}, "artifact rho must be a float"),
    "int_replay_constants": (None, {"constants": 5},
                             "artifact constants must be a JSON object"),
    "unknown_schema_version": (None, {"schema_version": 99},
                               "artifact schema_version 99 is not supported"),
    "null_schema_version": (None, {"schema_version": None},
                            "artifact schema_version must be a finite int"),
    "negative_explicit_r": (*both("operator", dict(explicit(HAAR_ROOT), r=-1)),
                            "explicit r must be nonnegative"),
    **{f"{name}_message": (*both("operator", explicit(BAD_INDICES[name])), words)
       for name, words in (("false_component", "component must be a finite int, got False"),
                           ("false_coords", "cube coordinate must be a finite int, got False"),
                           ("true_level", "cube level must be a finite int, got True"))},
    # cube volumes 2**(dim*level) that overflow, or fall below the normal floats
    "huge_levels": (*both("lattice", {"dim": 1, "top_level": 1100, "leaf_level": 1097}),
                    "must be normal floats"),
    "tiny_levels": (*both("lattice", {"dim": 1, "top_level": -1100, "leaf_level": -1103}),
                    "must be normal floats"),
    "tiny_volumes_2d": (*both("lattice", {"dim": 2, "top_level": -510, "leaf_level": -512}),
                        "must be normal floats"),
}


@pytest.mark.parametrize("config_change,artifact_change,words", BAD_INPUTS.values(),
                         ids=list(BAD_INPUTS))
def test_bad_json_input_exits_2_under_every_suite_and_replay(
        tmp_path, capsys, config_change, artifact_change, words):
    if config_change is not None:
        config = {**BASE_CONFIG, "search": {"iterations": 2}, **config_change}
        for suite in runner.SUITES:
            assert run_cli(tmp_path, config, suite, out_name=suite)[0] == 2, suite
            captured = capsys.readouterr()
            assert "[pass]" not in captured.out
            assert words in captured.err, suite
    code, err = replay_with(tmp_path, capsys, **artifact_change)
    assert code == 2
    assert words in err


def test_necessity_and_ordering_overrides_reach_checks(tmp_path):
    code, out = run_cli(tmp_path, BASE_CONFIG, "testing",
                        extra=["--tolerance-override", "necessity=-1e6",
                               "--tolerance-override", "ordering=-1e6"])
    assert code == 1
    report = read_report(out)
    assert report["tolerances"]["necessity"] == -1e6
    assert not any(c["passed"] for c in report["checks"])


@pytest.mark.parametrize("suite", ["verify", "decompose", "carleson"])
def test_radius_not_below_depth_exits_2(tmp_path, capsys, suite):
    code, _ = run_cli(tmp_path, dict(BASE_CONFIG, r=3), suite)
    assert code == 2
    captured = capsys.readouterr()
    assert "[pass]" not in captured.out
    assert "depth" in captured.err


def test_search_suite_rejects_what_verify_rejects(tmp_path, capsys):
    bad = dict(BASE_CONFIG, search={"iterations": 3},
               mu={"type": "explicit", "mass": [float("nan")] + [1.0] * 7})
    for suite in ("search", "verify"):
        code, _ = run_cli(tmp_path, bad, suite, out_name=suite)
        assert code == 2
    assert "[pass]" not in capsys.readouterr().out


def test_embedding_override_reaches_check(tmp_path):
    code, out = run_cli(tmp_path, BASE_CONFIG, "carleson",
                        extra=["--tolerance-override", "embedding=-1e6"])
    assert code == 1
    report = read_report(out)
    assert report["tolerances"]["embedding"] == -1e6
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["embedding_le_4_carleson"]


def test_replay_override_reaches_check(tmp_path):
    config = dict(BASE_CONFIG, search={"iterations": 5})
    _, out = run_cli(tmp_path, config, "search")
    artifact_path = os.path.join(out, "artifact.json")
    replay_out = str(tmp_path / "replay")
    assert main(["--replay", artifact_path, "--out", replay_out]) == 0
    assert main(["--replay", artifact_path, "--out", replay_out,
                 "--tolerance-override", "replay=-1"]) == 1
    assert not read_report(replay_out)["passed"]


@pytest.mark.parametrize("names", [["zeroo"], ["eigensolve"], ["zero", "zeroo"]])
def test_unknown_tolerance_name_exits_2(tmp_path, capsys, names):
    overrides = [arg for name in names for arg in ("--tolerance-override", f"{name}=1e-30")]
    code, out = run_cli(tmp_path, BASE_CONFIG, "testing", extra=overrides)
    assert code == 2
    config = dict(BASE_CONFIG, tolerances={name: 1e-30 for name in names})
    assert run_cli(tmp_path, config, "testing", out_name="config")[0] == 2
    artifact = os.path.join(run_cli(tmp_path, dict(BASE_CONFIG, search={"iterations": 2}),
                                    "search", out_name="search")[1], "artifact.json")
    assert main(["--replay", artifact, "--out", str(tmp_path / "replay"), *overrides]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("unknown tolerance names") == 3
    assert "[FAIL]" not in captured.out and not os.path.exists(out)


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan")])
def test_non_finite_tolerance_exits_2(tmp_path, capsys, value):
    # an infinite tolerance would pass every check it bounds
    overrides = ["--tolerance-override", f"zero={value}"]
    code, out = run_cli(tmp_path, BASE_CONFIG, "verify", extra=overrides)
    assert code == 2
    config = dict(BASE_CONFIG, tolerances={"identity": value})
    assert run_cli(tmp_path, config, "verify", out_name="config")[0] == 2
    captured = capsys.readouterr()
    assert captured.err.count("tolerances must be finite") == 2
    assert "[pass]" not in captured.out and not os.path.exists(out)
    artifact = os.path.join(run_cli(tmp_path, dict(BASE_CONFIG, search={"iterations": 2}),
                                    "search", out_name="search")[1], "artifact.json")
    capsys.readouterr()
    assert main(["--replay", artifact, "--out", str(tmp_path / "replay"),
                 "--tolerance-override", f"replay={value}"]) == 2
    assert "tolerances must be finite" in capsys.readouterr().err


def test_overflowing_decomposition_fails(tmp_path, capsys):
    # <T_mu f, g>_nu overflows, so every residual is NaN: it must not pass
    config = dict(BASE_CONFIG, operator=dict(BASE_CONFIG["operator"], amplitude=1e306))
    code, out = run_cli(tmp_path, config, "decompose")
    assert code == 1
    assert "[FAIL] decomposition_identity" in capsys.readouterr().out
    check, = read_report(out)["checks"]
    assert not check["passed"]
    assert math.isnan(check["details"]["max_relative_residual"])


@pytest.mark.parametrize("suite,failed", [
    ("verify", {"carleson_property", "decomposition_identity"}),
    ("carleson", {"carleson_property", "embedding_le_4_carleson"})])
def test_overflowing_carleson_sequence_fails_in_the_report(tmp_path, capsys, suite, failed):
    config = dict(BASE_CONFIG, operator=dict(BASE_CONFIG["operator"], amplitude=1e200))
    code, out = run_cli(tmp_path, config, suite)
    assert code == 1
    report = read_report(out)
    checks = {c["name"]: c for c in report["checks"]}
    assert failed <= {name for name, c in checks.items() if not c["passed"]}
    for name in ("carleson_property", "embedding_le_4_carleson"):
        if name in checks:
            assert "got nan at Cube" in checks[name]["details"]["error"]
    assert "[FAIL] carleson_property" in capsys.readouterr().out


def default_config():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "default.json")) as fh:
        return json.load(fh)


def test_nan_testing_constant_fails_search(tmp_path, capfd):
    # cube volumes are normal floats here, but the mass/volume densities
    # overflow: c_direct_local is NaN, so rho is NaN, not 0, and fails
    config = default_config()
    config["lattice"].update(top_level=-1019, leaf_level=-1022)
    code, out = run_cli(tmp_path, config, "search")
    assert code == 1
    captured = capfd.readouterr()
    assert "[pass]" not in captured.out
    assert "DLASCL" not in captured.out + captured.err
    artifact = read_report(out)["artifact"]
    assert math.isnan(artifact["rho"]) and math.isnan(artifact["constants"]["c_direct_local"])


@pytest.mark.parametrize("amplitude", [1e200, 1e306])
def test_overflowing_testing_suite_keeps_a_finite_norm(tmp_path, capfd, amplitude):
    config = default_config()
    config["operator"]["amplitude"] = amplitude
    code, out = run_cli(tmp_path, config, "testing")
    assert code == 1
    captured = capfd.readouterr()
    assert "DLASCL" not in captured.out + captured.err
    constants = read_report(out)["constants"]
    assert amplitude < constants["norm"] < math.inf
    assert math.isnan(constants["rho"])


@pytest.mark.parametrize("search", [
    {"amplitude": float("nan")}, {"root_amplitude": float("inf")},
    {"weight_sigma": float("nan")}, {"step": -float("inf")},
    {"iterations": -1}, {"iterations": 2.5}, {"iterations": float("nan")},
    {"step": "big"}, {"iteratons": 3}],
    ids=["nan_amplitude", "inf_root_amplitude", "nan_weight_sigma", "inf_step",
         "negative_iterations", "fractional_iterations", "nan_iterations", "text_step",
         "misspelt_iterations"])
def test_bad_search_section_exits_2(tmp_path, capsys, search):
    key, = search
    for suite in runner.SUITES:
        assert run_cli(tmp_path, dict(BASE_CONFIG, search=search), suite, out_name=suite)[0] == 2
        captured = capsys.readouterr()
        assert "[pass]" not in captured.out
        assert "invalid config" in captured.err and key in captured.err, suite


def without(key):
    return {k: v for k, v in BASE_CONFIG.items() if k != key}


LATTICE = BASE_CONFIG["lattice"]
# a config, and a word its error message must contain: every rule the config
# reader enforces, and a key that no section reads in each section
CONFIG_RULES = {
    "list_config": ([1, 2], "config"),
    "number_config": (5, "config"),
    "text_config": ("verify", "config"),
    **{f"missing_{key}": (without(key), repr(key))
       for key in ("lattice", "mu", "nu", "operator", "r")},
    "zero_dim": (dict(BASE_CONFIG, lattice=dict(LATTICE, dim=0)), "dim"),
    "fractional_dim": (dict(BASE_CONFIG, lattice=dict(LATTICE, dim=1.5)), "dim"),
    "flat_lattice": (dict(BASE_CONFIG, lattice=dict(LATTICE, leaf_level=0)), "leaf_level"),
    "empty_roots": (dict(BASE_CONFIG, lattice=dict(LATTICE, roots=[])), "root"),
    "text_top_level": (dict(BASE_CONFIG, lattice=dict(LATTICE, top_level="0")), "top_level"),
    "negative_r": (dict(BASE_CONFIG, r=-1), "r must be"),
    "fractional_r": (dict(BASE_CONFIG, r=1.5), "r must be"),
    "bool_r": (dict(BASE_CONFIG, r=True), "r must be"),
    "negative_seed": (dict(BASE_CONFIG, seed=-1), "seed"),
    "fractional_seed": (dict(BASE_CONFIG, seed=0.5), "seed"),
    "bool_seed": (dict(BASE_CONFIG, seed=False), "seed"),
    "text_seed": (dict(BASE_CONFIG, seed="0"), "seed"),
    "unknown_suite": (dict(BASE_CONFIG, suite="bogus"), "suite"),
    "list_suite": (dict(BASE_CONFIG, suite=["verify"]), "suite"),
    "list_tolerances": (dict(BASE_CONFIG, tolerances=[]), "tolerances"),
    "number_tolerances": (dict(BASE_CONFIG, tolerances=5), "tolerances"),
    "text_tolerance": (dict(BASE_CONFIG, tolerances={"zero": "abc"}),
                       "tolerances must be finite"),
    "bool_tolerance": (dict(BASE_CONFIG, tolerances={"zero": True}),
                       "tolerances must be finite"),
    # more of the search section's rules in test_bad_search_section_exits_2
    "list_search": (dict(BASE_CONFIG, search=[]), "search"),
    "bool_iterations": (dict(BASE_CONFIG, search={"iterations": True}), "iterations"),
    "negative_search_amplitude": (dict(BASE_CONFIG, search={"amplitude": -1}), "amplitude"),
    "negative_random_band_r": (dict(BASE_CONFIG, operator=dict(BAND, r=-1)),
                               "band radius must be nonnegative"),
    # finite numbers past what the generators can draw with: numpy's
    # OverflowError, a traceback, or a run on a meaningless spec before
    "overflowing_amplitude": (dict(BASE_CONFIG, operator=dict(BAND, amplitude=1e308)),
                              "random_band amplitude must be nonnegative and below 2**1023"),
    "overflowing_root_amplitude": (dict(BASE_CONFIG,
                                        operator=dict(BAND, root_amplitude=2.0 ** 1023)),
                                   "root_amplitude must be nonnegative and below 2**1023"),
    "overflowing_search_amplitude": (dict(BASE_CONFIG, search={"amplitude": 1e308}),
                                     "search amplitude must be nonnegative and below 2**1023"),
    "overflowing_search_root_amplitude": (dict(BASE_CONFIG, search={"root_amplitude": 1e308}),
                                          "root_amplitude must be nonnegative and below"),
    "overflowing_weight_sigma": (dict(BASE_CONFIG, search={"weight_sigma": 1000.0}),
                                 "search weight_sigma 1000.0 overflows"),
    "overflowing_negative_weight_sigma": (dict(BASE_CONFIG, search={"weight_sigma": -1000.0}),
                                          "search weight_sigma -1000.0 overflows"),
    "zero_blocks_fraction_above_1": (dict(BASE_CONFIG, nu=dict(BASE_CONFIG["nu"], fraction=2.0)),
                                     "zero_blocks fraction must be in [0, 1], got 2.0"),
    "negative_zero_blocks_fraction": (dict(BASE_CONFIG, nu=dict(BASE_CONFIG["nu"], fraction=-1)),
                                      "zero_blocks fraction must be in [0, 1], got -1.0"),
    # keys that no section reads, the first four misspelt defaults
    "unknown_config_key": (dict(BASE_CONFIG, tolerence={"zero": 1e-30}), "tolerence"),
    "unknown_lattice_key": (dict(BASE_CONFIG, lattice=dict(LATTICE, rootz=[])), "rootz"),
    "unknown_lognormal_key": (dict(BASE_CONFIG, mu=dict(BASE_CONFIG["mu"], sigmaa=5.0)),
                              "sigmaa"),
    "unknown_random_band_key": (dict(BASE_CONFIG, operator=dict(BAND, amplitud=9.0)),
                                "amplitud"),
    "unknown_zero_blocks_key": (dict(BASE_CONFIG, nu=dict(BASE_CONFIG["nu"], total=1e308)),
                                "total"),
    "unknown_uniform_key": (dict(BASE_CONFIG, mu={"type": "uniform", "sigma": 2.0}), "sigma"),
    "unknown_sparse_atoms_key": (dict(BASE_CONFIG, mu={"type": "sparse_atoms", "count": 2,
                                                       "seed": 1, "fraction": 0.5}),
                                 "fraction"),
    "unknown_explicit_measure_key": (dict(BASE_CONFIG, mu={"type": "explicit",
                                                           "mass": [1.0] * 8, "seed": 1}),
                                     "seed"),
    "unknown_multiplier_key": (dict(BASE_CONFIG, operator={"type": "multiplier", "alfa": 2.0}),
                               "alfa"),
    "unknown_shift_key": (dict(BASE_CONFIG, operator={"type": "shift", "amplitude": 2.0}),
                          "amplitude"),
    "unknown_explicit_operator_key": (dict(BASE_CONFIG, operator=dict(explicit(HAAR_ROOT),
                                                                      seed=1)), "seed"),
}


# rules that only the search suite meets: it draws its initial masses as it runs
SEARCH_RULES = {"overflowing_weight_sigma", "overflowing_negative_weight_sigma"}


@pytest.mark.parametrize("name", list(CONFIG_RULES), ids=list(CONFIG_RULES))
def test_config_rules_exit_2(tmp_path, capsys, name):
    config, word = CONFIG_RULES[name]
    for suite in ("search",) if name in SEARCH_RULES else runner.SUITES:
        assert run_cli(tmp_path, config, suite, out_name=suite)[0] == 2, suite
        captured = capsys.readouterr()
        assert "[pass]" not in captured.out
        assert word in captured.err, suite


@pytest.mark.parametrize("config", [[1, 2], 5, "verify"], ids=["list", "number", "text"])
def test_seed_flag_on_non_object_config_exits_2(tmp_path, capsys, config):
    # --seed writes into the config: only into an object, the rest is rejected
    assert run_cli(tmp_path, config, "verify", extra=["--seed", "3"])[0] == 2
    captured = capsys.readouterr()
    assert "[pass]" not in captured.out
    assert "config must be a JSON object" in captured.err


@pytest.mark.parametrize("suite", ["testing", "search"])
def test_top_level_integers_as_integral_floats(tmp_path, suite):
    ints = dict(BASE_CONFIG, search={"iterations": 2})
    floats = dict(ints, r=1.0, seed=0.0, search={"iterations": 2.0},
                  lattice={"dim": 1.0, "top_level": 0.0, "leaf_level": -3.0})
    reports = [read_report(run_cli(tmp_path, config, suite, out_name=name)[1])
               for name, config in (("ints", ints), ("floats", floats))]
    assert reports[0]["constants"] == reports[1]["constants"]
    assert reports[0].get("artifact") == reports[1].get("artifact")


@pytest.mark.parametrize("suite,lattice,failed", [
    ("testing", None, ["necessity_direct", "necessity_adjoint", "local_le_global"]),
    ("search", {"top_level": -1019, "leaf_level": -1022}, ["search_monotone"])],
    ids=["testing_amplitude_1e200", "search_tiny_cubes"])
def test_overflow_prints_no_runtime_warning(tmp_path, suite, lattice, failed):
    # the failing checks report the NaNs and infinities; numpy's warnings
    # about them would only bury the report lines
    config = default_config()
    if lattice:
        config["lattice"].update(lattice)
        config["search"] = {"iterations": 5}
    else:
        config["operator"]["amplitude"] = 1e200
    src = os.path.dirname(os.path.dirname(haarlab.__file__))
    out = subprocess.run([sys.executable, "-m", "haarlab", "--config",
                          write_config(tmp_path, config), "--suite", suite,
                          "--out", str(tmp_path / "out")],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 1
    assert all(f"[FAIL] {name}" in out.stdout for name in failed)
    assert "RuntimeWarning" not in out.stderr


def test_oversized_lattice_exits_2_before_building(tmp_path, capsys):
    config = dict(BASE_CONFIG, lattice=dict(BASE_CONFIG["lattice"], leaf_level=-20))
    code, _ = run_cli(tmp_path, config, "testing")
    assert code == 2
    assert "GiB" in capsys.readouterr().err


def test_size_guard_counts_the_chi_tables(tmp_path, capsys, monkeypatch):
    # 1.82 GiB without the induced operator's two leaves x cubes chi tables
    lattice = {"dim": 2, "top_level": 0, "leaf_level": -5,
               "roots": [{"level": 0, "coords": [i, 0]} for i in range(5)]}
    monkeypatch.setattr(runner, "build_instance", None)  # never reached
    code, _ = run_cli(tmp_path, dict(BASE_CONFIG, lattice=lattice), "testing")
    assert code == 2
    assert "2.34 GiB" in capsys.readouterr().err


def test_size_guard_reads_the_budget(tmp_path, monkeypatch):
    need = runner.dense_bytes(build_lattice(1, 0, -3))  # BASE_CONFIG's lattice
    monkeypatch.setattr(runner, "MAX_DENSE_BYTES", need - 1)
    code, _ = run_cli(tmp_path, BASE_CONFIG, "testing")
    assert code == 2
    monkeypatch.setattr(runner, "MAX_DENSE_BYTES", need)
    code, _ = run_cli(tmp_path, BASE_CONFIG, "testing", out_name="fits")
    assert code == 0


def test_runs_and_replays_load_no_jsonschema(tmp_path):
    """A suite run and a replay read their JSON with io's checked readers alone."""
    src = os.path.dirname(os.path.dirname(haarlab.__file__))
    code = f"""
import json, sys
from haarlab import runner
with open({os.path.join(src, os.pardir, "configs", "default.json")!r}) as fh:
    config = json.load(fh)
assert runner.run(config, {str(tmp_path / "verify")!r}, suite="verify")[0] == 0
config["search"] = {{"iterations": 2}}
assert runner.run(config, {str(tmp_path / "search")!r}, suite="search")[0] == 0
assert runner.replay({str(tmp_path / "search" / "artifact.json")!r},
                     {str(tmp_path / "replay")!r})[0] == 0
print("jsonschema" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def test_report_diff_finds_a_changed_bit(tmp_path, capsys):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "report_diff.py")
    spec = importlib.util.spec_from_file_location("report_diff", path)
    report_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_diff)
    old, new = (str(tmp_path / name) for name in ("old", "new"))
    for out in (old, new):  # two runs: only the timestamps differ
        for suite in ("testing", "search"):
            runner.run(BASE_CONFIG, os.path.join(out, suite), suite=suite)
    assert report_diff.main([old, new]) == 0
    report = read_report(os.path.join(new, "testing"))
    report["constants"]["norm"] = math.nextafter(report["constants"]["norm"], math.inf)
    with open(os.path.join(new, "testing", "report.json"), "w") as fh:
        json.dump(report, fh)
    assert report_diff.main([old, new]) == 1
    assert "report.json:constants.norm" in capsys.readouterr().out
    os.remove(os.path.join(new, "search", "artifact.json"))
    assert report_diff.main([old, new]) == 1
    assert report_diff.main([old, str(tmp_path / "missing")]) == 2

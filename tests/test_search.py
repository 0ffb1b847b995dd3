import json

import numpy as np
import pytest

from haarlab import (CarlesonSequence, Cube, Lattice, SearchConfig, build_lattice,
                     carleson_constant, embedding_constant, extremal_search,
                     greedy_embedding_sequence, replay_artifact, uniform_measure)

from haarlab import search
from loop_oracle import (loop_band_to_json, loop_extremal_search,
                         loop_greedy_embedding_sequence)


CFG = SearchConfig(dim=1, top_level=0, leaf_level=-3, r=1, seed=7,
                   iterations=30, root_amplitude=0.3)
# configs/default.json's search with step 300: exp(300 z) overflows for z > 2.37
STEP_300 = SearchConfig(dim=1, top_level=0, leaf_level=-4, r=1, seed=0, iterations=200,
                        step=300.0)


def test_zero_iterations_returns_seed_instance():
    result = extremal_search(SearchConfig(seed=5, iterations=0))
    assert len(result.history) == 1
    assert result.history[0] == result.rho


def test_search_is_deterministic():
    a = extremal_search(CFG)
    b = extremal_search(CFG)
    assert a.rho == b.rho
    assert a.to_artifact() == b.to_artifact()
    c = extremal_search(SearchConfig(dim=1, top_level=0, leaf_level=-3, r=1,
                                     seed=8, iterations=30,
                                     root_amplitude=0.3))
    assert c.to_artifact() != a.to_artifact()


def test_incumbent_never_decreases():
    result = extremal_search(CFG)
    assert all(b >= a for a, b in zip(result.history, result.history[1:]))
    assert result.history[-1] == result.rho
    assert result.rho >= result.history[0]


def test_artifact_is_json_serializable_and_replays():
    result = extremal_search(CFG)
    artifact = json.loads(json.dumps(result.to_artifact()))
    ok, recomputed = replay_artifact(artifact)
    assert ok
    assert recomputed["rho"] == pytest.approx(result.rho, rel=1e-12)
    assert recomputed["constants"]["norm"] == pytest.approx(
        result.report.norm, rel=1e-12)


def test_replay_detects_tampering():
    artifact = extremal_search(CFG).to_artifact()
    artifact["mu"][0] *= 2.0
    ok, _ = replay_artifact(artifact)
    assert not ok
    artifact2 = extremal_search(CFG).to_artifact()
    artifact2["rho"] += 1e-3
    assert not replay_artifact(artifact2)[0]


@pytest.mark.parametrize("config", [
    CFG,
    SearchConfig(dim=1, top_level=2, leaf_level=-3, r=2, seed=3, iterations=40,
                 root_amplitude=0.5),
    SearchConfig(dim=2, top_level=-1, leaf_level=-4, r=1, seed=10 ** 6, iterations=25,
                 root_amplitude=0.5),
    SearchConfig(dim=3, top_level=0, leaf_level=-2, r=0, seed=11, iterations=12),
    SearchConfig(dim=1, leaf_level=-3, r=1, seed=2, iterations=10, amplitude=0.0),
], ids=["1d_roots", "1d_top_2_r_2", "2d_roots", "3d", "no_entries"])
def test_search_matches_loop_oracle_bit_for_bit(config):
    got, want = extremal_search(config), loop_extremal_search(config)
    assert [float(h).hex() for h in got.history] == [float(h).hex() for h in want.history]
    assert float(got.rho).hex() == float(want.rho).hex()
    assert list(got.band.entries.items()) == list(want.band.entries.items())
    assert json.dumps(got.to_artifact()) == json.dumps(want.to_artifact())


def test_a_move_that_overflows_is_rejected_unevaluated(monkeypatch):
    # such a mass once raised MeasureGrid's ValueError mid-run; now the
    # incumbent stays, and the loop oracle, which draws the same numbers
    # and skips the same moves, gives the same trajectory
    evaluated = []
    evaluate = search._evaluate
    monkeypatch.setattr(search, "_evaluate", lambda *args: evaluated.append(1) or evaluate(*args))
    # candidate masses near 1e260 overflow the testing integrals: rho NaN, as the runner sees it
    with np.errstate(over="ignore", invalid="ignore"):
        result, want = extremal_search(STEP_300), loop_extremal_search(STEP_300)
    assert 1 < len(evaluated) < len(result.history)
    assert [float(h).hex() for h in result.history] == [float(h).hex() for h in want.history]
    assert json.dumps(result.to_artifact()) == json.dumps(want.to_artifact())
    assert np.isfinite(result.mu.leaf_mass).all() and np.isfinite(result.nu.leaf_mass).all()


@pytest.mark.parametrize("sigma", [1000.0, -1000.0])
def test_initial_masses_that_overflow_name_weight_sigma(sigma):
    with pytest.raises(ValueError, match=f"^search weight_sigma {sigma} overflows leaf masses"):
        extremal_search(SearchConfig(weight_sigma=sigma, iterations=1))


def test_greedy_embedding_normalized_and_bounded():
    seq, const = greedy_embedding_sequence(3, seed=0, iterations=15)
    lat = build_lattice(1, 0, -3)
    mu = uniform_measure(lat, total=1.0)
    assert carleson_constant(seq, mu) == pytest.approx(1.0, rel=1e-12)
    assert 1.0 <= const <= 4.0


def test_greedy_embedding_nondecreasing_with_depth():
    prev_seq, prev = None, 0.0
    for depth in range(3, 7):
        prev_seq, const = greedy_embedding_sequence(depth, seed=1,
                                                    iterations=10,
                                                    init=prev_seq)
        assert const >= prev
        assert const <= 4.0 + 1e-9
        prev = const


@pytest.mark.parametrize("seed", [1_000_142, 1_000_289])
def test_carried_optimum_is_not_renormalized(seed):
    # re-normalizing the carried optimum, whose Carleson constant is 1 only
    # up to round-off, made these chains fall by 2.5e-16 (depth 4 to 5) and
    # 4.7e-16 (depth 5 to 6) relative
    seq, prev = None, 0.0
    for depth in range(3, 11):
        seq, const = greedy_embedding_sequence(depth, seed=seed, iterations=30, init=seq)
        assert const >= prev, (depth, const, prev)
        prev = const


@pytest.mark.parametrize("seed", [0, 1, 10 ** 6, 1_000_142, 1_000_289])
def test_greedy_scan_matches_loop_oracle_bit_for_bit(seed):
    # the chained scan of acceptance criterion 5 (seed 0) and the benchmark
    seq = ref = None
    for depth in range(3, 11):
        seq, const = greedy_embedding_sequence(depth, seed=seed, iterations=30,
                                               init=seq)
        ref, want = loop_greedy_embedding_sequence(depth, seed=seed,
                                                   iterations=30, init=ref)
        assert float(const).hex() == float(want).hex()
        assert ([float(a).hex() for a in seq.values]
                == [float(ref.get(q, 0.0)).hex() for q in seq.lattice.active_cubes])


def test_zero_extended_optimum_keeps_its_constant_one_level_deeper():
    # the deeper tree only adds zeros: the same support cubes at the same
    # positions, and uniform dyadic masses are exact, so the cube-side Gram
    # and its constant are the same bit for bit
    for seed in range(40):
        seq = None
        for depth in range(3, 11):
            seq, const = greedy_embedding_sequence(depth, seed=seed, iterations=30, init=seq)
            lat = build_lattice(1, 0, -depth - 1)
            values = np.zeros(len(lat.levels))
            values[:seq.values.size] = seq.values
            got = embedding_constant(CarlesonSequence(lat, values),
                                     uniform_measure(lat, total=1.0))
            assert float(got).hex() == float(const).hex(), (seed, depth)


def test_carleson_scan_reads_no_cube_view(monkeypatch):
    def cube_view(self):
        raise AssertionError("an array table read a per-cube view")

    for name in ("active_cubes", "nonleaf_cubes", "cube_index"):  # the per-cube views left
        monkeypatch.setattr(Lattice, name, property(cube_view))
    seq = None
    for depth in range(3, 8):
        seq, const = greedy_embedding_sequence(depth, seed=0, iterations=10, init=seq)
    mu = uniform_measure(seq.lattice, total=1.0)
    assert carleson_constant(seq, mu) == pytest.approx(1.0, rel=1e-12)
    assert embedding_constant(seq, mu) == const
    lat = build_lattice(2, 1, -2, roots=[Cube(2, 1, (-1, 0)), Cube(2, 1, (0, 0))])
    for table in ("children_index", "levels", "ancestor_index", "level_leaves",
                  "membership", "n_leaves"):
        getattr(lat, table)


@pytest.mark.parametrize("init_lattice", [
    build_lattice(1, 1, -3), build_lattice(1, 0, -3, roots=[Cube(1, 0, (1,))]),
    build_lattice(2, 0, -2)], ids=["top_level_1", "other_root", "dim_2"])
def test_greedy_init_from_another_tree_raises(init_lattice):
    init = CarlesonSequence(init_lattice, np.ones(len(init_lattice.levels)))
    with pytest.raises(ValueError, match="init"):
        greedy_embedding_sequence(4, seed=0, iterations=2, init=init)


@pytest.mark.parametrize("seed", range(5))
def test_greedy_fails_closed_on_an_overflowing_candidate(seed):
    # the carried values are finite, but a move that scales one of them up
    # overflows to inf: the candidate is rejected, not scored as C = inf
    init = CarlesonSequence(build_lattice(1, 0, -3), np.full(15, 1.7e308))
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"must be finite and nonnegative, got inf at Cube\(dim=1"):
        greedy_embedding_sequence(4, seed=seed, iterations=10, init=init)


REAL_DEFAULT_RNG = np.random.default_rng


def non_finite_uniform(value):
    """A test double for np.random.default_rng whose uniform draws are all
    `value`, and the list of (candidate, position) of each such draw: the
    number of the candidate that moved, and the cube its move landed on."""
    landed = []

    class Rng:
        candidates = 0

        def __init__(self, seed):
            self.rng, self.last = REAL_DEFAULT_RNG(seed), None

        def integers(self, high):
            if high == 3:  # a candidate starts by drawing its number of moves
                Rng.candidates += 1
            self.last = self.rng.integers(high)
            return self.last

        def standard_normal(self):
            return self.rng.standard_normal()

        def uniform(self, low, high):
            landed.append((Rng.candidates, int(self.last)))
            return value

    return Rng, landed


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_greedy_names_the_changed_cube_of_a_non_finite_move(monkeypatch, value):
    # only a candidate's changed values are checked; a bad one must still
    # raise as CarlesonSequence does, naming its cube, and at once: in the
    # candidate that made it, not when a later one is accepted or returned
    rng, landed = non_finite_uniform(value)
    monkeypatch.setattr(np.random, "default_rng", rng)
    with pytest.raises(ValueError) as exc:
        greedy_embedding_sequence(4, seed=0, iterations=10)
    assert {candidate for candidate, _ in landed} == {rng.candidates}
    cube = build_lattice(1, 0, -4).active_cubes[min(i for _, i in landed)]
    assert str(exc.value) == (f"Carleson values must be finite and nonnegative, "
                              f"got {value!r} at {cube}")


def test_negative_iterations_are_rejected():
    with pytest.raises(ValueError, match="iterations must be non-negative, got -1"):
        greedy_embedding_sequence(3, iterations=-1)
    with pytest.raises(ValueError, match="iterations must be non-negative, got -3"):
        extremal_search(SearchConfig(iterations=-3))


def test_greedy_init_from_a_deeper_tree_is_truncated():
    deep, _ = greedy_embedding_sequence(6, seed=3, iterations=10)
    seq, const = greedy_embedding_sequence(4, seed=0, iterations=5, init=deep)
    ref, want = loop_greedy_embedding_sequence(
        4, seed=0, iterations=5, init=dict(zip(deep.lattice.active_cubes, deep.values)))
    assert float(const).hex() == float(want).hex()
    assert seq.values.tolist() == [ref.get(q, 0.0) for q in seq.lattice.active_cubes]


def test_replay_tolerance_is_a_parameter():
    artifact = extremal_search(CFG).to_artifact()
    artifact["rho"] *= 1 + 1e-9
    assert not replay_artifact(artifact)[0]
    assert replay_artifact(artifact, tol=1e-6)[0]
    assert not replay_artifact(extremal_search(CFG).to_artifact(), tol=-1.0)[0]


@pytest.mark.parametrize("factor", [3.0, 0.0], ids=["tripled", "zero"])
def test_replay_compares_small_constants_relatively(factor):
    # both measures times 2^-60 scale T_mu and every constant but rho by 2^-60
    # (the norm to about 1e-17): an absolute 1e-12 would accept any stored value
    artifact = extremal_search(SearchConfig(dim=1, leaf_level=-3, iterations=5)).to_artifact()
    for name in ("mu", "nu"):
        artifact[name] = [m * 2.0 ** -60 for m in artifact[name]]
    ok, recomputed = replay_artifact(artifact)
    artifact.update(rho=recomputed["rho"], constants=recomputed["constants"])
    assert 0.0 < recomputed["constants"]["norm"] < 1e-15
    assert replay_artifact(artifact)[0]
    artifact["constants"] = {k: v * factor for k, v in recomputed["constants"].items()}
    assert not replay_artifact(artifact)[0]


@pytest.mark.parametrize("cell", [(2, 3), (1, 6)], ids=["2d_depth_3", "1d_depth_6"])
@pytest.mark.parametrize("seed", range(4))
def test_search_cells_match_the_oracles_bit_for_bit(cell, seed):
    # the search workload's cells: the artifact's text, its band as the repr-sorted
    # oracle writes it, the oracle search's rho and history, and a replay that
    # recomputes every stored constant to the bit
    dim, depth = cell
    config = SearchConfig(dim=dim, top_level=0, leaf_level=-depth, r=1, seed=seed,
                          iterations=12)
    result, want = extremal_search(config), loop_extremal_search(config)
    artifact = result.to_artifact()
    text = json.dumps(artifact)
    assert text == json.dumps({**artifact, "operator": loop_band_to_json(result.band)})
    assert result.rho == want.rho and result.history == want.history
    ok, recomputed = replay_artifact(json.loads(text))
    assert ok
    stored = {"rho": artifact["rho"], **artifact["constants"]}
    assert {k: float.hex(v) for k, v in {"rho": recomputed["rho"],
                                         **recomputed["constants"]}.items()} == {
        k: float.hex(v) for k, v in stored.items()}


@pytest.mark.parametrize("stored", [float("nan"), float("inf")])
def test_replay_rejects_non_finite_stored_constants(stored):
    artifact = json.loads(json.dumps(extremal_search(CFG).to_artifact()))
    artifact["constants"]["c_diag"] = stored
    assert not replay_artifact(json.loads(json.dumps(artifact)))[0]

"""A BandOperator is three arrays of haar_system positions and values.  The
dict of HaarIndex / RootIndex keys it used to be, and the basis_positions
arithmetic that turned it into positions, live on in tests/loop_oracle.py;
every band builder is checked against them here, bit for bit, and the hot
paths are checked to build no basis index objects."""
import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haarlab import (BandOperator, Cube, HaarIndex, RootIndex, SearchConfig, build_lattice,
                     build_paraproduct, carleson_sequence, check_band, extremal_search,
                     haar_multiplier, haar_shift, induce, random_band, replay_artifact)
from haarlab import analysis
from haarlab.io import band_from_json, band_to_json
from haarlab.operators import basis_table, haar_system, repr_order

from conftest import random_weights
from loop_oracle import (band_from_entries, basis_positions, lattice_leaves,
                         loop_haar_multiplier_entries, loop_haar_shift_entries,
                         loop_leaf_matrix, loop_random_band_entries)


@st.composite
def lattices(draw, max_dim=2):
    """Lattices of dim 1 to max_dim (at most 3) with 1-3 roots, negative
    coords too."""
    dim = draw(st.integers(1, max_dim))
    depth = draw(st.integers(1, {1: 4, 2: 3, 3: 2}[dim]))
    top = draw(st.integers(-3, 2))
    coords = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim),
                           min_size=1, max_size=3, unique=True))
    return build_lattice(dim, top, top - depth, [Cube(dim, top, c) for c in coords])


@st.composite
def band_specs(draw):
    """(lattice, r, seed, amplitude, root_amplitude): dim 1-2, r 0-2, with
    and without root blocks, and zero amplitudes."""
    lat = draw(lattices())
    amplitudes = draw(st.sampled_from([(1.0, 0.0), (1.0, 0.5), (0.0, 0.5), (0.0, 0.0)]))
    return (lat, draw(st.integers(0, 2)), draw(st.integers(0, 2 ** 32 - 1)), *amplitudes)


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(band_specs())
@settings(max_examples=60, deadline=None)
def test_random_band_arrays_match_the_dict_oracle(spec):
    lat, r, seed, amplitude, root_amplitude = spec
    band = random_band(lat, r, seed, amplitude, root_amplitude)
    entries = loop_random_band_entries(lat, r, seed, amplitude, root_amplitude)
    old = band_from_entries(lat, r, entries)
    for name in ("rows", "cols", "values"):
        assert same_bits(getattr(band, name), getattr(old, name)), name
    assert list(band.entries.items()) == list(entries.items())
    assert np.array_equal(band.leaf_matrix, loop_leaf_matrix(lat, entries))
    again = band_from_json(json.loads(json.dumps(band_to_json(band))), lat)
    order = repr_order(lat, band.rows, band.cols)  # the JSON's entry order
    for name in ("rows", "cols", "values"):
        assert same_bits(getattr(again, name), getattr(band, name)[order]), name
    assert again.entries == entries


@given(lattices(max_dim=3), st.floats(-2, 2), st.sampled_from([0.0, -0.5]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_multiplier_and_shift_arrays_match_the_dict_oracle(lat, alpha, root_alpha, seed):
    rng = np.random.default_rng(seed)
    cubes = [lat.nonleaf_cubes[i] for i in rng.permutation(len(lat.nonleaf_cubes))]
    spec = dict(zip(cubes, np.where(rng.random(len(cubes)) < 0.3, 0.0,
                                    rng.standard_normal(len(cubes))).tolist()))
    off = Cube(lat.dim, lat.top_level, (9,) * lat.dim)
    leaves = lattice_leaves(lat)
    spec.update({leaves[0]: 0.0, off: 0.0})  # zero alphas are dropped before any lookup
    pairs = [(haar_multiplier(lat, s, root_alpha),
              band_from_entries(lat, 0, loop_haar_multiplier_entries(lat, s, root_alpha)))
             for s in (alpha, spec)]
    if lat.dim == 1:
        entries, dropped = loop_haar_shift_entries(lat)
        pairs.append((haar_shift(lat), band_from_entries(lat, 1, entries,
                                                         {"dropped_terms": dropped})))
    for band, old in pairs:
        for name in ("rows", "cols", "values"):
            assert same_bits(getattr(band, name), getattr(old, name)), name
        assert (band.band_radius, band.meta) == (old.band_radius, old.meta)
        assert check_band(band, band.band_radius) == (True, None)
    for bad in (leaves[-1], off):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            haar_multiplier(lat, {bad: 1.0})
    # basis_table's maps against the oracle's position arithmetic
    indices = ([HaarIndex(q, k) for q in lat.nonleaf_cubes for k in range(2 ** lat.dim - 1)]
               + [RootIndex(root) for root in lat.roots])
    keys = [("haar" if isinstance(ix, HaarIndex) else "root", ix.cube.level, ix.cube.coords,
             getattr(ix, "component", None)) for ix in indices]
    at = basis_positions(lat, indices).tolist()
    table, _, positions, table_keys = basis_table(lat)
    assert [positions[key] for key in keys] == at
    assert [table_keys[i] for i in at] == keys and [table[i] for i in at] == indices


def test_band_arrays_are_read_only_copies_compared_by_identity():
    lat = build_lattice(1, 0, -2)
    rows, cols, values = np.array([0, 3]), np.array([3, 0]), np.array([0.5, -1.0])
    band = BandOperator(lat, 0, rows, cols, values)
    rows[0] = 1
    assert band.rows.tolist() == [0, 3]
    for x in (band.rows, band.cols, band.values):
        with pytest.raises(ValueError):
            x[0] = 0
    assert band != BandOperator(lat, 0, band.rows, band.cols, band.values)
    assert list(band.entries) == [(HaarIndex(lat.roots[0], 0), RootIndex(lat.roots[0])),
                                  (RootIndex(lat.roots[0]), HaarIndex(lat.roots[0], 0))]


def test_cached_arrays_are_read_only():
    # cached tables are shared by every caller of an equal lattice in the
    # process: build_lattice interns lattices, and the operator tables are
    # cached per lattice
    lat = build_lattice(2, 0, -2, roots=[Cube(2, 0, (0, 0)), Cube(2, 0, (1, 0))])
    band = random_band(lat, 1, seed=0, root_amplitude=0.5)
    t = induce(band, random_weights(lat, 1), random_weights(lat, 2))
    arrays = {f"Lattice.{name}": getattr(lat, name) for name in (
        "levels", "level_starts", "_first_leaf", "children_index", "ancestor_index",
        "membership")}
    arrays.update({"Lattice.level_leaves[1]": lat.level_leaves[1],
                   "basis_table rank": basis_table(lat)[1], "haar_system": haar_system(lat),
                   "MeasureGrid.leaf_mass": t.mu.leaf_mass,
                   "MeasureGrid.cube_masses": t.mu.cube_masses,
                   "MeasureGrid.haar_rows": t.mu.haar_rows[1],
                   "BandOperator.leaf_matrix": band.leaf_matrix,
                   "InducedOperator.matrix": t.matrix, "InducedOperator.chi_table": t.chi_table,
                   "InducedOperator.haar_block": t.haar_block,
                   "comparable_pairs": analysis.comparable_pairs(lat, 1),
                   "Paraproduct.haar_block": build_paraproduct(t, 1).haar_block,
                   "CarlesonSequence.values": carleson_sequence(build_paraproduct(t, 1)).values})
    for name, x in arrays.items():
        assert x.size, name
        with pytest.raises(ValueError, match="read-only"):
            x[(0,) * x.ndim] = 1
            pytest.fail(f"{name} is writeable")
    with pytest.raises(TypeError):
        lat.cube_index[lat.roots[0]] = 1


def test_comparable_pairs_are_cached_per_lattice_and_radius():
    lat = build_lattice(1, 0, -3)
    tables = {r: analysis.comparable_pairs(lat, r) for r in (0, 1)}
    assert tables[0] is not tables[1]
    assert analysis.comparable_pairs(build_lattice(1, 0, -3), 1) is tables[1]
    levels = lat.levels
    for r, table in tables.items():
        assert table.tolist() == [[abs(a - b) <= r for b in levels] for a in levels]


def sweep_op(seed):
    # one op of the benchmark's sweep workload, kind (2, 1, 3)
    lat = build_lattice(2, 0, -3)
    band = random_band(lat, 1, seed=seed)
    t = induce(band, random_weights(lat, 3 * seed + 1), random_weights(lat, 3 * seed + 2))
    return np.isfinite(analysis.testing_constants(t, 1).rho)


def search_op(seed):
    # one op of the benchmark's search workload, with root blocks
    result = extremal_search(SearchConfig(dim=1, leaf_level=-4, r=1, seed=seed,
                                          iterations=6, root_amplitude=0.5))
    return replay_artifact(json.loads(json.dumps(result.to_artifact())))[0]


def verify_op(seed):
    # the band part of one run of the verify suite: the paper's multiplier
    # and shift, each checked by a passing check_band
    lat = build_lattice(1, 0, -4)
    bands = (haar_multiplier(lat, 0.5 + seed, root_alpha=0.5),
             haar_multiplier(lat, dict.fromkeys(lat.nonleaf_cubes[seed:], 2.0)), haar_shift(lat))
    return all(check_band(band, band.band_radius)[0] for band in bands)


@pytest.mark.parametrize("op", [sweep_op, search_op, verify_op])
def test_hot_paths_build_no_basis_index_objects(monkeypatch, op):
    assert op(0)  # warm-up: fills the lattice's cached basis tables
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls in (HaarIndex, RootIndex):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    assert op(1)
    assert calls == {}

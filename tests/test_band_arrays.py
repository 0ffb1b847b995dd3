"""A BandOperator is three arrays of haar_system positions and values.  The
dict of HaarIndex / RootIndex keys it used to be lives on in
tests/loop_oracle.py, and every array path is checked against it here, bit
for bit; the hot paths are checked to build no basis index objects."""
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haarlab import (BandOperator, Cube, HaarIndex, RootIndex, SearchConfig, build_lattice,
                     extremal_search, induce, random_band, replay_artifact)
from haarlab import analysis, operators as operators_module
from haarlab.io import band_from_json, band_to_json
from haarlab.operators import repr_order

from conftest import random_weights
from loop_oracle import loop_leaf_matrix, loop_random_band_entries


@st.composite
def band_specs(draw):
    """(lattice, r, seed, amplitude, root_amplitude): dim 1-2, 1-3 roots
    (negative coords too), r 0-2, with and without root blocks, and zero
    amplitudes."""
    dim = draw(st.integers(1, 2))
    depth = draw(st.integers(1, 4 if dim == 1 else 3))
    top = draw(st.integers(-3, 2))
    coords = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim),
                           min_size=1, max_size=3, unique=True))
    lat = build_lattice(dim, top, top - depth, [Cube(dim, top, c) for c in coords])
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
    old = BandOperator.from_entries(lat, r, entries)
    for name in ("rows", "cols", "values"):
        assert same_bits(getattr(band, name), getattr(old, name)), name
    assert list(band.entries.items()) == list(entries.items())
    assert np.array_equal(band.leaf_matrix, loop_leaf_matrix(lat, entries))
    again = band_from_json(json.loads(json.dumps(band_to_json(band))), lat)
    order = repr_order(lat, band.rows, band.cols)  # the JSON's entry order
    for name in ("rows", "cols", "values"):
        assert same_bits(getattr(again, name), getattr(band, name)[order]), name
    assert again.entries == entries


def test_band_arrays_are_read_only_copies_compared_by_identity():
    lat = build_lattice(1, 0, -2)
    rows, cols, values = np.array([0, 3]), np.array([3, 0]), np.array([0.5, -1.0])
    band = BandOperator(lat, 0, rows, cols, values)
    rows[0] = 1
    assert band.rows.tolist() == [0, 3] and band.positions() == (band.rows, band.cols)
    for x in (band.rows, band.cols, band.values):
        with pytest.raises(ValueError):
            x[0] = 0
    assert band != BandOperator(lat, 0, band.rows, band.cols, band.values)
    assert list(band.entries) == [(HaarIndex(lat.roots[0], 0), RootIndex(lat.roots[0])),
                                  (RootIndex(lat.roots[0]), HaarIndex(lat.roots[0], 0))]


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


@pytest.mark.parametrize("op", [sweep_op, search_op])
def test_hot_paths_build_no_basis_index_objects(monkeypatch, op):
    assert op(0)  # warm-up: fills the lattice's cached basis tables
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(operators_module, "basis_positions",
                        counted("basis_positions", operators_module.basis_positions))
    for cls in (HaarIndex, RootIndex):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    assert op(1)
    assert calls == {}

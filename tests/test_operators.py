import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from haarlab import (Cube, HaarIndex, InducedOperator,
                     MeasureGrid, RootIndex, build_lattice,
                     check_band, check_well_localized, haar_multiplier,
                     haar_shift, haar_system, induce, random_band,
                     tree_distance, uniform_measure)
from haarlab import lattice as lattice_module, operators as operators_module
from haarlab.io import band_from_json, band_to_json
from haarlab.operators import basis_table, repr_order

from conftest import random_instance, random_weights
from loop_oracle import (basis_positions, cube_children, loop_band_to_json,
                         loop_check_well_localized, loop_comparable_pairing_count,
                         oracle_close)


def test_haar_system_is_orthonormal():
    lat = build_lattice(2, 0, -2)
    rows = haar_system(lat)
    assert rows.shape == (lat.n_leaves, lat.n_leaves)
    gram = lat.leaf_volume * (rows @ rows.T)
    np.testing.assert_allclose(gram, np.eye(lat.n_leaves), atol=1e-12)
    with pytest.raises(ValueError):
        rows[0, 0] = 1.0


def test_haar_system_index_layout():
    lat = build_lattice(1, 0, -2)
    haar = [HaarIndex(q, 0) for q in lat.nonleaf_cubes]
    assert len(haar) == 3
    assert basis_positions(lat, haar + [RootIndex(lat.roots[0])]).tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("index", [
    HaarIndex(Cube(1, -2, (0,)), 0), HaarIndex(Cube(1, 5, (99,)), 0),
    HaarIndex(Cube(1, 0, (0,)), 1), HaarIndex(Cube(1, 0, (0,)), -1),
    HaarIndex(Cube(2, 0, (0, 0)), 0), RootIndex(Cube(1, -1, (0,))),
    RootIndex(Cube(1, 0, (1,))), Cube(1, 0, (0,))],
    ids=["leaf", "outside", "component_1_in_1d", "negative_component", "other_dim",
         "root_not_a_root", "root_outside", "not_an_index"])
def test_basis_positions_reject_indices_outside_the_system(index):
    # the oracle the builders are checked against fails closed; the same
    # indices as JSON are test_cli's BAD_INDICES, read by band_from_json
    lat = build_lattice(1, 0, -2)
    with pytest.raises(ValueError):
        basis_positions(lat, [index])


def test_zero_multiplier_is_zero_matrix():
    lat = build_lattice(1, 0, -2)
    op = haar_multiplier(lat, 0.0)
    np.testing.assert_allclose(op.leaf_matrix, 0.0)


def test_unit_multiplier_subtracts_root_average():
    lat = build_lattice(1, 0, -3)
    op = haar_multiplier(lat, {q: 1.0 for q in lat.nonleaf_cubes})
    rng = np.random.default_rng(0)
    f = rng.standard_normal(lat.n_leaves)
    np.testing.assert_allclose(op.leaf_matrix @ f, f - f.mean(), atol=1e-12)


def test_unit_multiplier_with_root_block_is_identity():
    lat = build_lattice(1, 0, -3)
    op = haar_multiplier(lat, 1.0, root_alpha=1.0)
    np.testing.assert_allclose(op.leaf_matrix, np.eye(lat.n_leaves), atol=1e-12)


def test_root_multiplier_on_half_indicator():
    lat = build_lattice(1, 0, -1)
    op = haar_multiplier(lat, {Cube(1, 0, (0,)): 1.0})
    left = lat.indicator(Cube(1, -1, (0,)))
    # T chi_left = (chi_left, h) h = 1/2 chi_left - 1/2 chi_right
    np.testing.assert_allclose(op.leaf_matrix @ left, [0.5, -0.5], atol=1e-12)


def test_multiplier_band_radius_zero():
    lat = build_lattice(2, 0, -2)
    op = haar_multiplier(lat, 0.7)
    ok, witness = check_band(op, 0)
    assert ok and witness is None


def test_shift_moves_haar_functions_down():
    lat = build_lattice(1, 0, -3)
    op = haar_shift(lat)
    rows = haar_system(lat)

    def haar(cube):
        return rows[basis_positions(lat, [HaarIndex(cube, 0)])[0]]

    q = Cube(1, -1, (0,))
    left, right = cube_children(q)
    np.testing.assert_allclose(op.leaf_matrix @ haar(q), haar(right) - haar(left), atol=1e-12)


HAAR = {"kind": "haar", "cube": {"level": -1, "coords": [2]}, "component": 0}
ROOT = {"kind": "root", "cube": {"level": 0, "coords": [1]}}


@pytest.mark.parametrize("spec", [
    {"type": "multiplier", "alpha": 0.7},
    {"type": "multiplier", "alpha": -1.5, "root_alpha": 2},
    {"type": "shift"},
    {"type": "random_band", "r": 2, "seed": 4, "root_amplitude": 0.5},
    {"type": "explicit", "r": 1, "entries": [{"row": HAAR, "col": ROOT, "value": 0.25},
                                             {"row": ROOT, "col": ROOT, "value": -1.0}]}],
    ids=["multiplier", "multiplier_root_alpha", "shift", "random_band_roots", "explicit"])
def test_band_json_round_trip(spec):
    lat = build_lattice(1, 0, -4, [Cube(1, 0, (0,)), Cube(1, 0, (1,))])
    band = band_from_json(spec, lat)
    again = band_from_json(json.loads(json.dumps(band_to_json(band))), lat)
    assert again.entries == band.entries
    assert np.array_equal(again.leaf_matrix, band.leaf_matrix)


@st.composite
def deep_bands(draw):
    """(lattice, r, seed, root_amplitude) of a random band: dim 1-3, 1-3
    roots (negative coords too), top levels -9..3 and leaf levels down to
    -15, at most 2^6 leaves per root."""
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 6 // dim))
    top = draw(st.integers(-9, 3))
    coords = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim),
                           min_size=1, max_size=3, unique=True))
    lat = build_lattice(dim, top, top - depth, roots=[Cube(dim, top, c) for c in coords])
    return (lat, draw(st.integers(0, 2)), draw(st.integers(0, 99)),
            draw(st.sampled_from([0.0, 0.5])))


@given(deep_bands())
@example((build_lattice(1, -1, -11, [Cube(1, -1, (-1,))]), 2, 0, 0.5))  # "level=-1" < "level=-10"
@settings(max_examples=40, deadline=None)
def test_rank_order_is_repr_order(spec):
    lat, r, seed, root_amplitude = spec
    band = random_band(lat, r, seed=seed, root_amplitude=root_amplitude)
    keys, (indices, rank, *_) = list(band.entries), basis_table(lat)
    assert np.array_equal(basis_positions(lat, indices), np.arange(len(indices)))
    assert [keys[i] for i in repr_order(lat, band.rows, band.cols)] == sorted(keys, key=repr)
    assert [indices[i] for i in np.argsort(rank)] == sorted(indices, key=repr)
    assert band_to_json(band) == loop_band_to_json(band)
    assert band_from_json(band_to_json(band), lat).entries == band.entries


@given(deep_bands(), st.integers(0, 2 ** 32 - 1), st.booleans())
@settings(max_examples=40, deadline=None)
def test_chi_tables_hold_the_images_of_indicators(spec, seed, dense):
    lat, r, band_seed, root_amplitude = spec
    rng = np.random.default_rng(seed)
    mu, nu = (MeasureGrid(lat, np.where(rng.random(lat.n_leaves) < 0.3, 0.0,
                                        rng.uniform(0.1, 2.0, lat.n_leaves)))
              for _ in range(2))
    if dense:
        t = InducedOperator(lat, mu, nu, rng.standard_normal((lat.n_leaves,) * 2))
    else:
        t = induce(random_band(lat, r, seed=band_seed, root_amplitude=root_amplitude), mu, nu)
    for table, op in ((t.chi_table, t.matrix), (t.adjoint.chi_table, t.adjoint.matrix)):
        want = np.array([op @ lat.indicator(q) for q in lat.active_cubes]).T
        assert oracle_close(table, want)


def test_shift_band_structure():
    lat = build_lattice(1, 0, -3)
    op = haar_shift(lat)
    assert check_band(op, 1)[0]
    ok, witness = check_band(op, 0)
    assert not ok and witness is not None


def test_shift_drops_terms_at_leaf_level():
    lat = build_lattice(1, 0, -3)
    assert haar_shift(lat).meta["dropped_terms"] == 4


def test_shift_requires_dimension_one():
    with pytest.raises(ValueError):
        haar_shift(build_lattice(2, 0, -2))


def test_random_band_deterministic_in_seed():
    lat = build_lattice(1, 0, -3)
    a = random_band(lat, 1, seed=42, root_amplitude=0.5)
    b = random_band(lat, 1, seed=42, root_amplitude=0.5)
    assert a.entries == b.entries
    c = random_band(lat, 1, seed=43, root_amplitude=0.5)
    assert a.entries != c.entries


def test_random_band_respects_radius():
    lat = build_lattice(1, 0, -4)
    op = random_band(lat, 2, seed=1)
    assert check_band(op, 2)[0]
    ok, witness = check_band(op, 1)
    assert not ok
    # the witness is two haar_system positions, both Haar rows (no root)
    row, col = (basis_table(lat)[0][i] for i in witness)
    assert isinstance(row, HaarIndex) and isinstance(col, HaarIndex)
    assert tree_distance(col.cube, row.cube) > 1
    # adjacent roots share a parent above top_level: at r = 2 the band pairs
    # the roots' own Haar functions (tree distance 2)
    left, right = Cube(1, 0, (0,)), Cube(1, 0, (1,))
    op = random_band(build_lattice(1, 0, -3, [left, right]), 2, seed=3)
    assert (HaarIndex(right, 0), HaarIndex(left, 0)) in op.entries
    assert (HaarIndex(left, 0), HaarIndex(right, 0)) in op.entries
    assert check_band(op, 2)[0]
    ok, witness = check_band(op, 1)
    assert not ok and witness is not None


def test_random_band_does_not_scan_tree_distance(monkeypatch):
    """random_band finds its pairs without calling tree_distance on every
    pair of cubes."""
    def refuse(q, r):
        raise AssertionError("random_band called tree_distance")

    monkeypatch.setattr(lattice_module, "tree_distance", refuse)
    monkeypatch.setattr(operators_module, "tree_distance", refuse)
    lat = build_lattice(1, 0, -10)
    assert len(random_band(lat, 2, seed=0).entries) > 0
    roots = [Cube(2, 0, (c, 0)) for c in (-1, 0, 1)]
    assert len(random_band(build_lattice(2, 0, -3, roots), 1, seed=0,
                           root_amplitude=0.5).entries) > 0


def test_random_band_zero_amplitude():
    lat = build_lattice(1, 0, -2)
    op = random_band(lat, 1, seed=0, amplitude=0.0)
    np.testing.assert_allclose(op.leaf_matrix, 0.0)


@pytest.mark.parametrize("name", ["amplitude", "root_amplitude"])
def test_random_band_rejects_an_amplitude_whose_range_overflows(name):
    # rng.uniform(-a, a) raised numpy's OverflowError for a >= 2**1023
    lat = build_lattice(1, 0, -2)
    largest = np.finfo(float).max / 2  # 2 * largest is the largest float
    assert np.abs(random_band(lat, 1, seed=0, **{name: largest}).values).max() <= largest
    for bad in (2.0 ** 1023, 1e308, -1.0, float("nan")):
        with pytest.raises(ValueError, match=f"^random_band {name} must be nonnegative and below"):
            random_band(lat, 1, seed=0, **{name: bad})


def test_induce_with_lebesgue_weights_is_plain_matrix():
    lat = build_lattice(1, 0, -3)
    band = random_band(lat, 1, seed=2)
    leb = uniform_measure(lat)
    t = induce(band, leb, leb)
    np.testing.assert_allclose(t.matrix, band.leaf_matrix)


def test_identity_band_induces_multiplication_by_density():
    lat = build_lattice(1, 0, -2)
    band = haar_multiplier(lat, 1.0, root_alpha=1.0)
    mu = MeasureGrid(lat, [1.0, 2.0, 0.0, 4.0])
    nu = uniform_measure(lat)
    t = induce(band, mu, nu)
    np.testing.assert_allclose(t.matrix, np.diag(mu.density()), atol=1e-12)


def test_induce_rejects_lattice_mismatch():
    band = random_band(build_lattice(1, 0, -2), 0, seed=0)
    other = uniform_measure(build_lattice(1, 0, -3))
    with pytest.raises(ValueError):
        induce(band, other, other)


def test_bilinear_matches_entrywise_assembly():
    """<T_mu chi_Q, chi_R>_nu recomputed entry by entry from the sparse form."""
    lat = build_lattice(1, 0, -3)
    band = random_band(lat, 1, seed=5, root_amplitude=0.3)
    mu = random_weights(lat, 10)
    nu = random_weights(lat, 11)
    t = induce(band, mu, nu)
    rows = haar_system(lat)
    for q in (Cube(1, 0, (0,)), Cube(1, -1, (1,)), Cube(1, -2, (2,))):
        for rr in (Cube(1, 0, (0,)), Cube(1, -2, (1,)), Cube(1, -3, (5,))):
            qind, rind = lat.indicator(q), lat.indicator(rr)
            want = 0.0
            for (row, col), val in band.entries.items():
                (i, j) = basis_positions(lat, [row, col])
                in_part = np.sum(qind * mu.leaf_mass * rows[j])
                out_part = np.sum(rind * nu.leaf_mass * rows[i])
                want += val * in_part * out_part
            got = np.sum((t.matrix @ qind) * rind * nu.leaf_mass)
            assert got == pytest.approx(want, abs=1e-12)


def test_adjoint_duality():
    for seed in range(20):
        t = random_instance(1, 3, 1, seed, zero_fraction=0.2, root_amplitude=0.4)
        rng = np.random.default_rng(seed + 1000)
        f, g = rng.standard_normal((2, t.lattice.n_leaves))
        lhs = t.nu.inner(t.matrix @ f, g)
        rhs = t.mu.inner(f, t.adjoint.matrix @ g)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("dim,depth,r", [(1, 3, 0), (1, 4, 1), (1, 4, 2),
                                         (2, 2, 1), (2, 3, 2)])
def test_induced_band_operator_is_well_localized(dim, depth, r):
    t = random_instance(dim, depth, r, seed=depth * 10 + r,
                        zero_fraction=0.25, root_amplitude=0.5)
    rep = check_well_localized(t, r)
    assert rep.passed, rep.witness
    assert rep.max_violation <= 1e-12


def test_zero_operator_is_well_localized():
    lat = build_lattice(1, 0, -2)
    leb = uniform_measure(lat)
    t = induce(haar_multiplier(lat, 0.0), leb, leb)
    rep = check_well_localized(t, 0)
    assert rep.passed and rep.scale == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_pairing_is_not_well_localized(bad):
    lat = build_lattice(1, 0, -3)
    leb = uniform_measure(lat)
    mat = np.eye(lat.n_leaves)
    mat[5, 2] = bad
    with np.errstate(over="ignore", invalid="ignore"):  # as the runner calls it
        rep = check_well_localized(InducedOperator(lat, leb, leb, mat), 0)
    assert not rep.passed
    assert not np.isfinite(rep.scale)


def test_dense_leaf_matrix_is_not_well_localized():
    lat = build_lattice(1, 0, -3)
    rng = np.random.default_rng(8)
    mat = rng.standard_normal((lat.n_leaves, lat.n_leaves))
    leb = uniform_measure(lat)
    t = InducedOperator(lat, leb, leb, mat)
    rep = check_well_localized(t, 0)
    assert not rep.passed
    assert rep.witness is not None
    assert rep.max_violation > 1e-6


def test_comparable_pairing_count_bounds():
    lat = build_lattice(1, 0, -3)
    leb = uniform_measure(lat)
    t0 = induce(haar_multiplier(lat, 1.0), leb, leb)
    assert loop_comparable_pairing_count(t0, 0) == 1
    t1 = random_instance(1, 4, 1, seed=3)
    # a cube pairs with itself, its parent and its two children at most
    assert 1 <= loop_comparable_pairing_count(t1, 1) <= 4


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("dim,depth,r", [(1, 3, 0), (1, 4, 1), (1, 4, 2),
                                         (2, 3, 1), (2, 3, 0)])
def test_locality_scans_match_loop_oracle(dim, depth, r, dense):
    seed = dim * 100 + depth * 10 + r
    t = random_instance(dim, depth, r, seed, zero_fraction=0.25, root_amplitude=0.5)
    if dense:
        rng = np.random.default_rng(seed)
        t = InducedOperator(t.lattice, t.mu, t.nu, rng.standard_normal(t.matrix.shape))
    rep = check_well_localized(t, r)
    assert rep == loop_check_well_localized(t, r)
    assert rep.passed != dense

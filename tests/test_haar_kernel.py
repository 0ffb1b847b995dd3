"""MeasureGrid.haar_rows, the closed form of Gram-Schmidt over each cube's
positive-mass children, against the per-cube Gram-Schmidt loop in
loop_oracle.py.  Number a cube's m positive-mass children 0 to m - 1 and
let R_k be child 0 with children k + 1 to m - 1: vector k is
sqrt(m_R / (m_k + m_R)) / sqrt(m_k) on child k,
-sqrt(m_k / (m_k + m_R)) / sqrt(m_R) on R_k and exactly 0 elsewhere.  The
two round differently, so each row must lie within DRIFT of the loop's
largest entry, with the loop's signs wherever the closed form is nonzero;
the closed form is 0 on children 1 to k - 1, where the loop leaves
round-off.

Instances are 1D-3D lattices (3D is the only case where a cube's child
sums have 8 terms, and numpy sums 8 terms pairwise) with one to three
roots, measures with zero-mass leaves, and the uniform measure.  One
lattice per dimension gives every pattern of positive-mass children to
some root.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from haarlab import Cube, MeasureGrid, build_lattice, haar_system, uniform_measure

from loop_oracle import (basis_positions, lattice_leaves, loop_haar_rows, loop_haar_system,
                         loop_weighted_haar_basis)


DRIFT = 1e-15


def close(got, want, drift=DRIFT):
    """Each row of got within `drift` of the largest entry of want's row,
    with want's sign bits where got is nonzero and 0 wherever want is 0."""
    if got.shape != want.shape:
        return False
    scale = np.max(np.abs(want), axis=-1, keepdims=True, initial=0.0)
    return bool(np.all(np.abs(got - want) <= drift * scale)
                and np.all((np.signbit(got) == np.signbit(want)) | (got == 0))
                and np.all(got[want == 0] == 0))


@st.composite
def lattices(draw):
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(1, {1: 5, 2: 3, 3: 2}[dim]))
    coords = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True))
    return build_lattice(dim, 0, -depth,
                         [Cube(dim, 0, (c,) + (0,) * (dim - 1)) for c in coords])


@st.composite
def measures(draw):
    lat = draw(lattices())
    if draw(st.booleans()):
        return uniform_measure(lat)
    masses = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]),
                       st.floats(0.01, 4.0))
    return MeasureGrid(lat, draw(arrays(float, lat.n_leaves, elements=masses)))


def check_against_loop(mu, drift=DRIFT):
    cubes, rows = mu.haar_rows
    want_cubes, want_rows = loop_haar_rows(mu)
    assert np.array_equal(cubes, want_cubes)
    assert close(rows, want_rows, drift)
    for q in mu.lattice.nonleaf_cubes:
        want = loop_weighted_haar_basis(mu, q)
        assert close(mu.weighted_haar_basis(q),
                     np.array(want).reshape(-1, mu.lattice.n_leaves), drift)
    with pytest.raises(ValueError):
        mu.weighted_haar_basis(lattice_leaves(mu.lattice)[0])


@settings(max_examples=80, deadline=None)
@given(mu=measures())
def test_haar_rows_match_loop_oracle(mu):
    check_against_loop(mu)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_haar_rows_match_loop_oracle_on_every_children_pattern(dim):
    # depth 1, root i: its children carry mass exactly on the set bits of i
    n = 2 ** dim
    lat = build_lattice(dim, 0, -1, [Cube(dim, 0, (i,) + (0,) * (dim - 1))
                                     for i in range(2 ** n)])
    alive = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    masses = alive * np.random.default_rng(dim).uniform(0.1, 3.0, alive.shape)
    mu = MeasureGrid(lat, masses.ravel())
    check_against_loop(mu)
    assert np.array_equal(np.bincount(mu.haar_rows[0], minlength=2 ** n),
                          np.maximum(alive.sum(axis=1) - 1, 0))


def test_haar_rows_sign_pattern():
    # number a cube's m positive-mass children 0 to m - 1: its vector k
    # (k = 1 to m - 1) is positive on child k, negative on child 0 and on the
    # children after k, and exactly zero on children 1 to k - 1
    lat = build_lattice(2, 0, -1)
    rows = MeasureGrid(lat, [1.0, 2.0, 3.0, 4.0]).haar_rows[1]
    assert np.sign(rows[0]).tolist() == [-1, 1, -1, -1]
    for masses in ([1.0, 2.0, 3.0, 4.0], [1.0, 0.0, 3.0, 4.0]):
        rows = MeasureGrid(lat, masses).haar_rows[1]
        alive = np.flatnonzero(masses)
        assert len(rows) == alive.size - 1 and np.all(rows[:, np.asarray(masses) == 0] == 0)
        for k, row in enumerate(rows[:, alive], start=1):
            assert row[k] > 0 and np.all(row[[0, *range(k + 1, alive.size)]] < 0)
            assert np.all(row[1:k] == 0)


@settings(max_examples=60, deadline=None)
@given(mu=measures(), scale=st.sampled_from([1e-300, 1.0, 1e300]))
def test_haar_rows_at_extreme_mass_scales(mu, scale):
    # m_k * (m_k + m_R) would overflow at 1e300 and lose the rows to 0
    mu = MeasureGrid(mu.lattice, mu.leaf_mass * scale)
    check_against_loop(mu)
    cubes, rows = mu.haar_rows
    assert np.all(np.isfinite(rows))
    # orthonormal, and orthogonal to the normalized indicator of its cube
    w = rows * mu.leaf_mass
    assert np.max(np.abs(w @ rows.T - np.eye(len(rows))), initial=0.0) <= 1e-14
    mass = mu.cube_masses[cubes]
    assert np.all(np.abs(w.sum(axis=1)) <= 1e-14 * np.sqrt(mass))


@settings(max_examples=30, deadline=None)
@given(lat=lattices())
def test_haar_system_matches_loop_oracle(lat):
    indices, rows = loop_haar_system(lat)
    assert close(haar_system(lat), rows)
    # the position rule puts the loop's indices in the loop's order
    assert np.array_equal(basis_positions(lat, indices), np.arange(len(indices)))


def test_haar_rows_match_loop_oracle_past_64_children():
    # dim 7: 128 children per cube, ranks past 64; roots 0 and 1 differ
    # only in child 100, roots 0 and 2 only in child 63.  The loop's
    # Gram-Schmidt rounds in up to 127 projections per vector: in float64
    # (where longdouble is float64) it leaves 1.8e-15 of a row's largest
    # entry on a child where the row is exactly 0 under the uniform measure,
    # so the bound is 4 * DRIFT here
    dim, n = 7, 128
    lat = build_lattice(dim, 0, -1, [Cube(dim, 0, (i,) + (0,) * (dim - 1))
                                     for i in range(4)])
    alive = np.ones((4, n), dtype=bool)
    alive[:3, [5, 63, 70, 127]] = False
    alive[1, 100] = False
    alive[2, 63] = True
    masses = alive * np.random.default_rng(7).uniform(0.1, 3.0, alive.shape)
    mu = MeasureGrid(lat, masses.ravel())
    check_against_loop(mu, 4 * DRIFT)
    assert np.array_equal(np.bincount(mu.haar_rows[0], minlength=4), alive.sum(axis=1) - 1)
    check_against_loop(uniform_measure(lat), 4 * DRIFT)

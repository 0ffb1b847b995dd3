"""MeasureGrid.haar_rows, one array Gram-Schmidt per measure, against the
per-cube loop in loop_oracle.py: values and sign bits must be equal.

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

from loop_oracle import (basis_positions, loop_haar_rows, loop_haar_system,
                         loop_weighted_haar_basis)


def same(got, want):
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


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


def check_against_loop(mu):
    cubes, rows = mu.haar_rows
    want_cubes, want_rows = loop_haar_rows(mu)
    assert np.array_equal(cubes, want_cubes)
    assert same(rows, want_rows)
    for q in mu.lattice.nonleaf_cubes:
        want = loop_weighted_haar_basis(mu, q)
        assert same(mu.weighted_haar_basis(q), np.array(want).reshape(-1, mu.lattice.n_leaves))
    with pytest.raises(ValueError):
        mu.weighted_haar_basis(mu.lattice.leaves[0])


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
    # children after k, and zero up to round-off on children 1 to k - 1
    lat = build_lattice(2, 0, -1)
    rows = MeasureGrid(lat, [1.0, 2.0, 3.0, 4.0]).haar_rows[1]
    assert np.sign(rows[0]).tolist() == [-1, 1, -1, -1]
    for masses in ([1.0, 2.0, 3.0, 4.0], [1.0, 0.0, 3.0, 4.0]):
        rows = MeasureGrid(lat, masses).haar_rows[1]
        alive = np.flatnonzero(masses)
        assert len(rows) == alive.size - 1 and np.all(rows[:, np.asarray(masses) == 0] == 0)
        for k, row in enumerate(rows[:, alive], start=1):
            assert row[k] > 0 and np.all(row[[0, *range(k + 1, alive.size)]] < 0)
            assert np.all(np.abs(row[1:k]) <= 1e-15)


@settings(max_examples=30, deadline=None)
@given(lat=lattices())
def test_haar_system_matches_loop_oracle(lat):
    indices, rows = loop_haar_system(lat)
    assert same(haar_system(lat), rows)
    # the position rule puts the loop's indices in the loop's order
    assert np.array_equal(basis_positions(lat, indices), np.arange(len(indices)))


def test_haar_rows_match_loop_oracle_past_64_children():
    # dim 7: 128 children per cube, more than one 64-bit word of alive bits;
    # roots 0 and 1 differ only in child 100, roots 0 and 2 only in child 63
    dim, n = 7, 128
    lat = build_lattice(dim, 0, -1, [Cube(dim, 0, (i,) + (0,) * (dim - 1))
                                     for i in range(4)])
    alive = np.ones((4, n), dtype=bool)
    alive[:3, [5, 63, 70, 127]] = False
    alive[1, 100] = False
    alive[2, 63] = True
    masses = alive * np.random.default_rng(7).uniform(0.1, 3.0, alive.shape)
    mu = MeasureGrid(lat, masses.ravel())
    check_against_loop(mu)
    assert np.array_equal(np.bincount(mu.haar_rows[0], minlength=4), alive.sum(axis=1) - 1)
    check_against_loop(uniform_measure(lat))

"""The array martingale layer (Lattice.ancestor_index, Lattice.inside,
MeasureGrid.level_deltas and what is built on them, random_band included)
against the per-cube loop versions in loop_oracle.py.

Instances are 1D and 2D lattices with one to three roots (some of them
not adjacent), depths 1-5 (2D to 3), measures with zero-mass leaves,
r from 0 to 2, band operators and dense leaf matrices; random_band is
also compared on r up to depth + 2 and on a 3D lattice.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from haarlab import (Cube, InducedOperator, Lattice, MeasureGrid,
                     build_lattice, build_paraproduct, carleson_sequence,
                     check_band, check_well_localized, decomposition_identity,
                     induce, operator_norm, paraproduct_structure_verify,
                     random_band)

from loop_oracle import (cube_contains, loop_build_paraproduct, loop_carleson_values,
                         loop_check_well_localized, loop_comparable_sum,
                         loop_delta_level_within, loop_haar_block,
                         loop_martingale_difference,
                         loop_paraproduct_structure_verify, loop_random_band,
                         oracle_close, paraproduct_matrix)

# The comparable-scale sum of decomposition_identity is one level-masked
# matrix sum instead of a running sum over cube pairs, so it is not
# bit-exact.  Each pair term is at most ||T_mu|| ||f||_mu ||g||_nu, and
# there are at most (2r + 1) comparable levels per level, so round-off is
# bounded relative to that scale.
COMPARABLE_RTOL = 1e-12


@st.composite
def lattices(draw, max_depth=5, max_coord=2):
    dim = draw(st.sampled_from([1, 2]))
    depth = draw(st.integers(1, max_depth if dim == 1 else min(max_depth, 3)))
    coords = draw(st.lists(st.integers(-max_coord, max_coord), min_size=1, max_size=3,
                           unique=True))
    return build_lattice(dim, 0, -depth,
                         [Cube(dim, 0, (c,) + (0,) * (dim - 1)) for c in coords])


def measures(draw, lat):
    masses = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]),
                       st.floats(0.01, 4.0))
    return MeasureGrid(lat, draw(arrays(float, lat.n_leaves, elements=masses)))


@st.composite
def instances(draw):
    """(t_mu, r) with depth > r, from a random_band (checked to be a band of
    radius r) or a dense leaf matrix."""
    r = draw(st.integers(0, 2))
    lat = draw(lattices().filter(lambda lat: lat.depth > r))
    mu, nu = measures(draw, lat), measures(draw, lat)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        band = random_band(lat, r, seed=seed,
                           root_amplitude=draw(st.sampled_from([0.0, 0.4])))
        assert check_band(band, r)[0]
        return induce(band, mu, nu), r
    matrix = np.random.default_rng(seed).standard_normal((lat.n_leaves,) * 2)
    return InducedOperator.from_leaf_matrix(matrix, mu, nu), r


@settings(max_examples=60, deadline=None)
@given(data=st.data(), lat=st.one_of(lattices(), lattices(max_coord=9)))
def test_ancestor_index_and_inside_match_cubes(data, lat):
    # root coordinates up to 9 have 4 bits: the rows above the top reach the
    # roots' fixed point, and up past it is compared too
    up = data.draw(st.integers(0, lat.depth + 5))
    cubes = lat.active_cubes
    for k, row in enumerate(lat.ancestor_index):
        assert [cubes[i] for i in row] == [q.ancestor(lat.depth - k) for q in lat.leaves]
    pos = np.arange(len(cubes))
    want = [[cube_contains(outer.ancestor(up), inner) for outer in cubes] for inner in cubes]
    assert lat.inside(pos, pos, up=up).tolist() == want


AMPLITUDES = [(1.0, 0.0), (1.0, 0.5), (0.0, 0.5)]


def assert_band_matches_loop_oracle(lat, r, seed, amplitudes):
    new = random_band(lat, r, seed, *amplitudes)
    old = loop_random_band(lat, r, seed, *amplitudes)
    assert list(new.entries.items()) == list(old.entries.items())


@settings(max_examples=60, deadline=None)
@given(data=st.data(), lat=lattices(), seed=st.integers(0, 2 ** 32 - 1),
       amplitudes=st.sampled_from(AMPLITUDES))
def test_random_band_matches_loop_oracle(data, lat, seed, amplitudes):
    r = data.draw(st.integers(0, lat.depth + 2))
    assert_band_matches_loop_oracle(lat, r, seed, amplitudes)


@pytest.mark.parametrize("amplitudes", AMPLITUDES)
@pytest.mark.parametrize("r", range(5))
def test_random_band_matches_loop_oracle_3d(r, amplitudes):
    lat = build_lattice(3, 0, -2, [Cube(3, 0, (0, 0, 0)), Cube(3, 0, (1, 0, 0))])
    assert_band_matches_loop_oracle(lat, r, 7 + r, amplitudes)


@pytest.mark.parametrize("lat", [
    build_lattice(1, 0, -3),
    build_lattice(1, 0, -3, [Cube(1, 0, (c,)) for c in (-3, 0, 5)]),
    build_lattice(1, 2, -1, [Cube(1, 2, (c,)) for c in (-1, 1)]),
    build_lattice(2, 0, -2, [Cube(2, 0, c) for c in ((-1, 2), (3, -4), (0, 0))]),
], ids=["1d", "1d-roots", "1d-top2", "2d-roots"])
def test_random_band_radius_beyond_the_tree(lat, monkeypatch):
    # from u = depth + (largest bit length of a root coordinate) on, every
    # ancestor key is 0 or -1: cubes that ever meet have met by then, at tree
    # distance at most 2u + depth - 1
    last = lat.depth + max(c.bit_length() for root in lat.roots for c in root.coords)
    at_bound = random_band(lat, 2 * last + lat.depth - 1, 5, 1.0, 0.5)
    calls, inside = [], Lattice.inside

    def counted(*args, **kwargs):
        calls.append(1)
        assert len(calls) <= last + 2  # one mask per u, one for the root block
        return inside(*args, **kwargs)

    monkeypatch.setattr(Lattice, "inside", counted)
    huge = list(random_band(lat, 10 ** 9, 5, 1.0, 0.5).entries.items())
    assert huge == list(at_bound.entries.items())
    assert huge == list(loop_random_band(lat, 10 ** 9, 5, 1.0, 0.5).entries.items())


@settings(max_examples=60, deadline=None)
@given(data=st.data(), lat=lattices())
def test_level_deltas_match_loop_oracle(data, lat):
    mu = measures(data.draw, lat)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.standard_normal((3, lat.n_leaves))
    levels = list(range(lat.top_level, lat.leaf_level, -1))
    got = mu.level_deltas(values, levels)
    assert got.shape == (3, len(levels), lat.n_leaves)
    for v, rows in zip(values, got):
        # the roots are disjoint, so adding their parts is exact
        want = [sum(loop_delta_level_within(mu, v, level, root) for root in lat.roots)
                for level in levels]
        assert np.array_equal(rows, want)
        assert np.array_equal(mu.level_deltas(v, levels), want)
        for q in lat.nonleaf_cubes:
            for level in range(q.level + 1, lat.leaf_level, -1):
                assert np.array_equal(mu.delta_level_within(v, level, q),
                                      loop_delta_level_within(mu, v, level, q))
            assert np.array_equal(mu.martingale_difference(v, q),
                                  loop_martingale_difference(mu, v, q))


@settings(max_examples=40, deadline=None)
@given(inst=instances())
def test_paraproducts_and_carleson_sequence_match_loop_oracle(inst):
    t, r = inst
    for op in (t, t.adjoint):
        # entries sum differences of averages of table columns, so their
        # round-off scales with the table, also where the exact entries are 0
        for enlarge in (0, 1):
            assert oracle_close(paraproduct_matrix(build_paraproduct(op, r, enlarge=enlarge)),
                                loop_build_paraproduct(op, r, enlarge),
                                floor=np.max(np.abs(op.chi_table)))
    # a_Q <= 4 nu(Q) max |T_mu chi_Q|^2
    assert oracle_close(carleson_sequence(t, r).values, loop_carleson_values(t, r),
                        floor=t.nu.leaf_mass.sum() * np.max(np.abs(t.chi_table)) ** 2)


@settings(max_examples=40, deadline=None)
@given(inst=instances())
def test_haar_blocks_match_loop_oracle(inst):
    t, r = inst
    pi_mu, pi_nu = build_paraproduct(t, r), build_paraproduct(t.adjoint, r)
    mu, nu = t.mu, t.nu
    for op, (m_in, m_out) in ((t, (mu, nu)), (t.adjoint, (nu, mu))):
        assert np.array_equal(op.haar_block, loop_haar_block(op.matrix, m_in, m_out))
    # a paraproduct's block comes from its factors, not from the leaf matrix
    # W^T A, so it rounds in another order; both sum terms of T's block's size.
    # Over 2000 random instances of this kind the drift stayed below 5.9e-16
    # of that scale (the block itself can be round-off, where Pi is 0)
    for pi, (m_in, m_out) in ((pi_mu, (mu, nu)), (pi_nu, (nu, mu))):
        assert oracle_close(pi.haar_block,
                            loop_haar_block(paraproduct_matrix(pi), m_in, m_out),
                            floor=np.max(np.abs(t.haar_block), initial=0.0))


@settings(max_examples=40, deadline=None)
@given(inst=instances())
def test_locality_masks_match_loop_oracle(inst):
    t, r = inst
    assert check_well_localized(t, r) == loop_check_well_localized(t, r)
    for op in (t, t.adjoint):
        pi = build_paraproduct(op, r)
        assert (paraproduct_structure_verify(pi, op)
                == loop_paraproduct_structure_verify(pi, op))


@settings(max_examples=40, deadline=None)
@given(inst=instances(), seed=st.integers(0, 2 ** 32 - 1))
def test_decomposition_matches_loop_oracle(inst, seed):
    t, r = inst
    rng = np.random.default_rng(seed)
    f, g = rng.standard_normal((2, t.lattice.n_leaves))
    rep = decomposition_identity(t, r, f, g)
    scale = (2 * r + 1) * operator_norm(t) * t.mu.norm(f) * t.nu.norm(g)
    assert abs(rep.comparable - loop_comparable_sum(t, r, f, g)) \
        <= COMPARABLE_RTOL * max(scale, 1.0)
    if t.band is not None:  # the identity needs a well localized operator
        assert rep.relative <= 1e-10

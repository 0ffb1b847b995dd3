import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarlab import (NO_COMMON_ANCESTOR, Cube, analysis, build_lattice, induce, io,
                     random_band, tree_distance)

from conftest import random_weights
from loop_oracle import (cube_ancestor, cube_children, cube_contains, cube_parent, cube_side,
                         lattice_leaves, loop_ancestor_index,
                         loop_children_index, loop_level_leaves, loop_levels,
                         loop_membership, loop_tree_distance)


def test_children_of_unit_interval():
    q = Cube(1, 0, (0,))
    assert cube_children(q) == [Cube(1, -1, (0,)), Cube(1, -1, (1,))]


def test_children_2d_lexicographic_order():
    kids = cube_children(Cube(2, 0, (0, 0)))
    assert [c.coords for c in kids] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(c.level == -1 for c in kids)


def test_children_count_3d():
    assert len(cube_children(Cube(3, 2, (1, 2, 3)))) == 8


def test_parent_inverts_children():
    q = Cube(2, -1, (3, 5))
    for c in cube_children(q):
        assert cube_parent(c) == q


def test_ancestor_examples():
    assert cube_ancestor(Cube(1, -2, (3,)), 2) == Cube(1, 0, (0,))
    assert cube_ancestor(Cube(1, -2, (3,)), 1) == Cube(1, -1, (1,))
    q = Cube(2, -3, (5, 6))
    assert cube_ancestor(q, 0) == q
    assert cube_ancestor(q, 1) == cube_parent(q)


def test_ancestor_negative_k_raises():
    with pytest.raises(ValueError):
        cube_ancestor(Cube(1, 0, (0,)), -1)


def test_contains():
    root = Cube(1, 0, (0,))
    assert cube_contains(root, root)
    assert cube_contains(root, Cube(1, -2, (3,)))
    assert not cube_contains(root, Cube(1, -2, (4,)))
    assert not cube_contains(root, Cube(1, 1, (0,)))


def test_side_and_volume():
    q = Cube(2, -1, (0, 1))
    assert cube_side(q) == 0.5
    assert q.volume == 0.25


def test_tree_distance_examples():
    root = Cube(1, 0, (0,))
    left, right = cube_children(root)
    assert tree_distance(root, root) == 0
    assert tree_distance(left, root) == 1
    assert tree_distance(left, right) == 2
    # first cousins: lowest common ancestor two levels up
    assert tree_distance(Cube(1, -2, (1,)), Cube(1, -2, (2,))) == 4
    assert tree_distance(Cube(1, -2, (0,)), cube_children(root)[1]) == 3


def test_tree_distance_no_common_ancestor():
    assert tree_distance(Cube(1, 0, (-1,)), Cube(1, 0, (0,))) is NO_COMMON_ANCESTOR
    assert math.isinf(tree_distance(Cube(2, -1, (-1, 0)), Cube(2, -1, (0, 0))))


def test_tree_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        tree_distance(Cube(1, 0, (0,)), Cube(2, 0, (0, 0)))


@st.composite
def free_cube(draw, dim):
    """Any cube of dimension dim at levels -8..3 with coordinates -20..20,
    so that some pairs sit on opposite sides of the origin."""
    return Cube(dim, draw(st.integers(-8, 3)),
                tuple(draw(st.integers(-20, 20)) for _ in range(dim)))


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_tree_distance_equals_the_cube_walk(data):
    dim = data.draw(st.integers(1, 3))
    q = data.draw(free_cube(dim))
    r = data.draw(free_cube(data.draw(st.one_of(st.just(dim), st.integers(1, 3)))))
    if q.dim != r.dim:
        for distance in (tree_distance, loop_tree_distance):
            with pytest.raises(ValueError, match="different dimensions"):
                distance(q, r)
    else:
        assert tree_distance(q, r) == loop_tree_distance(q, r)


@st.composite
def lattice_cube(draw, dim=1, depth=4):
    level = draw(st.integers(-depth, 0))
    coord = st.integers(0, 2 ** (-level) - 1)
    return Cube(dim, level, tuple(draw(coord) for _ in range(dim)))


@given(lattice_cube(), lattice_cube(), lattice_cube())
@settings(max_examples=200, deadline=None)
def test_tree_distance_is_a_metric(q, r, s):
    assert tree_distance(q, q) == 0
    d = tree_distance(q, r)
    assert d == tree_distance(r, q)
    assert d >= (1 if q != r else 0)
    assert d <= tree_distance(q, s) + tree_distance(s, r)


def test_lattice_counts_1d():
    lat = build_lattice(1, 0, -3)
    assert lat.depth == 3
    assert lat.n_leaves == 8
    assert len(lat.active_cubes) == 15
    assert len(lat.nonleaf_cubes) == 7


def test_lattice_counts_2d():
    lat = build_lattice(2, 0, -2)
    assert lat.n_leaves == 16
    assert len(lat.active_cubes) == 21


def test_lattice_two_roots():
    roots = [Cube(1, 0, (0,)), Cube(1, 0, (1,))]
    lat = build_lattice(1, 0, -2, roots=roots)
    assert lat.n_leaves == 8
    assert len(lat.active_cubes) == 14
    assert Cube(1, -1, (3,)) in lat.cube_index
    assert Cube(1, -1, (4,)) not in lat.cube_index


def test_equal_lattices_are_one_object():
    roots = [Cube(1, 0, (0,)), Cube(1, 0, (1,))]
    lat = build_lattice(1, 0, -2, roots=roots)
    assert build_lattice(1, 0, -2, roots=tuple(roots)) is lat
    assert build_lattice(1, 0, -2, roots=[Cube(1, 0, (0,)), Cube(1, 0, (1,))]) is lat
    assert io.lattice_from_json(io.lattice_to_json(lat)) is lat
    assert build_lattice(2, 0, -2) is build_lattice(2, 0, -2, roots=[Cube(2, 0, (0, 0))])


def test_other_lattices_are_other_objects():
    lat = build_lattice(1, 0, -2)
    others = [build_lattice(1, 0, -3), build_lattice(1, 1, -2),
              build_lattice(1, 0, -2, roots=[Cube(1, 0, (1,))]),
              build_lattice(1, 0, -2, roots=[Cube(1, 0, (0,)), Cube(1, 0, (1,))])]
    assert all(other is not lat and other != lat for other in others)


def test_a_second_sweep_op_reads_the_first_ops_tables():
    def op(seed):  # one op of the benchmark's sweep workload, kind (1, 1, 4)
        lat = build_lattice(1, 0, -4)
        tables = set(vars(lat))
        t = induce(random_band(lat, 1, seed=seed), random_weights(lat, 3 * seed + 1),
                   random_weights(lat, 3 * seed + 2))
        analysis.testing_constants(t, 1)
        return lat, tables

    first, _ = op(0)
    second, tables = op(1)
    assert second is first
    assert {"children_index", "level_leaves", "membership"} <= tables


def test_the_intern_table_keeps_the_last_32_lattices():
    def lattice(k):
        return build_lattice(1, 0, -1, roots=[Cube(1, 0, (1000 + k,))])

    first = lattice(0)
    assert lattice(0) is first
    for k in range(1, 33):  # 33 distinct lattices in all
        lattice(k)
    again = lattice(0)
    assert again is not first and again == first


def test_lattice_bad_levels_raises():
    with pytest.raises(ValueError):
        build_lattice(1, 0, 0)
    with pytest.raises(ValueError):
        build_lattice(1, -2, 0)


def test_lattice_bad_roots_raise():
    with pytest.raises(ValueError):
        build_lattice(1, 0, -2, roots=[Cube(1, 0, (0,)), Cube(1, 0, (0,))])
    with pytest.raises(ValueError):
        build_lattice(1, 0, -2, roots=[Cube(1, -1, (0,))])
    with pytest.raises(ValueError):
        build_lattice(1, 0, -2, roots=[])


def test_leaf_order_is_stable():
    a = build_lattice(2, 0, -2)
    b = build_lattice(2, 0, -2)
    assert lattice_leaves(a) == lattice_leaves(b)
    # leaves close active_cubes, in leaf order
    assert a.active_cubes[-a.n_leaves:] == lattice_leaves(a)


def test_leaf_indices_and_indicator():
    lat = build_lattice(1, 0, -3)
    left = Cube(1, -1, (0,))
    assert list(lat.leaf_indices(left)) == [0, 1, 2, 3]
    ind = lat.indicator(left)
    assert ind.tolist() == [1, 1, 1, 1, 0, 0, 0, 0]


@pytest.mark.parametrize("method", ["leaf_indices", "indicator"])
def test_cube_off_the_lattice_is_named(method):
    lat = build_lattice(1, 0, -3)
    for q in (Cube(1, 0, (5,)), Cube(1, -4, (0,)), Cube(1, 1, (0,)), Cube(1, -1, (-1,))):
        with pytest.raises(ValueError, match=re.escape(f"{q!r} is not a cube of the lattice")):
            getattr(lat, method)(q)


def test_cubes_at_level_outside_range_empty():
    lat = build_lattice(1, 0, -2)
    assert lat.cubes_at_level(1) == []
    assert lat.cubes_at_level(-3) == []


def test_subtree_leaf_counts_match_volume():
    lat = build_lattice(2, 0, -2)
    for q in lat.active_cubes:
        assert len(lat.leaf_indices(q)) == 4 ** (q.level + 2)


def test_cube_validation():
    with pytest.raises(ValueError):
        Cube(0, 0, ())
    with pytest.raises(ValueError):
        Cube(2, 0, (1,))


@pytest.mark.parametrize("dim,depth,coords", [
    (1, 4, [(0,)]), (1, 3, [(-1,), (0,), (2,)]), (2, 2, [(0, 0)]),
    (2, 3, [(0, 0), (1, -1)])])
def test_index_arrays_against_cube_enumeration(dim, depth, coords):
    from loop_oracle import loop_leaf_indices
    lat = build_lattice(dim, 0, -depth, roots=[Cube(dim, 0, c) for c in coords])
    cubes = lat.active_cubes
    assert [cubes[i] for i in lat.cube_index.values()] == list(cubes)
    assert lat.children_index.shape == (len(lat.nonleaf_cubes), 2 ** dim)
    for q, kids in zip(lat.nonleaf_cubes, lat.children_index):
        assert [cubes[i] for i in kids] == cube_children(q)
    for q in cubes:
        assert lat.leaf_indices(q).tolist() == loop_leaf_indices(lat, q).tolist()
        assert q in lat.cube_index
        far = 16 << (lat.top_level - q.level)  # 16 root widths away
        assert Cube(dim, q.level, tuple(c + far for c in q.coords)) not in lat.cube_index
    assert Cube(dim, 1, (0,) * dim) not in lat.cube_index
    assert Cube(dim, -depth - 1, (0,) * dim) not in lat.cube_index


@st.composite
def small_lattices(draw):
    """dim 1-3, 1-3 roots (negative coords too), any top level, depth 1-4
    with at most 2^6 leaves per root to keep the Cube oracle small."""
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(1, min(4, 6 // dim)))
    top = draw(st.integers(-3, 3))
    coords = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim),
                           min_size=1, max_size=3, unique=True))
    return build_lattice(dim, top, top - depth, roots=[Cube(dim, top, c) for c in coords])


@given(small_lattices())
@settings(max_examples=60, deadline=None)
def test_arithmetic_tables_match_cube_oracle(lat):
    assert lat.n_leaves == len(lattice_leaves(lat))
    for got, want in [(lat.children_index, loop_children_index(lat)),
                      (lat.levels, loop_levels(lat)),
                      (lat.ancestor_index, loop_ancestor_index(lat)),
                      (lat.membership, loop_membership(lat)),
                      *zip(lat.level_leaves, loop_level_leaves(lat), strict=True)]:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarlab import (Cube, MeasureGrid, build_lattice,
                     generate_measure, lognormal_measure, sparse_atoms_measure,
                     uniform_measure, zero_blocks_measure)

from loop_oracle import lattice_leaves


def test_uniform_measure_is_lebesgue():
    lat = build_lattice(1, 0, -3)
    m = uniform_measure(lat)
    assert m.leaf_mass.sum() == pytest.approx(1.0)
    assert m.cube_masses[lat.cube_index[Cube(1, -1, (0,))]] == pytest.approx(0.5)
    np.testing.assert_allclose(m.density(), 1.0)


def test_mass_of_subtree():
    lat = build_lattice(1, 0, -2)
    m = MeasureGrid(lat, [1, 2, 3, 4])
    assert m.cube_masses[lat.cube_index[Cube(1, -1, (0,))]] == pytest.approx(3.0)
    assert m.cube_masses[lat.cube_index[Cube(1, -1, (1,))]] == pytest.approx(7.0)
    assert m.cube_masses[lat.cube_index[Cube(1, 0, (0,))]] == pytest.approx(10.0)


def test_negative_mass_rejected():
    lat = build_lattice(1, 0, -1)
    with pytest.raises(ValueError):
        MeasureGrid(lat, [1.0, -0.5])


def test_weighted_average():
    lat = build_lattice(1, 0, -1)
    m = MeasureGrid(lat, [1.0, 3.0])
    f = np.array([1.0, 3.0])
    assert m.mean_part(f).tolist() == pytest.approx([2.5, 2.5])


def test_average_over_zero_mass_cube_is_zero():
    # two roots at level -1, the first of them without mass
    lat = build_lattice(1, -1, -2, roots=[Cube(1, -1, (0,)), Cube(1, -1, (1,))])
    m = MeasureGrid(lat, [0.0, 0.0, 1.0, 1.0])
    f = np.array([5.0, 7.0, 1.0, 1.0])
    assert m.mean_part(f).tolist() == [0.0, 0.0, 1.0, 1.0]


def test_inner_of_indicator_is_mass():
    lat = build_lattice(1, 0, -2)
    m = MeasureGrid(lat, [1, 2, 3, 4])
    q = Cube(1, -1, (1,))
    ind = lat.indicator(q)
    assert m.inner(ind, ind) == pytest.approx(m.cube_masses[lat.cube_index[q]])


def test_martingale_difference_of_constant_vanishes():
    lat = build_lattice(1, 0, -2)
    m = MeasureGrid(lat, [1, 2, 3, 4])
    f = np.full(4, 2.0)
    for q in lat.nonleaf_cubes:
        np.testing.assert_allclose(m.martingale_difference(f, q), 0.0)


def test_martingale_difference_values_and_mean_zero():
    lat = build_lattice(1, 0, -1)
    m = MeasureGrid(lat, [1.0, 3.0])
    f = np.array([0.0, 2.0])
    d = m.martingale_difference(f, Cube(1, 0, (0,)))
    np.testing.assert_allclose(d, [-1.5, 0.5])
    assert m.inner(d, np.array([1.0, 1.0])) == pytest.approx(0.0)


def test_martingale_difference_on_leaf_raises():
    lat = build_lattice(1, 0, -1)
    m = uniform_measure(lat)
    with pytest.raises(ValueError):
        m.martingale_difference(np.array([0.0, 1.0]), lattice_leaves(lat)[0])


def test_haar_basis_symmetric_two_atoms():
    lat = build_lattice(1, 0, -1)
    m = MeasureGrid(lat, [1.0, 1.0])
    basis = m.weighted_haar_basis(Cube(1, 0, (0,)))
    assert len(basis) == 1
    c = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(basis[0], [-c, c])


def test_haar_basis_lebesgue_unit_interval():
    lat = build_lattice(1, 0, -1)
    m = uniform_measure(lat)
    (h,) = m.weighted_haar_basis(Cube(1, 0, (0,)))
    # |I|^(-1/2) (right indicator - left indicator) on I = [0, 1)
    np.testing.assert_allclose(h, [-1.0, 1.0])


def test_haar_basis_degenerate_child():
    lat = build_lattice(1, 0, -1)
    m = MeasureGrid(lat, [0.0, 2.0])
    assert len(m.weighted_haar_basis(Cube(1, 0, (0,)))) == 0


def test_haar_basis_size_2d():
    lat = build_lattice(2, 0, -1)
    m = MeasureGrid(lat, [1.0, 0.5, 2.0, 1.5])
    basis = m.weighted_haar_basis(Cube(2, 0, (0, 0)))
    assert len(basis) == 3


def test_haar_basis_orthonormal_and_mean_zero():
    lat = build_lattice(2, 0, -1)
    rng = np.random.default_rng(5)
    m = MeasureGrid(lat, rng.uniform(0.1, 2.0, lat.n_leaves))
    basis = m.weighted_haar_basis(Cube(2, 0, (0, 0)))
    one = np.ones(lat.n_leaves)
    for i, hi in enumerate(basis):
        assert m.inner(hi, one) == pytest.approx(0.0, abs=1e-12)
        for j, hj in enumerate(basis):
            want = 1.0 if i == j else 0.0
            assert m.inner(hi, hj) == pytest.approx(want, abs=1e-12)


def test_haar_basis_sign_convention_deterministic():
    lat = build_lattice(1, 0, -1)
    m = MeasureGrid(lat, [3.0, 1.0])
    (h,) = m.weighted_haar_basis(Cube(1, 0, (0,)))
    assert h[0] < 0 < h[1]


def test_haar_projection_reproduces_martingale_difference():
    lat = build_lattice(2, 0, -2)
    rng = np.random.default_rng(7)
    m = MeasureGrid(lat, rng.uniform(0.0, 2.0, lat.n_leaves))
    f = rng.standard_normal(lat.n_leaves)
    for q in lat.nonleaf_cubes:
        proj = np.zeros(lat.n_leaves)
        for h in m.weighted_haar_basis(q):
            proj += m.inner(f, h) * h
        delta = m.martingale_difference(f, q)
        pos = m.leaf_mass > 0
        np.testing.assert_allclose(proj[pos], delta[pos], atol=1e-12)


def test_decomposition_of_constant_is_root_average_only():
    lat = build_lattice(1, 0, -2)
    m = MeasureGrid(lat, [1, 2, 3, 4])
    f = np.full(4, 3.0)
    deltas, exps = m.martingale_decompose(f)
    for d in deltas.values():
        np.testing.assert_allclose(d, 0.0, atol=1e-14)
    np.testing.assert_allclose(exps[lat.roots[0]], 3.0)


@given(st.integers(0, 10_000), st.integers(1, 2), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_parseval_identity(seed, dim, depth):
    lat = build_lattice(dim, 0, -depth)
    rng = np.random.default_rng(seed)
    mass = rng.uniform(0.0, 2.0, lat.n_leaves)
    mass[rng.random(lat.n_leaves) < 0.2] = 0.0
    m = MeasureGrid(lat, mass)
    f = rng.standard_normal(lat.n_leaves)
    deltas, exps = m.martingale_decompose(f)
    pieces = list(deltas.values()) + list(exps.values())
    recon = sum(pieces)
    pos = mass > 0
    np.testing.assert_allclose(recon[pos], f[pos], atol=1e-10)
    total = sum(m.inner(p, p) for p in pieces)
    assert total == pytest.approx(m.inner(f, f), rel=1e-10, abs=1e-12)


def test_mean_plus_fluctuation_is_identity():
    lat = build_lattice(1, 0, -3, roots=None)
    rng = np.random.default_rng(3)
    m = MeasureGrid(lat, rng.uniform(0.1, 1.0, lat.n_leaves))
    f = rng.standard_normal(lat.n_leaves)
    # the fluctuation part: the sum of all martingale differences
    fluctuation = sum(m.martingale_decompose(f)[0].values())
    total = m.mean_part(f) + fluctuation
    np.testing.assert_allclose(total, f)
    one = np.ones(lat.n_leaves)
    assert m.inner(fluctuation, one) == pytest.approx(0.0, abs=1e-12)


def test_delta_level_within_matches_martingale_differences():
    lat = build_lattice(1, 0, -3)
    rng = np.random.default_rng(9)
    m = MeasureGrid(lat, rng.uniform(0.0, 2.0, lat.n_leaves))
    f = rng.standard_normal(lat.n_leaves)
    q = Cube(1, 0, (0,))
    got = m.delta_level_within(f, -1, q)
    want = np.zeros(lat.n_leaves)
    for rr in lat.cubes_at_level(-1):
        want += m.martingale_difference(f, rr)
    pos = m.leaf_mass > 0
    np.testing.assert_allclose(got[pos], want[pos], atol=1e-12)


def test_generators_are_deterministic():
    lat = build_lattice(1, 0, -3)
    a = lognormal_measure(lat, 1.0, seed=4)
    b = lognormal_measure(lat, 1.0, seed=4)
    np.testing.assert_array_equal(a.leaf_mass, b.leaf_mass)
    s = sparse_atoms_measure(lat, 3, seed=4)
    assert np.count_nonzero(s.leaf_mass) == 3
    z = zero_blocks_measure(lat, 0.5, seed=4)
    assert np.all(z.leaf_mass >= 0)


def test_zero_blocks_fraction_is_a_probability():
    # 2.0 once zeroed every leaf and -1 none, both with exit 0
    lat = build_lattice(1, 0, -3)
    assert np.count_nonzero(zero_blocks_measure(lat, 0.0, seed=4).leaf_mass) == lat.n_leaves
    assert np.count_nonzero(zero_blocks_measure(lat, 1.0, seed=4).leaf_mass) == 0
    for bad in (2.0, -1.0, 1.0 + 2 ** -52):
        with pytest.raises(ValueError, match=r"zero_blocks fraction must be in \[0, 1\]"):
            zero_blocks_measure(lat, bad, seed=4)


def test_generate_measure_dispatch():
    lat = build_lattice(1, 0, -2)
    explicit = generate_measure(lat, [1, 2, 3, 4])
    assert explicit.leaf_mass.sum() == pytest.approx(10.0)
    uni = generate_measure(lat, {"type": "uniform", "total": 2.0})
    assert uni.leaf_mass.sum() == pytest.approx(2.0)
    logn = generate_measure(lat, {"type": "lognormal", "seed": 1})
    assert logn.leaf_mass.sum() > 0
    with pytest.raises(ValueError):
        generate_measure(lat, {"type": "nope"})

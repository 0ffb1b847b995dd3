import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from haarlab import (CarlesonSequence, Cube, InducedOperator,
                     MeasureGrid, build_lattice, build_paraproduct,
                     carleson_constant, carleson_property, carleson_sequence,
                     embedding_constant, haar_multiplier, induce,
                     paraproduct_structure_verify, remainder_diagonals, uniform_measure)

from conftest import random_instance
from loop_oracle import (loop_carleson_constant, loop_carleson_property,
                         loop_cube_masses, loop_embedding_constant,
                         loop_paraproduct_structure_verify,
                         loop_remainder_diagonals, loop_subtree_sums, oracle_close)


def seq_of(lat, values):
    """A Carleson sequence from a {cube: a_Q} mapping; absent cubes are 0."""
    a = np.zeros(len(lat.active_cubes))
    for q, v in values.items():
        a[lat.cube_index[q]] = v
    return CarlesonSequence(lat, a)


def test_paraproduct_of_zero_operator_is_zero():
    lat = build_lattice(1, 0, -3)
    leb = uniform_measure(lat)
    t = induce(haar_multiplier(lat, 0.0), leb, leb)
    pi = build_paraproduct(t, 1)
    np.testing.assert_allclose(pi.matrix, 0.0)
    assert paraproduct_structure_verify(pi, t).passed


def test_paraproduct_needs_depth_beyond_radius():
    t = random_instance(1, 2, 1, seed=0)
    with pytest.raises(ValueError):
        build_paraproduct(t, 2)


def test_stale_positional_arguments_raise():
    # side was the third argument of both, r of the structure check: a
    # leftover positional call must not become an enlarge count or a tolerance
    t = random_instance(1, 3, 1, seed=0)
    pi = build_paraproduct(t, 1)
    with pytest.raises(TypeError):
        build_paraproduct(t, 1, "nu")
    with pytest.raises(TypeError):
        paraproduct_structure_verify(pi, t, 1)


@pytest.mark.parametrize("dim,depth,r", [(1, 3, 0), (1, 4, 1), (1, 5, 2),
                                         (2, 2, 0), (2, 3, 1)])
def test_matrix_structure_in_weighted_bases(dim, depth, r):
    t = random_instance(dim, depth, r, seed=depth + 7 * r,
                        zero_fraction=0.2, root_amplitude=0.4)
    for op in (t, t.adjoint):
        pi = build_paraproduct(op, r)
        rep = paraproduct_structure_verify(pi, op)
        assert rep.passed, rep.witness
        assert max(rep.max_dev_vanish_scale, rep.max_dev_vanish_outside,
                   rep.max_dev_equality) <= 1e-9


def test_matrix_structure_fails_for_dense_operator():
    lat = build_lattice(1, 0, -3)
    rng = np.random.default_rng(17)
    leb = uniform_measure(lat)
    t = InducedOperator.from_leaf_matrix(
        rng.standard_normal((lat.n_leaves, lat.n_leaves)), leb, leb)
    pi = build_paraproduct(t, 0)
    rep = paraproduct_structure_verify(pi, t)
    assert not rep.passed
    assert rep.witness is not None


def test_replacement_invariance_of_inner_indicator():
    t = random_instance(1, 4, 1, seed=21, root_amplitude=0.3)
    base = build_paraproduct(t, 1)
    for enlarge in (1, 2, 3):
        bigger = build_paraproduct(t, 1, enlarge=enlarge)
        np.testing.assert_allclose(bigger.matrix, base.matrix, atol=1e-12)


@pytest.mark.parametrize("dim,depth,r", [(1, 4, 0), (1, 4, 1), (2, 3, 1)])
def test_remainder_has_only_comparable_diagonals(dim, depth, r):
    t = random_instance(dim, depth, r, seed=depth * 5 + r,
                        zero_fraction=0.15, root_amplitude=0.5)
    pi_mu = build_paraproduct(t, r)
    pi_nu = build_paraproduct(t.adjoint, r)
    rep = remainder_diagonals(t, pi_mu, pi_nu)
    assert rep.passed
    assert rep.off_band_max <= 1e-12
    if r >= 1:
        assert rep.in_band_max > 0.0


def test_mismatched_paraproducts_raise():
    # each was a pass=False report that blamed the operator for a wrong argument
    t = random_instance(1, 4, 1, seed=3, zero_fraction=0.2, root_amplitude=0.4)
    pi_mu, pi_nu = build_paraproduct(t, 1), build_paraproduct(t.adjoint, 1)
    with pytest.raises(ValueError, match="^pi was built"):
        paraproduct_structure_verify(pi_nu, t)
    with pytest.raises(ValueError, match="^pi_mu was built"):
        remainder_diagonals(t, pi_nu, pi_mu)
    with pytest.raises(ValueError, match="^pi_nu was built"):
        remainder_diagonals(t, pi_mu, pi_mu)
    # measures compare by identity: an equal copy of the instance is another operator
    twin = random_instance(1, 4, 1, seed=3, zero_fraction=0.2, root_amplitude=0.4)
    with pytest.raises(ValueError, match="^pi was built"):
        paraproduct_structure_verify(pi_mu, twin)
    assert paraproduct_structure_verify(pi_mu, t).passed
    assert remainder_diagonals(t, pi_mu, pi_nu).passed


def test_paraproduct_keeps_the_measures_and_not_the_operator():
    t = random_instance(1, 4, 1, seed=5, zero_fraction=0.2, root_amplitude=0.4)
    pi_mu, pi_nu = build_paraproduct(t, 1), build_paraproduct(t.adjoint, 1)
    assert pi_mu.mu is t.mu and pi_mu.nu is t.nu
    assert pi_nu.mu is t.nu and pi_nu.nu is t.mu
    assert t.haar_block is t.haar_block and pi_mu.haar_block is pi_mu.haar_block
    # no reference to t: it and its cached arrays go without the cyclic collector
    ref = weakref.ref(t)
    gc.disable()
    try:
        del t
        assert ref() is None
    finally:
        gc.enable()
    assert pi_mu.haar_block.shape == pi_nu.haar_block.T.shape


def test_carleson_sequence_zero_for_zero_operator():
    lat = build_lattice(1, 0, -3)
    leb = uniform_measure(lat)
    t = induce(haar_multiplier(lat, 0.0), leb, leb)
    seq = carleson_sequence(t, 1)
    assert all(v == 0.0 for v in seq.values)


def test_carleson_sequence_against_direct_recomputation():
    t = random_instance(1, 4, 1, seed=33, zero_fraction=0.2)
    lat, nu = t.lattice, t.nu
    want = np.zeros(len(lat.active_cubes))
    for i, q in enumerate(lat.active_cubes):
        if q.level - 1 >= lat.leaf_level + 1:
            t_chi = t.matrix @ lat.indicator(q)
            for rr in lat.cubes_at_level(q.level - 1):
                if q.contains(rr):
                    d = nu.martingale_difference(t_chi, rr)
                    want[i] += nu.inner(d, d)
    assert oracle_close(carleson_sequence(t, 1).values, want)


def test_negative_carleson_values_rejected():
    lat = build_lattice(1, 0, -2)
    with pytest.raises(ValueError):
        seq_of(lat, {Cube(1, 0, (0,)): -1.0})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_carleson_values_rejected(bad):
    lat = build_lattice(1, 0, -2)
    with pytest.raises(ValueError, match="finite"):
        seq_of(lat, {Cube(1, -1, (1,)): bad})


def test_carleson_values_need_one_per_active_cube():
    lat = build_lattice(1, 0, -2)
    with pytest.raises(ValueError):
        CarlesonSequence(lat, np.zeros(len(lat.active_cubes) - 1))


def test_subtree_sums_by_brute_force():
    lat = build_lattice(1, 0, -3)
    rng = np.random.default_rng(2)
    seq = CarlesonSequence(lat, [rng.uniform(0, 1) for _ in lat.active_cubes])
    sums = seq.subtree_sums()
    for q, got in zip(lat.active_cubes, sums):
        want = sum(a for p, a in zip(lat.active_cubes, seq.values) if q.contains(p))
        assert got == pytest.approx(want)


def test_carleson_constant_of_root_mass():
    lat = build_lattice(1, 0, -3)
    mu = uniform_measure(lat)
    seq = seq_of(lat, {lat.roots[0]: mu.leaf_mass.sum()})
    assert carleson_constant(seq, mu) == pytest.approx(1.0)


def test_carleson_constant_infinite_on_zero_mass_support():
    lat = build_lattice(1, 0, -2)
    mu = MeasureGrid(lat, [0.0, 0.0, 1.0, 1.0])
    seq = seq_of(lat, {Cube(1, -1, (0,)): 0.5})
    assert carleson_constant(seq, mu) == float("inf")


def test_embedding_constant_single_root_term():
    lat = build_lattice(1, 0, -3)
    mu = uniform_measure(lat, total=1.0)
    seq = seq_of(lat, {lat.roots[0]: 1.0})
    assert embedding_constant(seq, mu) == pytest.approx(1.0)


def test_embedding_constant_against_dense_eigensolve():
    lat = build_lattice(1, 0, -3)
    rng = np.random.default_rng(6)
    mu = MeasureGrid(lat, rng.uniform(0.1, 2.0, lat.n_leaves))
    seq = CarlesonSequence(lat, [rng.uniform(0, 1) for _ in lat.active_cubes])
    # quadratic form sum_Q a_Q |E_Q f|^2 as a matrix against the mu form
    n = lat.n_leaves
    a_mat = np.zeros((n, n))
    for q, a, mass in zip(lat.active_cubes, seq.values, mu.cube_masses):
        ind = lat.indicator(q)
        w = ind * mu.leaf_mass / mass
        a_mat += a * np.outer(w, w)
    d = np.diag(mu.leaf_mass)
    import scipy.linalg
    want = float(np.max(scipy.linalg.eigh(a_mat, d, eigvals_only=True)))
    assert embedding_constant(seq, mu) == pytest.approx(want, rel=1e-10)


def test_embedding_bounded_by_four_times_carleson():
    for seed in range(25):
        lat = build_lattice(1, 0, -4)
        rng = np.random.default_rng(seed)
        mu = MeasureGrid(lat, rng.uniform(0.0, 2.0, lat.n_leaves))
        seq = CarlesonSequence(lat, [rng.uniform(0, 1) for _ in lat.active_cubes])
        c = carleson_constant(seq, mu)
        if not np.isfinite(c) or c == 0.0:
            continue
        assert embedding_constant(seq, mu) <= 4.0 * c + 1e-9


@pytest.mark.parametrize("dim,depth,r", [(1, 4, 1), (2, 3, 1)])
def test_carleson_property_of_induced_operators(dim, depth, r):
    t = random_instance(dim, depth, r, seed=depth + r,
                        zero_fraction=0.2, root_amplitude=0.3)
    seq = carleson_sequence(t, r)
    rep = carleson_property(t, seq)
    assert rep.passed
    assert rep.max_excess <= 1e-10
    assert rep.local_testing_constant >= 0.0


@st.composite
def carleson_instances(draw):
    """Multi-root 1D/2D lattices, measures with zero-mass leaves and sparse
    or dense Carleson sequences (2D stops at depth 3 to keep it quick)."""
    dim = draw(st.sampled_from([1, 2]))
    depth = draw(st.integers(1, 5 if dim == 1 else 3))
    coords = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True))
    lat = build_lattice(dim, 0, -depth,
                        [Cube(dim, 0, (c,) + (0,) * (dim - 1)) for c in coords])
    masses = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]),
                       st.floats(0.01, 4.0))
    mu = MeasureGrid(lat, draw(arrays(float, lat.n_leaves, elements=masses)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = len(lat.active_cubes)
    if draw(st.booleans()):
        a = rng.uniform(0.0, 2.0, n)
    else:  # small exact values, so that sums and ratios tie exactly
        a = rng.choice([0.25, 0.5, 1.0], n)
    a = a * (rng.random(n) < draw(st.sampled_from([0.05, 0.3, 1.0])))
    return lat, mu, a


@settings(max_examples=120, deadline=None)
@given(inst=carleson_instances(), sparse_dict=st.booleans())
def test_carleson_layer_matches_loop_oracle(inst, sparse_dict):
    lat, mu, a = inst
    seq = CarlesonSequence(lat, a)
    values = {q: v for q, v in zip(lat.active_cubes, a.tolist())
              if v or not sparse_dict}
    masses = loop_cube_masses(mu)
    assert mu.cube_masses.tolist() == [masses[q] for q in lat.active_cubes]
    want = loop_subtree_sums(lat, values)
    assert seq.subtree_sums().tolist() == [want[q] for q in lat.active_cubes]
    assert carleson_constant(seq, mu) == loop_carleson_constant(lat, values, masses)
    # the Gram eigensolve against the oracle's dense SVD: round-off apart
    assert embedding_constant(seq, mu) == pytest.approx(
        loop_embedding_constant(lat, values, mu, masses), rel=1e-13)


@pytest.mark.parametrize("dim,depth,r,zero_fraction", [
    (1, 4, 1, 0.0), (1, 5, 2, 0.3), (2, 3, 1, 0.2), (2, 2, 0, 0.5)])
def test_carleson_property_matches_loop_oracle(dim, depth, r, zero_fraction):
    t = random_instance(dim, depth, r, seed=dim * 100 + depth * 10 + r,
                        zero_fraction=zero_fraction, root_amplitude=0.4)
    seq = carleson_sequence(t, r)
    values = dict(zip(t.lattice.active_cubes, seq.values.tolist()))
    got, want = carleson_property(t, seq), loop_carleson_property(t, values)
    assert got.passed == want.passed
    # max_excess is a ratio to max(bound, 1), so its drift is relative already
    assert oracle_close(got.max_excess, want.max_excess, floor=1.0)
    assert oracle_close(got.local_testing_constant, want.local_testing_constant)


def _dense_instance(dim, depth, seed, zero_fraction):
    lat = build_lattice(dim, 0, -depth)
    rng = np.random.default_rng(seed)
    mass = rng.uniform(0.1, 2.0, (2, lat.n_leaves))
    mass[rng.random(mass.shape) < zero_fraction] = 0.0
    return InducedOperator.from_leaf_matrix(
        rng.standard_normal((lat.n_leaves, lat.n_leaves)),
        MeasureGrid(lat, mass[0]), MeasureGrid(lat, mass[1]))


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("dim,depth,r", [(1, 3, 0), (1, 4, 1), (1, 5, 2),
                                         (2, 2, 0), (2, 3, 1)])
def test_structure_and_remainder_match_loop_oracle(dim, depth, r, dense):
    seed = dim * 100 + depth * 10 + r
    t = (_dense_instance(dim, depth, seed, 0.2) if dense else
         random_instance(dim, depth, r, seed, zero_fraction=0.2, root_amplitude=0.4))
    pis = [build_paraproduct(op, r) for op in (t, t.adjoint)]
    for pi, op in zip(pis, (t, t.adjoint)):
        got = paraproduct_structure_verify(pi, op)
        assert got == loop_paraproduct_structure_verify(pi, op)
        assert got.passed != dense
    assert remainder_diagonals(t, *pis) == loop_remainder_diagonals(t, *pis)

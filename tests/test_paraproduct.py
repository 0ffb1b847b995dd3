import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from haarlab import (CarlesonSequence, Cube, InducedOperator,
                     MeasureGrid, build_lattice, build_paraproduct,
                     carleson_constant, carleson_property, carleson_sequence,
                     embedding_constant, haar_multiplier, induce,
                     paraproduct_structure_verify, random_band, remainder_diagonals,
                     uniform_measure)
from haarlab.paraproduct import _subtree_sums, _update_subtree_sums

from conftest import random_instance, random_weights
from loop_oracle import (_loop_greedy_value, cube_children, cube_contains,
                         loop_carleson_constant, loop_carleson_property,
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
    assert not pi.w.any() and not pi.haar_block.any()
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
        assert np.array_equal(bigger.cubes, base.cubes) and np.array_equal(bigger.a, base.a)
        np.testing.assert_allclose(bigger.w, base.w, atol=1e-12)


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


def test_paraproducts_at_another_r_raise():
    # without the check, pi_nu at r = 0 gave off_band_max 0.454, and pi_mu at
    # r = 2 passed: the report measured a band of the paraproducts' radius
    t = random_instance(1, 4, 1, seed=3, zero_fraction=0.2, root_amplitude=0.4)
    pi_mu, pi_nu = build_paraproduct(t, 1), build_paraproduct(t.adjoint, 1)
    with pytest.raises(ValueError, match="^pi_nu was built at r=0, not r=1"):
        remainder_diagonals(t, pi_mu, build_paraproduct(t.adjoint, 0))
    with pytest.raises(ValueError, match="^pi_nu was built at r=1, not r=2"):
        remainder_diagonals(t, build_paraproduct(t, 2), pi_nu)
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
                if cube_contains(q, rr):
                    d = nu.martingale_difference(t_chi, rr)
                    want[i] += nu.inner(d, d)
    assert oracle_close(carleson_sequence(t, 1).values, want)


# W N Wᵀ = diag(a): the row w_Q sums Δ_R T χ_Q over the R inside Q at
# level(Q) - r, and distinct Q use disjoint sets of R, so the rows are
# orthogonal in the output measure, with squared norms the Carleson values
# a_Q.  Over 1D-3D instances with and without zero-mass leaves in both
# measures, both directions, the largest deviation was 3.2e-16 of max a off
# the diagonal and 1.1e-15 on it (a Gram entry sums in another order).
ORTHOGONALITY_RTOL = 1e-14


def _zero_mass_instance(dim, depth, r, seed):
    """A random band operator induced between measures with zero-mass leaves:
    30 % of each measure's leaves at random, and all of mu on the root's first
    child and of nu on its last, so that whole cubes carry no mass."""
    lat = build_lattice(dim, 0, -depth)
    mu, nu = (random_weights(lat, 3 * seed + k, zero_fraction=0.3).leaf_mass for k in (1, 2))
    first, last = lat.membership[:, lat.children_index[0][[0, -1]]].T > 0
    band = random_band(lat, r, seed=seed, amplitude=1.0, root_amplitude=0.5)
    return induce(band, MeasureGrid(lat, np.where(first, 0.0, mu)),
                  MeasureGrid(lat, np.where(last, 0.0, nu)))


@pytest.mark.parametrize("dim,depth,r,seed", [(1, 5, 1, 0), (1, 6, 2, 1), (1, 6, 0, 2),
                                              (2, 3, 1, 3), (2, 4, 1, 4)])
def test_paraproduct_rows_are_orthogonal_with_the_carleson_values_as_norms(dim, depth, r, seed):
    t = _zero_mass_instance(dim, depth, r, seed)
    for op in (t, t.adjoint):  # Pi_mu against nu, Pi_nu against mu
        pi = build_paraproduct(op, r)
        a = carleson_sequence(op, r).values
        scale = ORTHOGONALITY_RTOL * float(np.max(a))
        gram = (pi.w * op.nu.leaf_mass) @ pi.w.T
        assert np.all(np.abs(gram - np.diag(np.diag(gram))) <= scale)
        assert np.all(np.abs(np.diag(gram) - a[pi.cubes]) <= scale)


@pytest.mark.parametrize("dim,depth,r,seed", [(1, 5, 1, 0), (1, 6, 2, 1), (1, 6, 0, 2),
                                              (2, 3, 1, 3), (2, 4, 1, 4)])
def test_carleson_sequence_read_off_pi_mu_is_the_same_bits(dim, depth, r, seed):
    t = _zero_mass_instance(dim, depth, r, seed)
    pi_mu = build_paraproduct(t, r)
    want = carleson_sequence(t, r).values
    got = carleson_sequence(t, r, pi_mu).values
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    # the mu-null cubes that Pi_mu has no row for are there, and get exactly 0
    lat = t.lattice
    null = (lat.levels - r >= lat.leaf_level + 1) & (t.mu.cube_masses == 0)
    assert null.any() and not np.isin(np.flatnonzero(null), pi_mu.cubes).any()
    assert np.all(got[null] == 0.0)
    with pytest.raises(ValueError, match="^pi_mu was built"):
        carleson_sequence(t, r, build_paraproduct(t.adjoint, r))
    # rows that are not t's local martingale rows: enlarged, or another
    # operator's between the same measures
    with pytest.raises(ValueError, match="^pi_mu's rows are not t_mu's.*enlarge=1"):
        carleson_sequence(t, r, build_paraproduct(t, r, enlarge=1))
    other = InducedOperator.from_leaf_matrix(2.0 * t.lebesgue_matrix, t.mu, t.nu)
    with pytest.raises(ValueError, match="^pi_mu's rows are not t_mu's"):
        carleson_sequence(t, r, build_paraproduct(other, r))


@pytest.mark.parametrize("mu_mass", [1.0, 0.0], ids=["positive", "mu-null"])
@pytest.mark.parametrize("entry", [np.inf, np.nan], ids=["inf", "nan"])
def test_carleson_sequence_of_a_non_finite_operator_overflows_with_pi_mu(mu_mass, entry):
    # with mu = 0 everywhere Pi_mu has no rows, and every a_Q is computed here
    t = _zero_mass_instance(1, 4, 1, 5)
    matrix = np.array(t.lebesgue_matrix)
    matrix[0, 5] = entry
    mu = MeasureGrid(t.lattice, t.mu.leaf_mass * mu_mass)
    bad = InducedOperator.from_leaf_matrix(matrix, mu, t.nu)
    with np.errstate(invalid="ignore"):  # inf * 0 on the mu-null leaves
        pi_mu = build_paraproduct(bad, 1)
    assert (pi_mu.cubes.size == 0) == (mu_mass == 0.0)
    with pytest.raises(ValueError, match="finite") as want, np.errstate(invalid="ignore"):
        carleson_sequence(bad, 1)
    with pytest.raises(ValueError, match="finite") as got, np.errstate(invalid="ignore"):
        carleson_sequence(bad, 1, pi_mu)
    assert str(got.value) == str(want.value)


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
        want = sum(a for p, a in zip(lat.active_cubes, seq.values) if cube_contains(q, p))
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


def test_embedding_constant_of_no_support_is_zero():
    lat = build_lattice(1, 0, -3)
    zero = CarlesonSequence(lat, np.zeros(len(lat.levels)))
    assert embedding_constant(zero, uniform_measure(lat)) == 0.0
    massless = MeasureGrid(lat, np.zeros(lat.n_leaves))
    assert embedding_constant(CarlesonSequence(lat, np.ones(len(lat.levels))), massless) == 0.0


def test_embedding_constant_past_the_float_range_is_inf():
    lat = build_lattice(1, 0, -3)
    # a diagonal entry a_R / mu(R) past the range
    tiny = MeasureGrid(lat, np.full(lat.n_leaves, 1e-10))
    assert embedding_constant(seq_of(lat, {lat.roots[0]: 1e308}), tiny) == math.inf
    # finite entries (1.5e308 on the diagonal), a top eigenvalue past the range
    mu = uniform_measure(lat, total=1.0)
    root, child = lat.roots[0], cube_children(lat.roots[0])[0]
    assert embedding_constant(seq_of(lat, {root: 1.5e308, child: 0.75e308}), mu) == math.inf


def test_embedding_constant_of_a_subnormal_sequence():
    lat = build_lattice(1, 0, -1)
    mu = MeasureGrid(lat, [1.0, 1.0])
    assert embedding_constant(seq_of(lat, {lat.roots[0]: 1e-320}), mu) == 5e-321


def test_embedding_constant_of_a_sparse_measure():
    # two atoms: 17 support cubes (their ancestors), 2 positive-mass leaves
    lat = build_lattice(1, 0, -8)
    mass = np.zeros(lat.n_leaves)
    mass[[3, 200]] = [0.7, 1.3]
    mu = MeasureGrid(lat, mass)
    a = np.where(mu.cube_masses > 0, np.random.default_rng(2).uniform(0.1, 1.0, len(lat.levels)),
                 0.0)
    values = {q: v for q, v in zip(lat.active_cubes, a.tolist()) if v}
    assert embedding_constant(CarlesonSequence(lat, a), mu) == pytest.approx(
        loop_embedding_constant(lat, values, mu, loop_cube_masses(mu)), rel=1e-13)


def test_embedding_constant_allocates_no_leaf_axis():
    # 16384 leaves: one float array over them alone reaches the bound
    lat = build_lattice(1, 0, -14)
    mu = uniform_measure(lat, total=1.0)
    rng = np.random.default_rng(0)
    cubes = rng.choice(lat.level_starts[-2], 20, replace=False)
    a = np.zeros(len(lat.levels))
    a[cubes] = mu.cube_masses[cubes] * rng.uniform(0.1, 1.0, 20)
    seq = CarlesonSequence(lat, a)
    for table in ("levels", "ancestor_index", "_first_leaf"):
        getattr(lat, table)
    tracemalloc.start()
    try:
        const = embedding_constant(seq, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 << 10
    sel = np.sort(cubes)
    rows = lat.ancestor_index[lat.top_level - lat.levels[sel]] == sel[:, None]
    rows = rows * (np.sqrt(a[sel]) / mu.cube_masses[sel])[:, None] * np.sqrt(mu.leaf_mass)
    assert const == pytest.approx(np.linalg.svd(rows, compute_uv=False)[0] ** 2, rel=1e-13)


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


def kernel_branch_instance(dim, depth, zero_block):
    """A one-root lattice, a measure and a positive Carleson sequence for the
    kernels' two branches: every cube massive (no mask), or the leaves of the
    last cube above the leaf level massless (masked).  In 1D that cube and its
    leaves carry a_Q = 0, so the masked Carleson ratio is finite; in 2D they
    carry a_Q > 0, so it is inf and the Gram drops them."""
    lat = build_lattice(dim, 0, -depth)
    mass = np.linspace(0.5, 2.0, lat.n_leaves)
    a = np.random.default_rng(dim).uniform(0.1, 2.0, len(lat.levels))
    if zero_block:
        block = lat.nonleaf_cubes[-1]
        mass[lat.leaf_indices(block)] = 0.0
        if dim == 1:
            a[[lat.position(q) for q in (block, *cube_children(block))]] = 0.0
    return lat, MeasureGrid(lat, mass), a


@settings(max_examples=120, deadline=None)
@given(inst=carleson_instances(), sparse_dict=st.booleans())
@example(inst=kernel_branch_instance(1, 4, zero_block=False), sparse_dict=False)
@example(inst=kernel_branch_instance(1, 4, zero_block=True), sparse_dict=True)
@example(inst=kernel_branch_instance(2, 2, zero_block=False), sparse_dict=True)
@example(inst=kernel_branch_instance(2, 2, zero_block=True), sparse_dict=False)
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
    got = embedding_constant(seq, mu)
    assert got == pytest.approx(loop_embedding_constant(lat, values, mu, masses), rel=1e-13)
    # and against the oracle's cube-side Gram, built entry by entry: the
    # mu(R) > 0 filter and multi-root supports, bit for bit
    assert got.hex() == _loop_greedy_value(lat, values, masses).hex()


@st.composite
def changed_positions(draw, lat):
    """1 to 6 positions, each a root, a leaf or an interior cube (a leaf on
    a depth-1 lattice), and sometimes one of them again."""
    starts = lat.level_starts
    pools = {"root": (0, starts[1]), "leaf": (starts[-2], starts[-1]),
             "interior": (starts[1], starts[-2])}
    changed = []
    for kind in draw(st.lists(st.sampled_from(sorted(pools)), min_size=1, max_size=6)):
        lo, hi = pools[kind] if pools[kind][0] < pools[kind][1] else pools["leaf"]
        changed.append(draw(st.integers(lo, hi - 1)))
    if draw(st.booleans()):
        changed.append(draw(st.sampled_from(changed)))
    return changed


@settings(max_examples=150, deadline=None)
@given(inst=carleson_instances(), data=st.data())
def test_updated_subtree_sums_match_a_full_pass_bit_for_bit(inst, data):
    lat, _, a = inst
    changed = data.draw(changed_positions(lat))
    new = data.draw(st.lists(st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 1.0]),
                                       st.floats(0.0, 3.0)),
                             min_size=len(changed), max_size=len(changed)))
    b = a.copy()
    b[changed] = new  # a repeated position takes one of its values
    sums = _subtree_sums(lat, a)
    got = _update_subtree_sums(lat, sums, b, changed)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in _subtree_sums(lat, b).tolist()]
    assert sums.tobytes() == _subtree_sums(lat, a).tobytes()  # the input is left as it was


def _on_other_lattice(kind):
    """A depth-3 sequence on the tree at 0 and the lattice kind of its partner."""
    seq = CarlesonSequence(build_lattice(1, 0, -3), np.linspace(0.1, 1.5, 15))
    other = (build_lattice(1, 0, -3, [Cube(1, 0, (1,))]) if kind == "other_root"
             else build_lattice(1, 0, -4))
    return seq, other


@pytest.mark.parametrize("kind", ["other_root", "deeper"])
@pytest.mark.parametrize("fn", [carleson_constant, embedding_constant])
def test_carleson_constants_reject_a_measure_on_another_lattice(fn, kind):
    # masses read by position gave the tree at 0's constants under the other
    # root; on the deeper tree carleson_constant raised an IndexError and
    # embedding_constant returned a constant of the first 15 cubes' masses
    seq, other = _on_other_lattice(kind)
    with pytest.raises(ValueError, match="lattice mismatch between Carleson sequence and measure"):
        fn(seq, uniform_measure(other, total=1.0))


@pytest.mark.parametrize("kind", ["other_root", "deeper"])
def test_carleson_property_rejects_an_operator_on_another_lattice(kind):
    # bounds read by position gave a report under the other root and a
    # numpy broadcast error on the deeper tree
    seq, other = _on_other_lattice(kind)
    leb = uniform_measure(other)
    t = induce(haar_multiplier(other, 1.0), leb, leb)
    with pytest.raises(ValueError, match="lattice mismatch between Carleson sequence and operator"):
        carleson_property(t, seq)


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

import dataclasses
import gc
import math
import weakref
from functools import cached_property

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from haarlab import (InducedOperator, MeasureGrid,
                     build_lattice, build_paraproduct, decomposition_identity,
                     haar_multiplier, induce, operator_norm, uniform_measure)
from haarlab.paraproduct import _largest_singular_value
# local alias: a module attribute named testing_* would be collected by pytest
from haarlab import testing_constants as constants_of

from conftest import random_instance, random_weights
from loop_oracle import loop_testing_constants


def test_norm_of_zero_operator():
    lat = build_lattice(1, 0, -2)
    leb = uniform_measure(lat)
    t = induce(haar_multiplier(lat, 0.0), leb, leb)
    assert operator_norm(t) == 0.0


def test_norm_of_identity_is_one():
    lat = build_lattice(1, 0, -3)
    leb = uniform_measure(lat)
    t = induce(haar_multiplier(lat, 1.0, root_alpha=1.0), leb, leb)
    assert operator_norm(t) == pytest.approx(1.0, rel=1e-12)


def test_norm_against_generalized_eigensolve():
    for seed in range(10):
        t = random_instance(1, 3, 1, seed, zero_fraction=0.2,
                            root_amplitude=0.4)
        mu_mass, nu_mass = t.mu.leaf_mass, t.nu.leaf_mass
        pos = np.flatnonzero(mu_mass > 0)
        m = t.matrix[:, pos]
        # largest lambda with M^T D_nu M x = lambda D_mu x on the support
        a = m.T @ np.diag(nu_mass) @ m
        b = np.diag(mu_mass[pos])
        lam = float(np.max(scipy.linalg.eigh(a, b, eigvals_only=True)))
        assert operator_norm(t) == pytest.approx(np.sqrt(max(lam, 0.0)),
                                                 rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 900, 2.0 ** -900],
                         ids=["unit", "2^900", "2^-900"])
@pytest.mark.parametrize("shape", [(1, 1), (8, 8), (63, 32), (4200, 40), (40, 4200)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_largest_singular_value_matches_svd(shape, scale):
    # singular values 1 - 1e-6 i: clustered enough that a power iteration
    # stopping on a stalled estimate misses the top one by about 1e-7; the
    # scales would overflow (2^900) or underflow (2^-900) an unscaled Gram,
    # hence abs=0: the default absolute slack would accept 0 for 2^-900
    rng = np.random.default_rng(3)
    n = min(shape)
    u = np.linalg.qr(rng.standard_normal((max(shape), n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    k = (u * (1.0 - 1e-6 * np.arange(n))) @ v * scale
    k = k if shape[0] >= shape[1] else k.T
    want = np.linalg.svd(k, compute_uv=False)[0]
    assert _largest_singular_value(k) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_largest_singular_value_of_zero_matrix_is_zero():
    assert _largest_singular_value(np.zeros((5, 3))) == 0.0
    assert _largest_singular_value(np.zeros((0, 3))) == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_largest_singular_value_of_non_finite_matrix_is_nan(bad):
    k = np.random.default_rng(0).standard_normal((6, 4))
    k[2, 1] = bad
    assert math.isnan(_largest_singular_value(k))


def test_norm_is_supremum_of_rayleigh_quotients():
    t = random_instance(1, 4, 1, seed=9)
    nrm = operator_norm(t)
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = rng.standard_normal(t.lattice.n_leaves)
        denom = t.mu.norm(f)
        if denom > 0:
            assert t.nu.norm(t.matrix @ f) <= nrm * denom + 1e-10


def test_testing_constants_of_density_multiplication():
    """Identity band induces f -> u f; all suprema reduce to mass ratios."""
    lat = build_lattice(1, 0, -3)
    band = haar_multiplier(lat, 1.0, root_alpha=1.0)
    mu = random_weights(lat, 71)
    nu = random_weights(lat, 72)
    t = induce(band, mu, nu)
    rep = constants_of(t, 0)
    u = mu.density()
    v_mass = nu.leaf_mass
    want_direct = 0.0
    for q, mass in zip(lat.active_cubes, mu.cube_masses):
        idx = lat.leaf_indices(q)
        num = float(np.sum(u[idx] ** 2 * v_mass[idx]))
        want_direct = max(want_direct, num / mass)
    assert rep.c_direct_global == pytest.approx(want_direct, rel=1e-12)
    # multiplication is local, so global and local testing agree
    assert rep.c_direct_local == pytest.approx(rep.c_direct_global, rel=1e-12)


def test_testing_constants_zero_operator():
    lat = build_lattice(1, 0, -2)
    leb = uniform_measure(lat)
    rep = constants_of(induce(haar_multiplier(lat, 0.0), leb, leb), 0)
    assert rep.norm == 0.0 and rep.rho == 0.0
    assert rep.c_direct_global == rep.c_adjoint_global == rep.c_diag == 0.0


@pytest.mark.parametrize("dim,depth,r", [(1, 3, 0), (1, 4, 1), (1, 4, 2),
                                         (2, 2, 1), (2, 3, 2)])
def test_testing_constants_never_exceed_norm(dim, depth, r):
    t = random_instance(dim, depth, r, seed=depth * 3 + r,
                        zero_fraction=0.2, root_amplitude=0.4)
    rep = constants_of(t, r)
    assert np.sqrt(rep.c_direct_global) <= rep.norm + 1e-9
    assert np.sqrt(rep.c_adjoint_global) <= rep.norm + 1e-9
    assert rep.c_diag <= rep.norm + 1e-9
    assert rep.c_direct_local <= rep.c_direct_global + 1e-12
    assert rep.c_adjoint_local <= rep.c_adjoint_global + 1e-12


def test_zero_mass_blocks_keep_constants_finite():
    # an induced operator kills input supported on a null cube, so zero-mass
    # blocks can never produce an infinite testing constant
    for seed in range(10):
        t = random_instance(1, 4, 1, seed, zero_fraction=0.4,
                            root_amplitude=0.3)
        rep = constants_of(t, 1)
        for c in (rep.c_direct_global, rep.c_adjoint_global,
                  rep.c_direct_local, rep.c_adjoint_local, rep.c_diag):
            assert np.isfinite(c)
        assert rep.unbounded_witness is None


def test_sufficiency_ratio_definition():
    t = random_instance(1, 4, 1, seed=13, root_amplitude=0.2)
    rep = constants_of(t, 1)
    want = rep.norm / (np.sqrt(rep.c_direct_local)
                       + np.sqrt(rep.c_adjoint_local) + rep.c_diag)
    assert rep.rho == pytest.approx(want, rel=1e-12)


def test_norm_monotone_in_output_weight():
    for seed in range(10):
        t = random_instance(1, 3, 1, seed)
        bigger = MeasureGrid(t.lattice,
                             t.nu.leaf_mass * np.random.default_rng(seed)
                             .uniform(1.0, 3.0, t.lattice.n_leaves))
        t2 = induce(t.band, t.mu, bigger)
        assert operator_norm(t2) >= operator_norm(t) - 1e-12


def test_norm_scales_with_weights():
    t = random_instance(1, 3, 1, seed=4)
    t2 = induce(t.band, t.mu, MeasureGrid(t.lattice, 4.0 * t.nu.leaf_mass))
    assert operator_norm(t2) == pytest.approx(2.0 * operator_norm(t), rel=1e-10)


@pytest.mark.parametrize("dim,depth,r", [(1, 4, 0), (1, 4, 1), (1, 5, 2),
                                         (2, 3, 1)])
def test_bilinear_form_decomposition_is_exact(dim, depth, r):
    t = random_instance(dim, depth, r, seed=depth * 7 + r,
                        zero_fraction=0.2, root_amplitude=0.5)
    pi_mu = build_paraproduct(t, r)
    pi_nu = build_paraproduct(t.adjoint, r)
    rng = np.random.default_rng(100 + r)
    for _ in range(5):
        f = rng.standard_normal(t.lattice.n_leaves)
        g = rng.standard_normal(t.lattice.n_leaves)
        rep = decomposition_identity(t, r, f, g, pi_mu=pi_mu, pi_nu=pi_nu)
        assert rep.relative <= 1e-12
        total = (rep.paraproduct_mu + rep.paraproduct_nu + rep.comparable
                 + rep.mean_terms)
        assert rep.lhs == pytest.approx(total, abs=1e-10)


def test_decomposition_builds_paraproducts_when_missing():
    t = random_instance(1, 3, 1, seed=1)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(t.lattice.n_leaves)
    g = rng.standard_normal(t.lattice.n_leaves)
    rep = decomposition_identity(t, 1, f, g)
    assert rep.relative <= 1e-12


def test_decomposition_rejects_mismatched_paraproducts():
    t = random_instance(1, 4, 1, seed=3, zero_fraction=0.2, root_amplitude=0.4)
    pi_mu, pi_nu = build_paraproduct(t, 1), build_paraproduct(t.adjoint, 1)
    f, g = np.random.default_rng(4).standard_normal((2, t.lattice.n_leaves))
    with pytest.raises(ValueError, match="^pi_mu was built"):
        decomposition_identity(t, 1, f, g, pi_mu=pi_nu)
    with pytest.raises(ValueError, match="^pi_nu was built"):
        decomposition_identity(t, 1, f, g, pi_nu=pi_mu)
    assert decomposition_identity(t, 1, f, g, pi_mu=pi_mu, pi_nu=pi_nu).relative <= 1e-12


class UnweightedLeafOperator(InducedOperator):
    """The leaf matrix used as given, without the density weighting of
    T M_u.  The weighting zeroes every column of a zero-mass leaf, so no
    induced operator reaches an infinite testing constant; this one can."""

    @cached_property
    def matrix(self):
        return self.lebesgue_matrix


def assert_same_report(t, r):
    # dataclass equality: every field, unbounded_witness included, by ==
    assert constants_of(t, r) == loop_testing_constants(t, r)


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]), r=st.sampled_from([0, 1, 2]),
       depth=st.integers(1, 4), seed=st.integers(0, 10 ** 6),
       zero_fraction=st.floats(0.05, 0.6),
       root_amplitude=st.sampled_from([0.0, 0.4]))
def test_testing_constants_match_loop_oracle(dim, r, depth, seed,
                                             zero_fraction, root_amplitude):
    depth = min(depth, 3) if dim == 2 else depth
    t = random_instance(dim, depth, r, seed, zero_fraction=zero_fraction,
                        root_amplitude=root_amplitude)
    assert_same_report(t, r)


@st.composite
def leaf_matrix_operators(draw):
    dim = draw(st.sampled_from([1, 2]))
    lat = build_lattice(dim, 0, -draw(st.integers(1, 3 if dim == 1 else 2)))
    n = lat.n_leaves
    # small exact values, so that sums cancel and maxima tie exactly
    masses = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    mu = MeasureGrid(lat, draw(arrays(float, n, elements=masses)))
    nu = MeasureGrid(lat, draw(arrays(float, n, elements=masses)))
    m = draw(arrays(float, (n, n), elements=st.sampled_from([-1.0, 0.0, 1.0, 2.0])))
    cls = draw(st.sampled_from([InducedOperator, UnweightedLeafOperator]))
    return cls.from_leaf_matrix(m, mu, nu)


@settings(max_examples=150, deadline=None)
@given(t=leaf_matrix_operators(), r=st.sampled_from([0, 1, 2]))
def test_testing_constants_match_loop_oracle_on_zero_mass_leaves(t, r):
    assert_same_report(t, r)


@st.composite
def adjoint_cases(draw):
    """Leaf-matrix operators, or induced random bands with zero-mass leaves
    and root blocks, each as an InducedOperator or the unweighted double."""
    if draw(st.booleans()):
        return draw(leaf_matrix_operators())
    dim = draw(st.sampled_from([1, 2]))
    t = random_instance(dim, draw(st.integers(1, 3 if dim == 1 else 2)), draw(st.integers(0, 2)),
                        draw(st.integers(0, 10 ** 6)), zero_fraction=draw(st.floats(0.05, 0.6)),
                        root_amplitude=draw(st.sampled_from([0.0, 0.4])))
    cls = draw(st.sampled_from([InducedOperator, UnweightedLeafOperator]))
    return cls(t.lattice, t.mu, t.nu, t.lebesgue_matrix, t.band)


@settings(max_examples=100, deadline=None)
@given(case=adjoint_cases(), r=st.sampled_from([0, 1, 2]))
def test_adjoint_is_the_operator_with_measures_swapped(case, r):
    t = dataclasses.replace(case)  # a fresh operator, referenced only here
    adj = t.adjoint
    assert type(adj) is type(t) and adj.mu is t.nu and adj.nu is t.mu
    want = (t.lebesgue_matrix.T if isinstance(t, UnweightedLeafOperator)
            else t.lebesgue_matrix.T * t.nu.density())
    assert np.array_equal(adj.matrix, want)
    rep, rep_adj = constants_of(t, r), constants_of(adj, r)
    assert rep_adj.c_direct_global == rep.c_adjoint_global
    assert rep_adj.c_direct_local == rep.c_adjoint_local
    # no reference cycle: the operator and its cached arrays go with the last
    # reference to it, without the cyclic collector, while its adjoint lives on
    ref = weakref.ref(t)
    gc.disable()
    try:
        del t
        assert ref() is None
    finally:
        gc.enable()
    assert adj.matrix.shape == want.shape


def test_unbounded_testing_constant_gives_rho_zero():
    # column 0 maps a zero-mass leaf of mu onto a nonzero image
    lat = build_lattice(1, 0, -2)
    mu = MeasureGrid(lat, np.array([0.0, 1.0, 1.0, 1.0]))
    t = UnweightedLeafOperator.from_leaf_matrix(np.eye(4), mu, uniform_measure(lat))
    rep = constants_of(t, 0)
    assert rep.c_direct_local == math.inf and rep.unbounded_witness is not None
    assert rep.norm > 0 and rep.rho == 0.0


@pytest.mark.parametrize("entry", [1e200, float("nan")], ids=["overflow", "nan"])
def test_nan_testing_constant_gives_nan_rho(entry):
    # 1e200 squares to inf, and inf times a zero of membership is NaN; the
    # norm stays finite, so before, the NaN became rho 0 and passed
    lat = build_lattice(1, 0, -2)
    leb = uniform_measure(lat)
    m = np.eye(lat.n_leaves)
    m[0, 1] = entry
    with np.errstate(all="ignore"):
        rep = constants_of(InducedOperator.from_leaf_matrix(m, leb, leb), 0)
    assert math.isnan(rep.c_direct_local) and math.isnan(rep.rho)
    assert math.isfinite(rep.norm) == math.isfinite(entry)

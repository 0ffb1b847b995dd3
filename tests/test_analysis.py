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

from haarlab import (BandOperator, CarlesonSequence, Cube, InducedOperator, MeasureGrid,
                     build_lattice, build_paraproduct, carleson_property,
                     check_well_localized, decomposition_identity, haar_multiplier,
                     haar_shift, haar_system, induce, operator_norm, random_band,
                     uniform_measure)
from haarlab.measures import generate_measure
from haarlab.paraproduct import _largest_singular_value
# local alias: a module attribute named testing_* would be collected by pytest
from haarlab import testing_constants as constants_of

from conftest import random_instance, random_weights
from loop_oracle import loop_operator_norm, loop_testing_constants


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


NULL_MEASURES = {"zero_blocks": {"type": "zero_blocks", "fraction": 0.5, "seed": 5},
                 "sparse_atoms": {"type": "sparse_atoms", "count": 3, "seed": 6},
                 "uniform_0": {"type": "uniform", "total": 0.0}}


def every_band(lat):
    """A band of each generator: random_band with and without a root
    block, a multiplier with root_alpha, the shift in 1D, and an explicit
    band with an entry at every pair of positions."""
    n = len(haar_system(lat))
    rows, cols = np.divmod(np.arange(n * n), n)
    values = np.random.default_rng(7).uniform(-1.0, 1.0, n * n)
    return ([random_band(lat, 1, seed=1), random_band(lat, 2, seed=2, root_amplitude=0.5),
             haar_multiplier(lat, 1.5, root_alpha=-0.5), BandOperator(lat, 0, rows, cols, values)]
            + ([haar_shift(lat)] if lat.dim == 1 else []))


@pytest.mark.parametrize("mu_kind", list(NULL_MEASURES))
@pytest.mark.parametrize("nu_kind", list(NULL_MEASURES))
@pytest.mark.parametrize("dim,depth,n_roots", [(1, 4, 1), (1, 3, 3), (2, 2, 2), (3, 1, 3)])
def test_induced_operators_vanish_exactly_on_null_cubes(dim, depth, n_roots, mu_kind, nu_kind):
    # the premise of testing_constants' one path: T_mu = T M_u maps the
    # indicator of a mu-null cube to exactly 0, T*_nu that of a nu-null
    # cube, and the pairing <T_mu chi_Q, chi_R>_nu of C_diag is exactly 0
    # when either side is null, so each quotient over a null mass is 0 / 1
    lat = build_lattice(dim, 0, -depth, [Cube(dim, 0, (k,) + (0,) * (dim - 1))
                                         for k in range(n_roots)])
    mu, nu = (generate_measure(lat, NULL_MEASURES[kind]) for kind in (mu_kind, nu_kind))
    mu_null, nu_null = mu.cube_masses == 0, nu.cube_masses == 0
    assert mu_null.any() and nu_null.any()
    for band in every_band(lat):
        t = induce(band, mu, nu)
        assert not t.chi_table[:, mu_null].any()
        assert not t.adjoint.chi_table[:, nu_null].any()
        b = lat.membership.T @ (nu.leaf_mass[:, None] * t.chi_table)
        assert not b[nu_null].any() and not b[:, mu_null].any()


@pytest.mark.parametrize("call,name", [
    (lambda t: constants_of(t, -1), "r"),
    (lambda t: check_well_localized(t, -1), "r"),
    (lambda t: build_paraproduct(t, -1), "r"),
    (lambda t: build_paraproduct(t, 1, enlarge=-1), "enlarge"),
    (lambda t: build_paraproduct(t, 1, enlarge=-9), "enlarge")],
    ids=["testing_constants_r", "check_well_localized_r", "build_paraproduct_r",
         "enlarge_-1", "enlarge_-9"])
def test_a_negative_radius_or_enlargement_is_a_value_error(call, name):
    # before: c_diag 0.0 over no comparable pairs, an IndexError, a
    # TypeError, W built from Q's first child, and an IndexError
    t = random_instance(1, 4, 1, seed=3, zero_fraction=0.2, root_amplitude=0.4)
    with pytest.raises(ValueError, match=f"^{name} must be nonnegative, got -"):
        call(t)


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
        t2 = dataclasses.replace(t, nu=bigger)  # the same leaf matrix, induced anew
        assert operator_norm(t2) >= operator_norm(t) - 1e-12


def test_norm_scales_with_weights():
    t = random_instance(1, 3, 1, seed=4)
    t2 = dataclasses.replace(t, nu=MeasureGrid(t.lattice, 4.0 * t.nu.leaf_mass))
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
        rep = decomposition_identity(t, pi_mu, pi_nu, f, g)
        assert rep.relative <= 1e-12
        total = (rep.paraproduct_mu + rep.paraproduct_nu + rep.comparable
                 + rep.mean_terms)
        assert rep.lhs == pytest.approx(total, abs=1e-10)


def test_decomposition_rejects_mismatched_paraproducts():
    t = random_instance(1, 4, 1, seed=3, zero_fraction=0.2, root_amplitude=0.4)
    pi_mu, pi_nu = build_paraproduct(t, 1), build_paraproduct(t.adjoint, 1)
    f, g = np.random.default_rng(4).standard_normal((2, t.lattice.n_leaves))
    with pytest.raises(ValueError, match="^pi_mu was built"):
        decomposition_identity(t, pi_nu, pi_nu, f, g)
    with pytest.raises(ValueError, match="^pi_nu was built"):
        decomposition_identity(t, pi_mu, pi_mu, f, g)
    assert decomposition_identity(t, pi_mu, pi_nu, f, g).relative <= 1e-12


def test_decomposition_rejects_paraproducts_at_another_r():
    # r is pi_mu's; without the check, pi_nu at r = 0 gave a relative residual of 0.0256
    t = random_instance(1, 4, 1, seed=3, zero_fraction=0.2, root_amplitude=0.4)
    pi_mu, pi_nu = build_paraproduct(t, 1), build_paraproduct(t.adjoint, 1)
    f, g = np.random.default_rng(4).standard_normal((2, t.lattice.n_leaves))
    with pytest.raises(ValueError, match="^pi_nu was built at r=0, not r=1"):
        decomposition_identity(t, pi_mu, build_paraproduct(t.adjoint, 0), f, g)
    with pytest.raises(ValueError, match="^pi_nu was built at r=1, not r=2"):
        decomposition_identity(t, build_paraproduct(t, 2), pi_nu, f, g)


class UnweightedLeafOperator(InducedOperator):
    """The leaf matrix used as given, without the density weighting of
    T M_u: an operator that is not induced.  The weighting zeroes every
    column of a zero-mass leaf; this double keeps them."""

    @cached_property
    def matrix(self):
        return self.lebesgue_matrix


def assert_same_report(t, r):
    # dataclass equality: every field by ==
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
    return InducedOperator(lat, mu, nu, m)


@settings(max_examples=150, deadline=None)
@given(t=leaf_matrix_operators(), r=st.sampled_from([0, 1, 2]))
def test_testing_constants_match_loop_oracle_on_zero_mass_leaves(t, r):
    assert_same_report(t, r)


@st.composite
def adjoint_cases(draw):
    """Leaf-matrix operators, or induced random bands with zero-mass leaves
    and root blocks, each as an InducedOperator or the unweighted double."""
    if draw(st.booleans()):
        t = draw(leaf_matrix_operators())
    else:
        dim = draw(st.sampled_from([1, 2]))
        t = random_instance(dim, draw(st.integers(1, 3 if dim == 1 else 2)),
                            draw(st.integers(0, 2)), draw(st.integers(0, 10 ** 6)),
                            zero_fraction=draw(st.floats(0.05, 0.6)),
                            root_amplitude=draw(st.sampled_from([0.0, 0.4])))
    cls = draw(st.sampled_from([InducedOperator, UnweightedLeafOperator]))
    return cls(t.lattice, t.mu, t.nu, t.lebesgue_matrix)


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


@pytest.mark.parametrize("entry", [1e200, float("nan")], ids=["overflow", "nan"])
def test_nan_testing_constant_gives_nan_rho(entry):
    # 1e200 squares to inf, and inf times a zero of membership is NaN; the
    # norm stays finite, so before, the NaN became rho 0 and passed
    lat = build_lattice(1, 0, -2)
    leb = uniform_measure(lat)
    m = np.eye(lat.n_leaves)
    m[0, 1] = entry
    with np.errstate(all="ignore"):
        rep = constants_of(InducedOperator(lat, leb, leb, m), 0)
    assert math.isnan(rep.c_direct_local) and math.isnan(rep.rho)
    assert math.isfinite(rep.norm) == math.isfinite(entry)


@pytest.mark.parametrize("dim, depth", [(1, 5), (2, 3), (3, 2)])
def test_local_testing_constant_is_one_number_in_both_suites(dim, depth):
    # testing_constants and carleson_property divide the same integrals by
    # the same cube masses, so they report the same constant bit for bit
    lat = build_lattice(dim, 0, -depth)
    # the constant reads no a_Q; at depth 2 = r there is no paraproduct
    zero = CarlesonSequence(lat, np.zeros(len(lat.levels)))
    for seed in range(60):
        mu = random_weights(lat, 3 * seed + 1, zero_fraction=0.2 * (seed % 2))
        nu = random_weights(lat, 3 * seed + 2, zero_fraction=0.2)
        r = 1 + seed % 2
        t = induce(random_band(lat, r, seed=seed, root_amplitude=0.5 * (seed % 3 > 0)),
                   mu, nu)
        c_local = carleson_property(t, zero).local_testing_constant
        assert constants_of(t, r).c_direct_local == c_local, seed


@st.composite
def norm_cases(draw):
    """Operators of four families: a random band between positive
    measures, leaf matrices between measures with zero-mass leaves, the
    unweighted double (for the norm only: it is not induced), and leaf
    matrices holding one NaN or inf."""
    family = draw(st.sampled_from(["positive", "zero_mass", "unweighted", "non_finite"]))
    dim = draw(st.sampled_from([1, 2]))
    lat = build_lattice(dim, 0, -draw(st.integers(1, 3 if dim == 1 else 2)))
    n = lat.n_leaves
    if family == "positive":
        seed = draw(st.integers(0, 10 ** 6))
        band = random_band(lat, draw(st.integers(0, 2)), seed=seed,
                           root_amplitude=draw(st.sampled_from([0.0, 0.4])))
        return induce(band, random_weights(lat, 3 * seed + 1), random_weights(lat, 3 * seed + 2))
    masses = [draw(arrays(float, n, elements=st.sampled_from([0.0, 0.5, 1.0, 2.0])))
              for _ in range(2)]
    if family == "zero_mass":
        for mass in masses:
            mass[draw(st.integers(0, n - 1))] = 0.0
    m = draw(arrays(float, (n, n), elements=st.sampled_from([-1.0, 0.0, 1.0, 2.0])))
    if family == "non_finite":
        m[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    cls = UnweightedLeafOperator if family == "unweighted" else InducedOperator
    return cls(lat, *(MeasureGrid(lat, mass) for mass in masses), m)


def hex_fields(rep):
    """A report's fields by name, floats as float.hex: equal on NaN, where == is not."""
    return {k: float.hex(v) if isinstance(v, float) else v for k, v in vars(rep).items()}


@settings(max_examples=200, deadline=None)
@given(t=norm_cases(), r=st.sampled_from([0, 1, 2]))
def test_norm_and_testing_constants_match_loop_oracle_bit_for_bit(t, r):
    with np.errstate(all="ignore"):  # the non-finite leaf matrices
        assert float.hex(operator_norm(t)) == float.hex(loop_operator_norm(t))
        if isinstance(t, UnweightedLeafOperator):
            return
        got, want = hex_fields(constants_of(t, r)), hex_fields(loop_testing_constants(t, r))
    if np.isfinite(t.matrix).all():
        assert got == want
    else:
        # the oracle's builtin max drops a NaN ratio, which numpy's max keeps:
        # such a constant is NaN here, and so is rho
        assert all(got[k] in (want[k], "nan") for k in got)
        assert got == want or got["rho"] == "nan"

"""Operator norms, indicator testing constants, the bilinear-form
decomposition identity and the norm-to-testing sufficiency ratio.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import Lattice, read_only
from .measures import _row_sums, _scalar
from .operators import InducedOperator, check_nonnegative
from .paraproduct import Paraproduct, _largest_singular_value


def operator_norm(t_mu: InducedOperator) -> float:
    """Exact norm of T_mu from L2(mu) to L2(nu).

    Largest singular value of D_nu^(1/2) [T_mu] D_mu^(-1/2) on the
    positive-mass leaf coordinates.
    """
    mu_mass, nu_mass, m = t_mu.mu.leaf_mass, t_mu.nu.leaf_mass, t_mu.matrix
    if not (mu_mass.all() and nu_mass.all()):  # masses are >= 0: drop the zero-mass leaves
        cols, rows = np.flatnonzero(mu_mass > 0), np.flatnonzero(nu_mass > 0)
        mu_mass, nu_mass, m = mu_mass[cols], nu_mass[rows], m[np.ix_(rows, cols)]
    k = np.multiply(np.sqrt(nu_mass)[:, None], m)
    return _largest_singular_value(np.divide(k, np.sqrt(mu_mass)[None, :], out=k))


@dataclass(frozen=True)
class TestingReport:
    """Testing constants of an induced operator, plus its exact norm.

    Global constants integrate |T_mu chi_Q|^2 over the whole space, local
    ones only over Q.  `c_adjoint_local_nu` is the variant of the adjoint
    local integral taken against d(nu) instead of d(mu); both are reported.
    """

    c_direct_global: float
    c_adjoint_global: float
    c_direct_local: float
    c_adjoint_local: float
    c_adjoint_local_nu: float
    c_diag: float
    norm: float
    rho: float


@lru_cache(maxsize=32)
def comparable_pairs(lattice: Lattice, r: int) -> np.ndarray:
    """Active cubes x active cubes, read-only: [R, Q] is True when
    |level(R) - level(Q)| <= r, the pairs C_diag runs over."""
    return read_only(np.abs(lattice.levels[:, None] - lattice.levels[None, :]) <= r)


def testing_constants(t_mu: InducedOperator, r: int) -> TestingReport:
    """Exact suprema over active cubes of the indicator testing quantities.

    T_mu = T M_u, so T_mu chi_Q is exactly 0 on a mu-null cube Q, and so
    is every testing integral divided by mu(Q); T*_nu on nu-null cubes
    likewise, and every pairing with a null side.  So each quotient
    divides by the cube's mass, or by 1 where that mass is 0: a null
    cube's quotient is +0.0, which leaves every maximum unchanged, and
    one path serves every mass pattern.  The maxima are numpy
    reductions, so a NaN ratio makes its constant NaN, where the builtin
    max once used here dropped it.  C_diag divides |b| by
    sqrt(nu(R) mu(Q)) in place, under a where= mask of the comparable
    pairs: only the read entries are computed, each to the bits of its
    quotient.  A negative r is a ValueError.
    """
    check_nonnegative("r", r)
    lattice = t_mu.lattice
    x = lattice.membership
    mu_mass, nu_mass = t_mu.mu.leaf_mass, t_mu.nu.leaf_mass
    # masses are >= 0: a null cube divides by 1 instead of 0
    mu_d, nu_d = (np.where(m > 0, m, 1.0) for m in (t_mu.mu.cube_masses, t_mu.nu.cube_masses))
    # one leaves x cubes buffer, overwritten in place (fresh temporaries cost
    # page faults on every call): |T chi_Q|^2 gives the global integral, then
    # times chi_Q the local ones (a tuple evaluates left to right); T* next
    ax = t_mu.adjoint.chi_table
    sq = t_mu.chi_table * t_mu.chi_table
    direct = nu_mass @ sq, nu_mass @ np.multiply(sq, x, out=sq)
    adjoint_global = mu_mass @ np.multiply(ax, ax, out=sq)
    sq *= x
    adjoint = adjoint_global, mu_mass @ sq, nu_mass @ sq
    # comparable-size bilinear pairings: rows R, columns Q; the buffer is
    # freed before the cubes x cubes part, which would otherwise raise the peak
    b = x.T @ np.multiply(nu_mass[:, None], t_mu.chi_table, out=sq)
    del sq
    np.abs(b, out=b)
    c_dg, c_dl = ((v / mu_d).max(initial=0.0) for v in direct)
    c_ag, c_al, c_aln = ((v / nu_d).max(initial=0.0) for v in adjoint)
    # |b| / sqrt(nu(R) mu(Q)) on the comparable pairs, in place: the where=
    # forms compute and read only those entries
    comparable = comparable_pairs(lattice, r)
    q = np.outer(nu_d, mu_d)
    np.sqrt(q, out=q, where=comparable)
    c_diag = np.divide(b, q, out=b, where=comparable).max(where=comparable, initial=0.0)

    norm = operator_norm(t_mu)
    # an infinite constant (overflow) gives rho 0, a NaN one NaN
    denom = np.sqrt(c_dl) + np.sqrt(c_al) + c_diag
    rho = (float("nan") if np.isnan(norm + denom) else norm / denom if denom > 0
           else 0.0 if norm == 0.0 else float("inf"))
    return TestingReport(c_direct_global=c_dg, c_adjoint_global=c_ag,
                         c_direct_local=c_dl, c_adjoint_local=c_al,
                         c_adjoint_local_nu=c_aln, c_diag=c_diag,
                         norm=norm, rho=rho)


@dataclass(frozen=True)
class DecompositionReport:
    """Exact splitting of <T_mu f, g>_nu into paraproducts, the
    comparable-scale band and the mean (root-average) cross terms.  Each
    field is a float for one pair (f, g), an array for stacks of pairs."""

    lhs: float | np.ndarray
    paraproduct_mu: float | np.ndarray
    paraproduct_nu: float | np.ndarray
    comparable: float | np.ndarray
    mean_terms: float | np.ndarray
    residual: float | np.ndarray
    relative: float | np.ndarray


def decomposition_identity(t_mu: InducedOperator, pi_mu: Paraproduct, pi_nu: Paraproduct,
                           f: np.ndarray, g: np.ndarray) -> DecompositionReport:
    """Verify <T_mu f, g>_nu = <Pi^mu f~, g>_nu + <f, Pi^nu g~>_mu
    + sum over comparable scales <T_mu Delta_Q f, Delta_R g>_nu
    + mean terms, where f~, g~ are f, g minus their root averages.
    pi_mu and pi_nu are the paraproducts of T_mu and T*_nu at one r = pi_mu.r.

    f and g are leaf functions, or stacks of them along the last axis
    paired row by row; a stack is one matrix product per operator.
    `relative` is the residual over ||T_mu f||_nu ||g||_nu
    + ||f||_mu ||T*_nu g||_mu, which bounds 2 |lhs| and scales like every
    term when mu or nu is multiplied by a constant (the residual itself
    where that scale is 0, NaN where it or the residual is not finite).
    """
    lattice, mu, nu, r = t_mu.lattice, t_mu.mu, t_mu.nu, pi_mu.r
    pi_mu.require_built_from(t_mu, "pi_mu")
    pi_nu.require_built_from(t_mu.adjoint, "pi_nu", r)
    t = t_mu.matrix.T  # v @ t applies T_mu to every row of v

    f_mean = mu.mean_part(f)
    f_fluct = f - f_mean
    g_mean = nu.mean_part(g)
    g_fluct = g - g_mean

    tf = f @ t
    lhs = nu.inner(tf, g)
    # v @ A^T @ W applies Pi = W^T A to every row of v
    term_pi_mu = nu.inner(f_fluct @ pi_mu.a.T @ pi_mu.w, g)
    term_pi_nu = mu.inner(f, g_fluct @ pi_nu.a.T @ pi_nu.w)

    # sum over comparable levels j, k of <T_mu Delta_j f, Delta_k g>_nu, where
    # Delta_j is the sum of Delta_Q over the cubes Q at level j
    levels = np.arange(lattice.top_level, lattice.leaf_level, -1)
    delta_f = mu.level_deltas(f, levels)
    delta_g = nu.level_deltas(g, levels) * nu.leaf_mass
    pairs = delta_f @ t @ np.swapaxes(delta_g, -1, -2)
    comparable = _scalar(_row_sums(pairs[..., np.abs(levels[:, None] - levels) <= r]))

    mean_terms = nu.inner(f_mean @ t, g) + nu.inner(f_fluct @ t, g_mean)

    rhs = term_pi_mu + term_pi_nu + comparable + mean_terms
    residual = abs(lhs - rhs)
    scale = (nu.norm(tf) * nu.norm(g)
             + mu.norm(f) * mu.norm(g @ t_mu.adjoint.matrix.T))
    relative = np.where(np.isfinite(residual) & np.isfinite(scale),
                        residual / np.where(scale > 0, scale, 1.0), np.nan)
    return DecompositionReport(lhs=lhs, paraproduct_mu=term_pi_mu,
                               paraproduct_nu=term_pi_nu,
                               comparable=comparable, mean_terms=mean_terms,
                               residual=residual, relative=_scalar(relative))

"""Operator norms, indicator testing constants, the bilinear-form
decomposition identity and the norm-to-testing sufficiency ratio.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import _row_sums, _scalar
from .operators import InducedOperator
from .paraproduct import Paraproduct, _largest_singular_value, build_paraproduct


def operator_norm(t_mu: InducedOperator) -> float:
    """Exact norm of T_mu from L2(mu) to L2(nu).

    Largest singular value of D_nu^(1/2) [T_mu] D_mu^(-1/2) on the
    positive-mass leaf coordinates.
    """
    mu_mass = t_mu.mu.leaf_mass
    nu_mass = t_mu.nu.leaf_mass
    cols = np.flatnonzero(mu_mass > 0)
    rows = np.flatnonzero(nu_mass > 0)
    k = (np.sqrt(nu_mass[rows])[:, None] * t_mu.matrix[np.ix_(rows, cols)]
         / np.sqrt(mu_mass[cols])[None, :])
    return _largest_singular_value(k)


@dataclass(frozen=True)
class TestingReport:
    """Testing constants of an induced operator, plus its exact norm.

    Global constants integrate |T_mu chi_Q|^2 over the whole space, local
    ones only over Q.  `c_adjoint_local_nu` is the variant of the adjoint
    local integral taken against d(nu) instead of d(mu); both are reported.
    An unbounded witness (nonzero image over a zero-mass cube) makes the
    corresponding constant infinite.
    """

    c_direct_global: float
    c_adjoint_global: float
    c_direct_local: float
    c_adjoint_local: float
    c_adjoint_local_nu: float
    c_diag: float
    norm: float
    rho: float
    unbounded_witness: tuple | None = None


def _testing_integrals(t: InducedOperator) -> tuple:
    """(global, local, mass) per active Q: the integrals of |T chi_Q|^2 over
    the whole space and over Q in t.nu, and Q's mass in t.mu, the divisor."""
    x = t.lattice.membership
    out_mass, tx = t.nu.leaf_mass, t.chi_table
    return out_mass @ (tx * tx), out_mass @ (tx * tx * x), t.mu.leaf_mass @ x


def testing_constants(t_mu: InducedOperator, r: int) -> TestingReport:
    """Exact suprema over active cubes of the indicator testing quantities.

    A constant is inf when a cube (for C_diag, a comparable pair) has a
    nonzero testing integral but zero mass on the side it is divided by.
    `unbounded_witness` then names the last offender in active_cubes
    order: a ("diag", Q, R) pair if there is one (largest R, then largest
    Q), else a single cube, "adjoint" winning over "direct" on the same
    cube.  The maxima are numpy reductions, so a NaN ratio makes its
    constant NaN, where the builtin max once used here dropped it.
    """
    lattice = t_mu.lattice
    cubes = lattice.active_cubes
    x = lattice.membership
    nu_mass = t_mu.nu.leaf_mass
    (direct_global, direct_local, mu_q), (adjoint_global, adjoint_local, nu_q) = (
        _testing_integrals(t) for t in (t_mu, t_mu.adjoint))
    ax = t_mu.adjoint.chi_table
    adjoint_local_nu = nu_mass @ (ax * ax * x)

    mu_pos, nu_pos = mu_q > 0, nu_q > 0
    c_dg, c_dl = (np.max(v[mu_pos] / mu_q[mu_pos], initial=0.0)
                  for v in (direct_global, direct_local))
    c_ag, c_al, c_aln = (np.max(v[nu_pos] / nu_q[nu_pos], initial=0.0)
                         for v in (adjoint_global, adjoint_local, adjoint_local_nu))
    witness = None
    direct_off = np.flatnonzero(~mu_pos & (direct_global > 0))
    adjoint_off = np.flatnonzero(~nu_pos & (adjoint_global > 0))
    if direct_off.size:
        c_dg = c_dl = float("inf")
        witness = ("direct", cubes[direct_off[-1]])
    if adjoint_off.size:
        c_ag = c_al = float("inf")
        if not direct_off.size or adjoint_off[-1] >= direct_off[-1]:
            witness = ("adjoint", cubes[adjoint_off[-1]])

    # comparable-size bilinear pairings: rows R, columns Q
    b = np.abs(x.T @ (nu_mass[:, None] * t_mu.chi_table))
    comparable = np.abs(lattice.levels[:, None] - lattice.levels[None, :]) <= r
    massive = comparable & np.outer(nu_pos, mu_pos)
    c_diag = np.max(b[massive] / np.sqrt(np.outer(nu_q, mu_q)[massive]),
                    initial=0.0)
    diag_off = np.flatnonzero(comparable & ~massive & (b > 0))
    if diag_off.size:
        c_diag = float("inf")
        i, j = divmod(int(diag_off[-1]), len(cubes))
        witness = ("diag", cubes[j], cubes[i])

    norm = operator_norm(t_mu)
    # an infinite constant (unbounded witness) gives rho 0, a NaN one NaN
    denom = np.sqrt(c_dl) + np.sqrt(c_al) + c_diag
    rho = (float("nan") if np.isnan(norm + denom) else norm / denom if denom > 0
           else 0.0 if norm == 0.0 else float("inf"))
    return TestingReport(c_direct_global=c_dg, c_adjoint_global=c_ag,
                         c_direct_local=c_dl, c_adjoint_local=c_al,
                         c_adjoint_local_nu=c_aln, c_diag=c_diag,
                         norm=norm, rho=rho, unbounded_witness=witness)


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


def decomposition_identity(t_mu: InducedOperator, r: int, f: np.ndarray,
                           g: np.ndarray, pi_mu: Paraproduct | None = None,
                           pi_nu: Paraproduct | None = None) -> DecompositionReport:
    """Verify <T_mu f, g>_nu = <Pi^mu f~, g>_nu + <f, Pi^nu g~>_mu
    + sum over comparable scales <T_mu Delta_Q f, Delta_R g>_nu
    + mean terms, where f~, g~ are f, g minus their root averages.

    f and g are leaf functions, or stacks of them along the last axis
    paired row by row; a stack is one matrix product per operator.
    `relative` is the residual over ||T_mu f||_nu ||g||_nu
    + ||f||_mu ||T*_nu g||_mu, which bounds 2 |lhs| and scales like every
    term when mu or nu is multiplied by a constant (the residual itself
    where that scale is 0, NaN where it or the residual is not finite).
    """
    lattice = t_mu.lattice
    mu, nu = t_mu.mu, t_mu.nu
    pi_mu = pi_mu or build_paraproduct(t_mu, r)
    pi_nu = pi_nu or build_paraproduct(t_mu.adjoint, r)
    pi_mu.require_built_from(t_mu, "pi_mu")
    pi_nu.require_built_from(t_mu.adjoint, "pi_nu")
    t = t_mu.matrix.T  # v @ t applies T_mu to every row of v

    f_mean = mu.mean_part(f)
    f_fluct = f - f_mean
    g_mean = nu.mean_part(g)
    g_fluct = g - g_mean

    tf = f @ t
    lhs = nu.inner(tf, g)
    term_pi_mu = nu.inner(f_fluct @ pi_mu.matrix.T, g)
    term_pi_nu = mu.inner(f, g_fluct @ pi_nu.matrix.T)

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

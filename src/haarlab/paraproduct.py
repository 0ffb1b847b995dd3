"""Paraproducts of an induced operator, their entrywise matrix structure,
the remainder's diagonal band, Carleson sequences and the dyadic Carleson
embedding constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Lattice
from .measures import MeasureGrid
from .operators import InducedOperator, TwoWeightMatrix, ZERO_TOL


@dataclass(frozen=True)
class Paraproduct(TwoWeightMatrix):
    """Pi f = sum_Q E_Q f * sum_{R in Q, side(R) = 2^-r side(Q)} Delta_R T chi_Q
    for an induced operator T from L2(mu) to L2(nu), T's measures: Pi_mu is
    built from T_mu, Pi_nu from its adjoint T*_nu (output in L2(mu))."""

    r: int
    matrix: np.ndarray
    mu: MeasureGrid
    nu: MeasureGrid

    def require_built_from(self, t: InducedOperator, name: str) -> None:
        """Raise ValueError unless this maps between t's measures (`is`: their == raises)."""
        if self.mu is not t.mu or self.nu is not t.nu:
            raise ValueError(f"{name} was built from an operator between other measures")


def build_paraproduct(t: InducedOperator, r: int, *, enlarge: int = 0) -> Paraproduct:
    """Assemble the exact paraproduct matrix of t on leaf functions: averages
    in t.mu, martingale differences in t.nu.

    `enlarge` replaces chi_Q in the inner term by the indicator of the
    k-th active ancestor of Q (used to exercise replacement invariance);
    the result must not depend on it for a well localized operator.
    """
    lattice = t.lattice
    if lattice.depth <= r:
        raise ValueError(f"lattice depth {lattice.depth} must exceed r={r}")
    mq = t.mu.cube_masses
    cubes = np.flatnonzero((lattice.levels - r >= lattice.leaf_level + 1) & (mq > 0))
    w = _local_deltas(t.chi_table, t.nu, r, cubes, enlarge)  # no cubes: a zero matrix
    a = lattice.membership.T[cubes] * t.mu.leaf_mass / mq[cubes][:, None]
    return Paraproduct(r=r, matrix=w.T @ a, mu=t.mu, nu=t.nu)


def _local_deltas(table: np.ndarray, measure: MeasureGrid, r: int,
                  cubes: np.ndarray, enlarge: int = 0) -> np.ndarray:
    """Row k: the sum of Delta_R (T chi_B) over the cubes R inside Q at
    level(Q) - r, where Q is the active cube at position cubes[k], B the
    `enlarge`-th active ancestor of Q (the top cube when there are fewer)
    and T chi_B column B of `table` (an InducedOperator chi table)."""
    lattice = measure.lattice
    anc = lattice.ancestor_index
    levels = lattice.levels[cubes]
    rows = np.zeros((cubes.size, lattice.n_leaves))
    for level in set(levels.tolist()):
        k = lattice.top_level - level
        sel = np.flatnonzero(levels == level)
        big = lattice.ancestor_keys(cubes[sel], min(level + enlarge, lattice.top_level))
        d = measure.level_deltas(table.T[big], [level - r])[:, 0]
        rows[sel] = np.where(anc[k] == cubes[sel][:, None], d, 0.0)
    return rows


@dataclass(frozen=True)
class ParaproductStructureReport:
    """Entrywise check of the paraproduct's matrix in the weighted bases."""

    passed: bool
    scale: float
    max_dev_vanish_scale: float      # side(R) >= 2^-r side(Q) entries
    max_dev_vanish_outside: float    # R not inside Q entries
    max_dev_equality: float          # side(R) < 2^-r side(Q): Pi entry vs T entry
    witness: tuple | None


def paraproduct_structure_verify(pi: Paraproduct, t: InducedOperator, *,
                                 tol: float = 1e-9) -> ParaproductStructureReport:
    """Compare pi with t, the operator it was built from, entry by entry in
    t.mu's Haar basis (columns Q) and t.nu's (rows R)."""
    pi.require_built_from(t, "pi")
    mu_cubes, nu_cubes = t.mu.haar_rows[0], t.nu.haar_rows[0]
    g_pi, g_t = pi.haar_block, t.haar_block
    scale = float(max(np.max(np.abs(g), initial=0.0) for g in (g_t, g_pi)))
    if scale == 0.0:
        return ParaproductStructureReport(True, 0.0, 0.0, 0.0, 0.0, None)
    levels = t.lattice.levels
    coarse = levels[nu_cubes][:, None] >= levels[mu_cubes][None, :] - pi.r
    outside = ~t.lattice.inside(nu_cubes, mu_cubes)
    pi_dev = np.abs(g_pi) / scale
    devs = (np.where(coarse, pi_dev, 0.0), np.where(outside, pi_dev, 0.0),
            np.where(coarse, 0.0, np.abs(g_pi - g_t) / scale))
    dev1, dev2, dev3 = (float(np.max(d)) for d in devs)
    passed = all(d <= tol for d in (dev1, dev2, dev3))
    # witness: of the first maximal pair of each kind, the last in (R, Q, kind) order
    last = max(((int(np.argmax(d)), k) for k, d in enumerate(devs) if np.max(d) > 0),
               default=None)
    witness = None
    if last is not None:
        i, j = divmod(last[0], len(mu_cubes))
        cubes = t.lattice.active_cubes
        witness = (("vanish_scale", "vanish_outside", "equality")[last[1]],
                   cubes[mu_cubes[j]], cubes[nu_cubes[i]])
    return ParaproductStructureReport(passed=passed, scale=scale, max_dev_vanish_scale=dev1,
                         max_dev_vanish_outside=dev2, max_dev_equality=dev3,
                         witness=None if passed else witness)


@dataclass(frozen=True)
class RemainderReport:
    """Band structure of T_mu - Pi_mu - (Pi_nu)* in the weighted bases."""

    passed: bool
    scale: float
    off_band_max: float
    in_band_max: float


def remainder_diagonals(t_mu: InducedOperator, pi_mu: Paraproduct,
                        pi_nu: Paraproduct, tol: float = ZERO_TOL) -> RemainderReport:
    pi_mu.require_built_from(t_mu, "pi_mu")
    pi_nu.require_built_from(t_mu.adjoint, "pi_nu")
    mu_cubes, nu_cubes = t_mu.mu.haar_rows[0], t_mu.nu.haar_rows[0]
    if not mu_cubes.size or not nu_cubes.size:
        return RemainderReport(True, 0.0, 0.0, 0.0)
    g_t = t_mu.haar_block
    # <(Pi_nu)* h_Q^mu, h_R^nu>_nu = <h_Q^mu, Pi_nu h_R^nu>_mu
    diff = np.abs(g_t - pi_mu.haar_block - pi_nu.haar_block.T)
    scale = float(np.max(np.abs(g_t)))
    if scale == 0.0:
        scale = max(float(np.max(diff)), 1.0)
    levels = t_mu.lattice.levels
    far = np.abs(np.subtract.outer(levels[nu_cubes], levels[mu_cubes])) > pi_mu.r
    off = float(np.max(diff[far] / scale, initial=0.0))
    in_band = float(np.max(diff[~far], initial=0.0))
    return RemainderReport(passed=off <= tol, scale=scale,
                           off_band_max=off, in_band_max=in_band)


@dataclass(frozen=True)
class CarlesonSequence:
    """A finite nonnegative number a_Q per active cube.

    `values` is one read-only float array in `lattice.active_cubes` order:
    values[i] is a_Q for Q = active_cubes[i] (`lattice.cube_index` maps a
    cube to its position).  Every Carleson computation reads it as an array.
    """

    lattice: Lattice
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != self.lattice.levels.shape:
            raise ValueError(f"expected one value per active cube, got shape {v.shape}")
        bad = ~(np.isfinite(v) & (v >= 0))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"Carleson values must be finite and nonnegative, got "
                             f"{float(v[i])!r} at {self.lattice.active_cubes[i]}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def subtree_sums(self) -> np.ndarray:
        """sum of a_Q over active Q contained in each active cube, computed
        bottom-up: children in lexicographic order, then a_Q."""
        lattice = self.lattice
        kids = lattice.children_index
        sums = self.values.copy()
        starts = lattice.level_starts
        for j in range(lattice.depth - 1, -1, -1):
            rows = slice(starts[j], starts[j + 1])
            acc = sums[kids[rows, 0]]
            for k in range(1, kids.shape[1]):
                acc += sums[kids[rows, k]]
            sums[rows] = acc + self.values[rows]
        return sums


def carleson_sequence(t_mu: InducedOperator, r: int) -> CarlesonSequence:
    """a_Q = sum over R inside Q at scale 2^-r side(Q) of the squared nu-norm
    of Delta_R^nu T_mu chi_Q."""
    lattice = t_mu.lattice
    values = np.zeros(len(lattice.levels))
    cubes = np.flatnonzero(lattice.levels - r >= lattice.leaf_level + 1)
    if cubes.size:
        d = _local_deltas(t_mu.chi_table, t_mu.nu, r, cubes)
        values[cubes] = (d * d * t_mu.nu.leaf_mass).sum(axis=-1)
    return CarlesonSequence(lattice=lattice, values=values)


def carleson_constant(seq: CarlesonSequence, mu: MeasureGrid) -> float:
    """Smallest C with sum_{Q inside R} a_Q <= C mu(R) over active R;
    inf when a zero-mass cube carries a positive subtree sum."""
    sums = seq.subtree_sums()
    m = mu.cube_masses
    pos = m > 0.0
    if np.any(sums[~pos] > 0.0):
        return float("inf")
    return float(np.max(sums[pos] / m[pos], initial=0.0))


def _largest_singular_value(k: np.ndarray) -> float:
    """Largest singular value sigma of k; NaN if an entry is NaN or inf.

    k is scaled exactly by a power of two into max|k| in [1/2, 1), so its
    smaller (p x p) Gram, summed over q terms, cannot overflow.  The root of
    its top eigenvalue is sigma (1 + delta), |delta| <= (q + c) p eps / 2 to
    first order.  Nothing stops on a tolerance of its own: LAPACK's
    backward-stable eigensolve meets its bound or raises.
    """
    amax = float(np.abs(k).max()) if k.size else 0.0
    if not 0.0 < amax < math.inf:
        return amax * 0.0  # 0 for the zero matrix, NaN for a NaN or inf entry
    e = math.frexp(amax)[1]
    k = np.ldexp(k, -e)
    gram = k @ k.T if k.shape[0] <= k.shape[1] else k.T @ k
    return float(np.ldexp(math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)), e))


def embedding_constant(seq: CarlesonSequence, mu: MeasureGrid) -> float:
    """Exact optimal C in sum_R a_R |E_R f|^2 <= C ||f||_mu^2.

    The quadratic form is restricted to the positive-mass leaf subspace;
    the constant is the largest eigenvalue of the induced symmetric form.
    Row R of its square root is sqrt(a_R) sqrt(mu) / mu(R) on R's leaves;
    cubes with a_R = 0 or mu(R) = 0 (E_R f = 0) contribute no row.
    """
    lattice = seq.lattice
    pos = np.flatnonzero(mu.leaf_mass > 0)
    m = mu.cube_masses
    sel = np.flatnonzero((seq.values > 0) & (m > 0))
    inside = lattice.ancestor_index[lattice.top_level - lattice.levels[sel]] == sel[:, None]
    k = inside[:, pos] * np.sqrt(seq.values[sel])[:, None]
    k *= np.sqrt(mu.leaf_mass[pos])
    k /= m[sel][:, None]
    s = _largest_singular_value(k)
    return float(s * s)


@dataclass(frozen=True)
class CarlesonPropertyReport:
    """Check sum_{Q inside R} a_Q <= ||chi_R T_mu chi_R||^2 <= C_local mu(R)."""

    passed: bool
    max_excess: float
    local_testing_constant: float


def carleson_property(t_mu: InducedOperator, seq: CarlesonSequence,
                      tol: float = 1e-10) -> CarlesonPropertyReport:
    tx = t_mu.chi_table
    bounds = t_mu.nu.leaf_mass @ (tx * tx * t_mu.lattice.membership)
    excess = float(np.max((seq.subtree_sums() - bounds) / np.maximum(bounds, 1.0),
                          initial=0.0))
    m = t_mu.mu.cube_masses
    c_local = float(np.max(bounds[m > 0] / m[m > 0], initial=0.0))
    return CarlesonPropertyReport(passed=excess <= tol, max_excess=excess,
                                  local_testing_constant=c_local)

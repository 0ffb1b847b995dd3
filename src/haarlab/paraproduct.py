"""Paraproducts of an induced operator, their entrywise matrix structure,
the remainder's diagonal band, Carleson sequences and the dyadic Carleson
embedding constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import Cube, Lattice, read_only
from .measures import MeasureGrid
from .operators import (DEFAULT_TOLERANCES, InducedOperator, check_nonnegative,
                        local_testing_integrals)


@dataclass(frozen=True)
class Paraproduct:
    """Pi f = sum_Q E_Q f * w_Q, w_Q = sum_{R in Q, side(R) = 2^-r side(Q)} Delta_R T chi_Q,
    for an induced operator T from L2(mu) to L2(nu), T's measures: Pi_mu is
    built from T_mu, Pi_nu from its adjoint T*_nu (output in L2(mu)).

    Pi is kept as its factors, Pi = W^T A, and never as a leaf matrix: row k
    of W is w_Q and row k of A the mu-averaging row chi_Q mu / mu(Q), for the
    cube Q at active position cubes[k].  The cubes are those deep enough to
    have cubes r levels below them, mu-null ones included: their row of A is
    0, as E_Q f is 0 there, and W holds T's local martingale row of every
    cube, whose squared nu-norm is a_Q (carleson_sequence).  All three
    arrays are read-only.
    """

    r: int
    cubes: np.ndarray
    w: np.ndarray
    a: np.ndarray
    mu: MeasureGrid
    nu: MeasureGrid

    def require_built_from(self, t: InducedOperator, name: str, r: int | None = None) -> None:
        """Raise ValueError unless this maps between t's measures (`is`: their == raises), at r."""
        if self.mu is not t.mu or self.nu is not t.nu:
            raise ValueError(f"{name} was built from an operator between other measures")
        if r is not None and self.r != r:
            raise ValueError(f"{name} was built at r={self.r}, not r={r}")

    @cached_property
    def haar_block(self) -> np.ndarray:
        """<Pi h_Q^mu, h_R^nu>_nu, rows R nu's Haar rows, columns Q mu's, as
        ((H_nu nu) W^T)(A H_mu^T): no leaf x leaf product; read-only."""
        return read_only(((self.nu.haar_rows[1] * self.nu.leaf_mass) @ self.w.T)
                         @ (self.a @ self.mu.haar_rows[1].T))


def build_paraproduct(t: InducedOperator, r: int, *, enlarge: int = 0) -> Paraproduct:
    """The factors of t's paraproduct: averages in t.mu, martingale
    differences in t.nu.

    Row k of W sums Delta_R (T chi_B) over the cubes R inside Q at
    level(Q) - r, for Q at position cubes[k] and B = Q.  `enlarge` = j makes
    B the j-th active ancestor of Q (the top cube when there are fewer), to
    exercise replacement invariance: W must not depend on it for a well
    localized operator.  A negative r or enlarge is a ValueError.
    """
    check_nonnegative("r", r)
    check_nonnegative("enlarge", enlarge)
    lattice = t.lattice
    if lattice.depth <= r:
        raise ValueError(f"lattice depth {lattice.depth} must exceed r={r}")
    anc, mq = lattice.ancestor_index, t.mu.cube_masses
    cubes = np.flatnonzero(lattice.levels - r >= lattice.leaf_level + 1)
    levels = lattice.levels[cubes]
    w = np.zeros((cubes.size, lattice.n_leaves))
    for level in set(levels.tolist()):
        k = lattice.top_level - level
        sel = np.flatnonzero(levels == level)
        big = anc[max(k - enlarge, 0), lattice._first_leaf[cubes[sel]]]
        d = t.nu.level_deltas(t.chi_table.T[big], [level - r])[:, 0]
        w[sel] = np.where(anc[k] == cubes[sel][:, None], d, 0.0)
    # a mu-null cube's leaves have no mass, so its row is 0 / 1 = 0
    a = lattice.membership.T[cubes] * t.mu.leaf_mass / np.where(mq > 0, mq, 1.0)[cubes][:, None]
    return Paraproduct(r=r, cubes=read_only(cubes), w=read_only(w), a=read_only(a),
                       mu=t.mu, nu=t.nu)


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
                                 tol: float = DEFAULT_TOLERANCES["entrywise"]
                                 ) -> ParaproductStructureReport:
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
    # witness: of the first maximal pair of each kind, the last in (R, Q, kind)
    # order; none where no deviation is positive (all NaN)
    last = None if passed else max(
        ((int(np.argmax(d)), k) for k, d in enumerate(devs) if np.max(d) > 0), default=None)
    witness = None
    if last is not None:
        i, j = divmod(last[0], len(mu_cubes))
        cubes = t.lattice.active_cubes
        witness = (("vanish_scale", "vanish_outside", "equality")[last[1]],
                   cubes[mu_cubes[j]], cubes[nu_cubes[i]])
    return ParaproductStructureReport(passed=passed, scale=scale, max_dev_vanish_scale=dev1,
                         max_dev_vanish_outside=dev2, max_dev_equality=dev3, witness=witness)


@dataclass(frozen=True)
class RemainderReport:
    """Band structure of T_mu - Pi_mu - (Pi_nu)* in the weighted bases."""

    passed: bool
    scale: float
    off_band_max: float
    in_band_max: float


def remainder_diagonals(t_mu: InducedOperator, pi_mu: Paraproduct, pi_nu: Paraproduct,
                        tol: float = DEFAULT_TOLERANCES["zero"]) -> RemainderReport:
    pi_mu.require_built_from(t_mu, "pi_mu")
    pi_nu.require_built_from(t_mu.adjoint, "pi_nu", pi_mu.r)
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
        _check_values(self.lattice, v)
        object.__setattr__(self, "values", read_only(v))

    def subtree_sums(self) -> np.ndarray:
        """sum of a_Q over active Q contained in each active cube, computed
        bottom-up: children in lexicographic order, then a_Q."""
        return _subtree_sums(self.lattice, self.values)


def _check_values(lattice: Lattice, values: np.ndarray) -> None:
    """Raise ValueError naming the first a_Q not finite and nonnegative, and its cube."""
    bad = ~(np.isfinite(values) & (values >= 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"Carleson values must be finite and nonnegative, got "
                         f"{float(values[i])!r} at {lattice.active_cubes[i]}")


def _subtree_sums(lattice: Lattice, values: np.ndarray) -> np.ndarray:
    """CarlesonSequence.subtree_sums on a values array in active order."""
    kids = lattice.children_index
    sums = values.copy()
    starts = lattice.level_starts
    for j in range(lattice.depth - 1, -1, -1):
        rows = slice(starts[j], starts[j + 1])
        acc = sums[kids[rows, 0]]
        for k in range(1, kids.shape[1]):
            acc += sums[kids[rows, k]]
        sums[rows] = acc + values[rows]
    return sums


def _update_subtree_sums(lattice: Lattice, sums, values: np.ndarray, changed) -> np.ndarray:
    """_subtree_sums(lattice, values) from sums, those of an array that differs from
    values only at the positions `changed`, bit for bit: the changed cubes and their
    ancestors (a column of ancestor_index) are summed again, deepest (last) first.
    The tables and both arrays are read as plain ints and floats through
    memoryviews, with no numpy call per cube."""
    anc, kids, sums = lattice.ancestor_index, lattice.children_index, sums.copy()
    up, width, kid = memoryview(anc.ravel()), kids.shape[1], memoryview(kids.ravel())
    out, new, n, top = memoryview(sums), memoryview(values), anc.shape[1], lattice.top_level
    chains = set()
    for i in changed:  # column first_leaf(i) of ancestor_index, from i's row up
        chains.update(up[(top - lattice.levels.item(i)) * n + lattice._first_leaf.item(i)::-n])
    for q in sorted(chains, reverse=True):
        acc = -0.0  # x + -0.0 is x; then float64 adds in _subtree_sums's order
        for k in kid[q * width:q * width + width]:  # no rows past the non-leaf cubes
            acc += out[k]
        out[q] = acc + new[q]
    return sums


def _require_same_lattice(seq: CarlesonSequence, lattice: Lattice, owner: str) -> None:
    if seq.lattice != lattice:
        raise ValueError(f"lattice mismatch between Carleson sequence and {owner}: "
                         f"{seq.lattice} against {lattice}")


def carleson_sequence(pi: Paraproduct) -> CarlesonSequence:
    """a_Q = ||w_Q||_nu^2, the squared nu-norm of pi's row of W: the sum over
    R inside Q at scale 2^-r side(Q) of ||Delta_R T chi_Q||_nu^2, for T the
    operator pi was built from; 0 off pi.cubes.  Pi_mu gives T_mu's
    sequence, Pi_nu its adjoint's."""
    values = np.zeros(len(pi.nu.lattice.levels))
    values[pi.cubes] = (pi.w * pi.w * pi.nu.leaf_mass).sum(axis=-1)
    return CarlesonSequence(lattice=pi.nu.lattice, values=values)


def carleson_constant(seq: CarlesonSequence, mu: MeasureGrid) -> float:
    """Smallest C with sum_{Q inside R} a_Q <= C mu(R) over active R;
    inf when a zero-mass cube carries a positive subtree sum.  Raises
    ValueError when seq and mu live on different lattices."""
    _require_same_lattice(seq, mu.lattice, "measure")
    m = mu.cube_masses
    return _carleson_ratio(seq.subtree_sums(), m, _massive(m))


def _massive(m: np.ndarray) -> np.ndarray | None:
    """The mask m > 0 of the cube masses m, None when every cube has mass: the
    kernels below then read every cube, with no boolean gather."""
    pos = m > 0.0
    return None if pos.all() else pos


def _carleson_ratio(sums: np.ndarray, m: np.ndarray, pos) -> float:
    """carleson_constant from subtree sums and cube masses m; pos: _massive(m)."""
    if pos is None:  # every cube has mass: the maximum below, without masks
        return float((sums / m).max(initial=0.0))
    if (sums[~pos] > 0.0).any():
        return float("inf")
    return float((sums[pos] / m[pos]).max(initial=0.0))


def _largest_eigenvalue(gram: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric positive semidefinite gram, 0 where
    round-off leaves it negative: the one symmetric eigensolve behind every
    operator norm and embedding constant.  LAPACK's backward-stable solve
    moves it by at most c n eps / 2 of the largest eigenvalue (gram n x n)
    to first order; nothing stops on a tolerance of its own.
    """
    return max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)


def _largest_singular_value(k: np.ndarray) -> float:
    """Largest singular value sigma of k; NaN if an entry is NaN or inf.

    k is scaled exactly, in place, by a power of two into max|k| in [1/2, 1),
    so its smaller (p x p) Gram, summed over q terms, cannot overflow: pass
    an array the caller no longer reads.  The root of its top eigenvalue is
    sigma (1 + delta), |delta| <= (q + c) p eps / 2 to first order.
    """
    amax = float(np.abs(k).max()) if k.size else 0.0
    if not 0.0 < amax < math.inf:
        return amax * 0.0  # 0 for the zero matrix, NaN for a NaN or inf entry
    e = math.frexp(amax)[1]
    np.ldexp(k, -e, out=k)
    gram = k @ k.T if k.shape[0] <= k.shape[1] else k.T @ k
    return float(np.ldexp(math.sqrt(_largest_eigenvalue(gram)), e))


def embedding_constant(seq: CarlesonSequence, mu: MeasureGrid) -> float:
    """Exact optimal C in sum_R a_R |E_R f|^2 <= C ||f||_mu^2.

    C is the largest eigenvalue of the form on the positive-mass leaves.
    Its square root has row sqrt(a_R) sqrt(mu) / mu(R) on R's leaves for
    each support cube R (a_R > 0 and mu(R) > 0; other cubes have
    a_R E_R f = 0), so C is also the top eigenvalue of the cube-side Gram
    G[R, S] = sqrt(a_R a_S) mu(R n S) / (mu(R) mu(S)): a_R / mu(R) on the
    diagonal, sqrt(a_R) sqrt(a_S) / mu(S) for R inside S, 0 for disjoint
    cubes.  G is built from the lattice's index tables, with no leaf axis,
    and scaled by the power of two of its largest (diagonal) entry.
    0 for an empty support, inf past the float range.  Raises ValueError
    when seq and mu live on different lattices.
    """
    _require_same_lattice(seq, mu.lattice, "measure")
    m = mu.cube_masses
    return _embedding_constant(seq.lattice, seq.values, m, _massive(m))


def _embedding_constant(lattice: Lattice, values: np.ndarray, m: np.ndarray, pos) -> float:
    """embedding_constant of a values array in the cube masses m; pos: _massive(m)."""
    sel = (values > 0 if pos is None else (values > 0) & pos).nonzero()[0]
    a, ms, lv = values[sel], m[sel], lattice.levels[sel]
    # [i, j]: cube sel[i] lies inside sel[j] (i >= j, sel is in active order):
    # Lattice.inside(sel, sel) inline, 5 % faster once per greedy candidate
    inside = (lv[:, None] <= lv) & (lattice.ancestor_index[
        lattice.top_level - lv, lattice._first_leaf[sel][:, None]] == sel)
    w = np.sqrt(a)
    with np.errstate(over="ignore"):  # an entry past the float range makes C inf
        gram = np.where(inside, np.multiply.outer(w, w) / ms, 0.0)
        gram += gram.T  # each off-diagonal pair has one zero: exact
        np.fill_diagonal(gram, a / ms)
    top = float(gram.max(initial=0.0))  # a diagonal entry, up to round-off
    if not 0.0 < top < math.inf:
        return top  # 0 for no support, inf past the float range
    e = math.frexp(top)[1]
    try:
        return math.ldexp(_largest_eigenvalue(np.ldexp(gram, -e)), e)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class CarlesonPropertyReport:
    """Check sum_{Q inside R} a_Q <= ||chi_R T_mu chi_R||^2 <= C_local mu(R)."""

    passed: bool
    max_excess: float
    local_testing_constant: float
    witness: Cube | None  # the first cube of the largest excess, if it is > 0


def carleson_property(t_mu: InducedOperator, seq: CarlesonSequence,
                      tol: float = DEFAULT_TOLERANCES["identity"]) -> CarlesonPropertyReport:
    """Subtree sums against local testing integrals; ValueError off t_mu's lattice."""
    _require_same_lattice(seq, t_mu.lattice, "operator")
    bounds = local_testing_integrals(t_mu)
    excess = (seq.subtree_sums() - bounds) / np.maximum(bounds, 1.0)
    worst = float(np.max(excess, initial=0.0))
    m = t_mu.mu.cube_masses  # a mu-null cube's bound is exactly 0, divided by 1
    c_local = float((bounds / np.where(m > 0, m, 1.0)).max(initial=0.0))
    witness = t_mu.lattice.active_cubes[int(np.argmax(excess))] if worst > 0 else None
    return CarlesonPropertyReport(passed=worst <= tol, max_excess=worst,
                                  local_testing_constant=c_local, witness=witness)

"""Band operators in the unweighted Haar basis and the induced two-weight
operators T_mu = T M_u, T*_nu = T* M_v acting between L2(mu) and L2(nu).

A band operator is stored as three arrays: the haar_system positions of
its rows and columns and its real entries.  A position is a Haar index
(non-leaf cube plus component) or a root indicator.  Haar-Haar entries must
vanish beyond tree distance r; root blocks are an explicit extension used
to exercise the mean terms of the bilinear-form decomposition.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .lattice import Cube, Lattice, read_only, tree_distance
from .measures import MeasureGrid, uniform_measure

# The named tolerances, runner.DEFAULT_TOLERANCES: every check's `tol` defaults to its entry.
DEFAULT_TOLERANCES = {"zero": 1e-12, "identity": 1e-10, "entrywise": 1e-9,
                      "necessity": 1e-9, "ordering": 1e-12, "embedding": 1e-9,
                      "replay": 1e-12}


@dataclass(frozen=True)
class HaarIndex:
    """One unweighted Haar function: a non-leaf cube and a component."""

    cube: Cube
    component: int


@dataclass(frozen=True)
class RootIndex:
    """The normalized indicator of a root cube."""

    cube: Cube


@lru_cache(maxsize=32)
def haar_system(lattice: Lattice) -> np.ndarray:
    """The orthonormal Lebesgue Haar system of a lattice as read-only leaf
    vectors: the Haar functions of every non-leaf active cube (component k
    as in MeasureGrid.haar_rows: positive on child k + 1, exactly 0 on
    children 1 to k), then the normalized root indicators.  They form an
    orthonormal basis of the leaf space under uniform leaf weights; row i
    is the basis index basis_table(lattice)[0][i]."""
    return read_only(np.vstack([uniform_measure(lattice).haar_rows[1]]
                               + [lattice.indicator(root) / np.sqrt(root.volume)
                                  for root in lattice.roots]))


@lru_cache(maxsize=32)
def basis_table(lattice: Lattice) -> tuple:
    """(indices, rank, positions, keys): the basis indices in haar_system order, their repr
    ranks, and JSON key (kind, level, coords, component; None for a root) to position and back."""
    n_comp = 2 ** lattice.dim - 1
    indices = tuple([HaarIndex(q, k) for q in lattice.nonleaf_cubes for k in range(n_comp)]
                    + [RootIndex(root) for root in lattice.roots])
    rank = read_only(np.argsort(sorted(range(len(indices)), key=lambda i: repr(indices[i]))))
    keys = tuple(("haar" if isinstance(ix, HaarIndex) else "root", ix.cube.level, ix.cube.coords,
                  getattr(ix, "component", None)) for ix in indices)
    return indices, rank, dict(zip(keys, range(len(keys)))), keys


def repr_order(lattice: Lattice, rows, cols) -> np.ndarray:
    """The permutation that sorts (row, col) position pairs as
    sorted(..., key=repr) sorts their (row, col) index pairs: no index repr
    is a proper prefix of another, so a pair's repr compares row first."""
    rank = basis_table(lattice)[1]
    return np.lexsort((rank[cols], rank[rows]))


@dataclass(frozen=True, eq=False)
class BandOperator:
    """A sparse operator matrix over the unweighted Haar system: entry i is values[i] at
    row rows[i], column cols[i] of haar_system(lattice), read-only.  Compared by identity."""

    lattice: Lattice
    band_radius: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, dtype in (("rows", np.intp), ("cols", np.intp), ("values", float)):
            object.__setattr__(self, name, read_only(np.array(getattr(self, name), dtype=dtype)))

    @cached_property
    def entries(self) -> dict:
        """{(row index, col index): value} in entry order, keyed by basis_table's indices."""
        ix = basis_table(self.lattice)[0]
        return {(ix[i], ix[j]): v for i, j, v in zip(
            self.rows.tolist(), self.cols.tolist(), self.values.tolist())}

    @cached_property
    def leaf_matrix(self) -> np.ndarray:
        """Dense matrix acting on leaf functions in L2(m), read-only: the
        entries placed in the haar_system basis, leaf_volume h^T E h."""
        h = haar_system(self.lattice)
        e = np.zeros((len(h),) * 2)
        e[self.rows, self.cols] = self.values
        return read_only(self.lattice.leaf_volume * (h.T @ e @ h))


def check_band(op: BandOperator, r: int, tol: float = DEFAULT_TOLERANCES["zero"]):
    """Verify the band structure at radius r; root positions and entries
    with |value| <= tol are exempt.

    Returns (passed, witness), witness the offending (row, col) pair of
    haar_system positions or None.  It measures distances with tree_distance,
    not with the Lattice.inside masks that random_band draws its pairs from,
    so that the check shares no code with the generator it checks.
    """
    n_comp, cubes = 2 ** op.lattice.dim - 1, op.lattice.active_cubes
    n_haar = n_comp * op.lattice.level_starts[-2]  # the root indicators follow the Haar rows
    checked = np.flatnonzero((op.rows < n_haar) & (op.cols < n_haar) & ~(np.abs(op.values) <= tol))
    for i, j in zip(op.rows[checked].tolist(), op.cols[checked].tolist()):
        if tree_distance(cubes[j // n_comp], cubes[i // n_comp]) > r:
            return False, (i, j)
    return True, None


def haar_multiplier(lattice: Lattice, alpha=1.0, root_alpha: float = 0.0) -> BandOperator:
    """T f = sum alpha_Q (f, h_Q) h_Q, a band operator with r = 0.

    `alpha` is a {cube: alpha} mapping or a scalar for every non-leaf cube;
    zero alphas are dropped, a leaf or off-lattice cube is a ValueError.
    A nonzero root_alpha adds alpha times the identity on root indicators.
    """
    n_comp, n_nonleaf = 2 ** lattice.dim - 1, int(lattice.level_starts[-2])
    if isinstance(alpha, dict):
        alpha = {q: float(a) for q, a in alpha.items() if a != 0.0}
        cubes = [lattice.cube_index.get(q, n_nonleaf) for q in alpha]
        for q, i in zip(alpha, cubes):
            if i >= n_nonleaf:
                raise ValueError(f"{q!r} is not a non-leaf cube of the lattice")
        values = np.array(list(alpha.values()), dtype=float)
    else:
        cubes = np.arange(n_nonleaf if float(alpha) != 0.0 else 0)
        values = np.full(cubes.size, float(alpha))
    # Haar component k of the i-th cube sits at n_comp * i + k, the root indicators after them
    pos = (n_comp * np.array(cubes, dtype=np.intp)[:, None] + np.arange(n_comp)).ravel()
    values = np.repeat(values, n_comp)
    if root_alpha != 0.0:
        pos = np.concatenate([pos, n_comp * n_nonleaf + np.arange(len(lattice.roots))])
        values = np.concatenate([values, np.full(len(lattice.roots), float(root_alpha))])
    return BandOperator(lattice, 0, pos, pos, values)


def haar_shift(lattice: Lattice) -> BandOperator:
    """S f = sum (f, h_I) [h_{I+} - h_{I-}], 1D only; band radius 1.

    Terms whose output Haar functions would live below leaf level are
    dropped; the count is recorded in meta["dropped_terms"].
    """
    if lattice.dim != 1:
        raise ValueError("the Haar shift is defined in dimension 1 only")
    kept = lattice.children_index[:lattice.level_starts[-3]]  # the cubes with non-leaf children
    # (right child, I) = 1, then (left child, I) = -1; in 1D a cube's position is its Haar row
    return BandOperator(lattice, 1, kept[:, ::-1].ravel(), np.repeat(np.arange(len(kept)), 2),
                        np.tile([1.0, -1.0], len(kept)),
                        meta={"dropped_terms": int(lattice.level_starts[-2]) - len(kept)})


def check_nonnegative(name: str, n: int) -> None:
    """Reject a negative radius or level count, whose masks come out empty or index from the end."""
    if n < 0:
        raise ValueError(f"{name} must be nonnegative, got {n!r}")


def check_amplitude(name: str, a: float) -> None:
    """Reject a negative or NaN a, and one whose range 2a in rng.uniform(-a, a) overflows."""
    if not (a >= 0 and np.isfinite(2.0 * float(a))):  # float: no numpy overflow warning
        raise ValueError(f"{name} must be nonnegative and below 2**1023 (finite 2a), got {a!r}")


def random_band(lattice: Lattice, r: int, seed: int, amplitude: float = 1.0,
                root_amplitude: float = 0.0) -> BandOperator:
    """Random band operator: i.i.d. uniform entries on all Haar index pairs
    with tree distance at most r, deterministic in the seed.

    With root_amplitude > 0, root blocks are also filled: root-root pairs
    and pairings of a root with Haar cubes within tree distance r of it
    (the pattern that keeps the induced operator well localized).

    Cubes P and Q first share an ancestor u levels above Q; their tree
    distance is 2u + level(Q) - level(P).  Entries are drawn for the pairs
    (Q, P) in Q-major, then nonleaf_cubes order, components (kq, kp) last.
    """
    check_nonnegative("band radius", r)
    check_amplitude("random_band amplitude", amplitude)
    check_amplitude("random_band root_amplitude", root_amplitude)
    rng = np.random.default_rng(seed)
    n_comp = 2 ** lattice.dim - 1
    nonleaf = np.arange(lattice.level_starts[-2])
    levels = lattice.levels[nonleaf]
    gap = levels[:, None] - levels[None, :]
    near = np.zeros((nonleaf.size,) * 2, dtype=bool)
    # past u = last, the key table's top row, inside(up=u) stops changing and
    # 2u + gap <= r only narrows
    last = len(lattice._level_keys) - 1
    for u in range(min(r, last) + 1):
        near |= lattice.inside(nonleaf, nonleaf, up=u).T & (2 * u + gap <= r)
    qs, ps = np.nonzero(near)
    kq, kp = np.divmod(np.arange(n_comp ** 2), n_comp)
    vals = rng.uniform(-amplitude, amplitude, size=qs.size * n_comp ** 2)
    n = vals.size if amplitude > 0 else 0  # drawn either way, so the root block's draws stay put
    # entry (Haar p kp, Haar q kq); Haar component k of the i-th cube sits at n_comp * i + k
    parts = [((n_comp * ps[:, None] + kp).ravel()[:n], (n_comp * qs[:, None] + kq).ravel()[:n],
              vals[:n])]
    if root_amplitude > 0:
        roots = np.arange(len(lattice.roots))
        below = lattice.inside(nonleaf, roots) & (levels >= lattice.top_level - r)[:, None]
        at = n_comp * nonleaf.size + roots  # the root indicators follow the Haar rows
        for j in roots.tolist():
            # every root into root j, then (h, root j) and (root j, h) for each Haar h below
            h = (n_comp * np.flatnonzero(below[:, j])[:, None] + np.arange(n_comp)).ravel()
            pairs = np.stack([h, np.full(h.size, at[j])], axis=1)
            rows = np.concatenate([at, pairs.ravel()])
            cols = np.concatenate([np.full(at.size, at[j]), pairs[:, ::-1].ravel()])
            parts.append((rows, cols, rng.uniform(-root_amplitude, root_amplitude,
                                                  size=rows.size)))
    return BandOperator(lattice, r, *(np.concatenate(part) for part in zip(*parts)))


@dataclass(frozen=True)
class InducedOperator:
    """T_mu = T M_u as a leaf matrix, acting L2(mu) -> L2(nu).

    `lebesgue_matrix` is the leaf matrix of the underlying operator T in
    L2(m); `matrix` realizes f -> T(f u).  `adjoint` is T*_nu = T* M_v,
    the operator of the same kind with T* and the measures swapped.
    """

    lattice: Lattice
    mu: MeasureGrid
    nu: MeasureGrid
    lebesgue_matrix: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        return read_only(self.lebesgue_matrix * self.mu.density()[np.newaxis, :])

    @cached_property
    def chi_table(self) -> np.ndarray:
        """Leaves x active cubes: column Q is T_mu chi_Q; read-only."""
        return read_only(self.matrix @ self.lattice.membership)

    @cached_property
    def haar_block(self) -> np.ndarray:
        """<matrix h_Q^mu, h_R^nu>_nu: rows R are nu's Haar rows, columns Q mu's; read-only."""
        return read_only(
            (self.nu.haar_rows[1] * self.nu.leaf_mass) @ self.matrix @ self.mu.haar_rows[1].T)

    @cached_property
    def adjoint(self) -> "InducedOperator":
        """T*_nu: L2(nu) -> L2(mu), of this operator's class.  It holds no
        reference back to this operator, so dropping one frees its arrays
        without the cyclic garbage collector."""
        return replace(self, mu=self.nu, nu=self.mu, lebesgue_matrix=self.lebesgue_matrix.T)


def local_testing_integrals(t: InducedOperator) -> np.ndarray:
    """The integral of |T chi_Q|^2 over Q in t.nu, per active Q: the
    numerator of the local testing constant and the Carleson bound."""
    tx = t.chi_table
    return t.nu.leaf_mass @ (tx * tx * t.lattice.membership)


def induce(band: BandOperator, mu: MeasureGrid, nu: MeasureGrid) -> InducedOperator:
    """T_mu for the band operator T between the measures on its lattice."""
    if mu.lattice != band.lattice or nu.lattice != band.lattice:
        raise ValueError("lattice mismatch between operator and measures")
    return InducedOperator(lattice=band.lattice, mu=mu, nu=nu, lebesgue_matrix=band.leaf_matrix)


@dataclass(frozen=True)
class WellLocalizedReport:
    passed: bool
    r: int
    max_violation: float
    scale: float
    witness: tuple | None
    checked_pairs: int


def check_well_localized(t_mu: InducedOperator, r: int,
                         tol: float = DEFAULT_TOLERANCES["zero"]) -> WellLocalizedReport:
    """Scan the vanishing pattern of a lower triangularly localized operator
    and of its formal adjoint.

    For every active Q and non-leaf R with side(R) <= side(Q), the pairing
    <T_mu chi_Q, h_R^nu>_nu must vanish if R is not inside the r-th
    grandparent of Q, or if side(R) <= 2^-r side(Q) and R is not inside Q;
    symmetrically for T*_nu against mu-Haar functions.  Pairings are
    normalized by the maximal absolute pairing before the zero test; a
    non-finite pairing makes that scale non-finite and fails the check.
    A negative r is a ValueError.
    """
    check_nonnegative("r", r)
    lattice = t_mu.lattice
    # for T = T_mu and T*_nu: <T chi_Q, h_R> in T's output measure over non-leaf R
    # (rows, stacked by basis element) and all active Q (columns), with the
    # active position of each row's cube
    scans = [((t.nu.haar_rows[1] * t.nu.leaf_mass) @ t.chi_table, t.nu.haar_rows[0])
             for t in (t_mu, t_mu.adjoint)]
    scale = float(np.max([np.max(np.abs(p)) for p, _ in scans if p.size], initial=0.0))
    if scale == 0.0:
        return WellLocalizedReport(True, r, 0.0, 0.0, None, 0)
    nonleaf, every = np.arange(lattice.level_starts[-2]), np.arange(len(lattice.levels))
    lr, lq = lattice.levels[nonleaf][:, None], lattice.levels[None, :]
    pattern = (lr <= lq) & (~lattice.inside(nonleaf, every, up=r)
                            | ((lr <= lq - r) & ~lattice.inside(nonleaf, every)))
    worst, witness, checked = 0.0, None, 0
    for direction, (pair, row_cubes) in zip(("direct", "adjoint"), scans):
        flagged = pattern[row_cubes]
        checked += int(np.count_nonzero(flagged))
        v = np.where(flagged, np.abs(pair) / scale, 0.0)
        if v.size and np.max(v) > worst:  # witness: the first worst pair
            i, j = divmod(int(np.argmax(v)), every.size)
            cubes = lattice.active_cubes
            worst, witness = float(v[i, j]), (direction, cubes[j], cubes[row_cubes[i]])
    return WellLocalizedReport(passed=worst <= tol and bool(np.isfinite(scale)),
                               r=r, max_violation=worst,
                               scale=scale, witness=witness,
                               checked_pairs=checked)


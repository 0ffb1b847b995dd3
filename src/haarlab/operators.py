"""Band operators in the unweighted Haar basis and the induced two-weight
operators T_mu = T M_u, T*_nu = T* M_v acting between L2(mu) and L2(nu).

A band operator is stored as a sparse map from (row index, column index)
to a real entry, where an index is either a Haar index (non-leaf cube plus
component) or a root indicator.  Haar-Haar entries must vanish beyond tree
distance r; root blocks are an explicit extension used to exercise the
mean terms of the bilinear-form decomposition.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .lattice import Cube, Lattice, tree_distance
from .measures import MeasureGrid, uniform_measure

ZERO_TOL = 1e-12


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
    vectors: the Haar functions of every non-leaf active cube (components in
    Gram-Schmidt order), then the normalized root indicators.  They form an
    orthonormal basis of the leaf space under uniform leaf weights; row
    basis_positions(lattice, [ix]) is the basis index ix."""
    rows = np.vstack([uniform_measure(lattice).haar_rows[1]]
                     + [lattice.indicator(root) / np.sqrt(root.volume)
                        for root in lattice.roots])
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=32)
def basis_table(lattice: Lattice) -> tuple:
    """(indices, rank, positions): the basis indices in haar_system order, each one's repr
    rank, and the position of each JSON key (kind, level, coords, component; None for a root)."""
    n_comp = 2 ** lattice.dim - 1
    indices = tuple([HaarIndex(q, k) for q in lattice.nonleaf_cubes for k in range(n_comp)]
                    + [RootIndex(root) for root in lattice.roots])
    rank = np.argsort(sorted(range(len(indices)), key=lambda i: repr(indices[i])))
    keys = [("haar" if isinstance(ix, HaarIndex) else "root", ix.cube.level, ix.cube.coords,
             getattr(ix, "component", None)) for ix in indices]
    return indices, rank, dict(zip(keys, range(len(keys))))


def repr_order(lattice: Lattice, rows, cols) -> np.ndarray:
    """The permutation that sorts (row, col) position pairs as
    sorted(..., key=repr) sorts their (row, col) index pairs: no index repr
    is a proper prefix of another, so a pair's repr compares row first."""
    rank = basis_table(lattice)[1]
    return np.lexsort((rank[cols], rank[rows]))


def basis_positions(lattice: Lattice, indices) -> np.ndarray:
    """Row of each basis index in haar_system(lattice).

    HaarIndex(Q, k) is row (2**dim - 1) * i + k for the i-th active cube Q
    (every non-leaf cube has 2**dim - 1 Lebesgue Haar functions); the roots
    follow all Haar rows, in order.  Raises ValueError for an index outside
    the lattice's Haar system: a leaf or inactive cube, a component out of
    range, or a RootIndex of a cube that is not a root.
    """
    n_comp = 2 ** lattice.dim - 1
    n_nonleaf, n_roots = len(lattice.nonleaf_cubes), len(lattice.roots)
    index = lattice.cube_index
    out = []
    for ix in indices:
        i = index.get(getattr(ix, "cube", None), n_nonleaf)
        if isinstance(ix, HaarIndex) and i < n_nonleaf and 0 <= ix.component < n_comp:
            out.append(n_comp * i + ix.component)
        elif isinstance(ix, RootIndex) and i < n_roots:
            out.append(n_comp * n_nonleaf + i)
        else:
            raise ValueError(f"{ix!r} is not a basis index of the lattice")
    return np.array(out, dtype=np.intp)


@dataclass(frozen=True)
class BandOperator:
    """A sparse operator matrix over the unweighted Haar system."""

    lattice: Lattice
    band_radius: int
    entries: dict
    meta: dict = field(default_factory=dict, compare=False)

    @cached_property
    def leaf_matrix(self) -> np.ndarray:
        """Dense matrix acting on leaf functions in L2(m)."""
        return assemble(self.lattice, *self.positions(), list(self.entries.values()))

    def positions(self) -> tuple:
        """haar_system positions (rows, cols) of the entries, in entry order."""
        return tuple(basis_positions(self.lattice, [key[j] for key in self.entries])
                     for j in (0, 1))


def assemble(lattice: Lattice, rows, cols, values) -> np.ndarray:
    """Leaf matrix in L2(m) of the entries `values` at haar_system positions."""
    h = haar_system(lattice)
    e = np.zeros((len(h),) * 2)
    e[rows, cols] = values
    return lattice.leaf_volume * (h.T @ e @ h)


def check_band(op: BandOperator, r: int, tol: float = ZERO_TOL):
    """Verify the band structure at radius r.

    Returns (passed, witness); witness is the offending (row, col) pair of
    Haar indices, or None.  It measures distances with tree_distance, not
    with the Lattice.inside masks that random_band draws its pairs from, so
    that the check shares no code with the generator it checks.
    """
    for (row, col), val in op.entries.items():
        if not (isinstance(row, HaarIndex) and isinstance(col, HaarIndex)):
            continue
        if abs(val) <= tol:
            continue
        if tree_distance(col.cube, row.cube) > r:
            return False, (row, col)
    return True, None


def haar_multiplier(lattice: Lattice, spec, root_alpha: float = 0.0) -> BandOperator:
    """T f = sum alpha_Q (f, h_Q) h_Q, a band operator with r = 0.

    `spec` is a {cube: alpha} mapping or a scalar for every non-leaf cube.
    A nonzero root_alpha adds alpha times the identity on root indicators.
    """
    alpha = spec if isinstance(spec, dict) else {q: float(spec) for q in lattice.nonleaf_cubes}
    n_comp = 2 ** lattice.dim - 1
    entries = {}
    for q, a in alpha.items():
        if a == 0.0:
            continue
        for k in range(n_comp):
            ix = HaarIndex(q, k)
            entries[(ix, ix)] = float(a)
    if root_alpha != 0.0:
        for root in lattice.roots:
            ix = RootIndex(root)
            entries[(ix, ix)] = float(root_alpha)
    return BandOperator(lattice=lattice, band_radius=0, entries=entries)


def haar_shift(lattice: Lattice) -> BandOperator:
    """S f = sum (f, h_I) [h_{I+} - h_{I-}], 1D only; band radius 1.

    Terms whose output Haar functions would live below leaf level are
    dropped; the count is recorded in meta["dropped_terms"].
    """
    if lattice.dim != 1:
        raise ValueError("the Haar shift is defined in dimension 1 only")
    entries = {}
    dropped = 0
    for q in lattice.nonleaf_cubes:
        left, right = q.children()
        if left.level > lattice.leaf_level:
            entries[(HaarIndex(right, 0), HaarIndex(q, 0))] = 1.0
            entries[(HaarIndex(left, 0), HaarIndex(q, 0))] = -1.0
        else:
            dropped += 1
    return BandOperator(lattice=lattice, band_radius=1, entries=entries,
                        meta={"dropped_terms": dropped})


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
    if r < 0:
        raise ValueError("band radius must be nonnegative")
    for name, a in (("amplitude", amplitude), ("root_amplitude", root_amplitude)):
        if not (np.isfinite(a) and a >= 0):
            raise ValueError(f"random_band {name} must be finite and nonnegative, got {a!r}")
    rng = np.random.default_rng(seed)
    n_comp = 2 ** lattice.dim - 1
    nonleaf = np.arange(len(lattice.nonleaf_cubes))
    levels = lattice.levels[nonleaf]
    gap = levels[:, None] - levels[None, :]
    near = np.zeros((nonleaf.size,) * 2, dtype=bool)
    # from u = depth + (bit length of the roots' coords) on, every ancestor key is a
    # fixed point of the shift: inside(up=u) stops changing and 2u + gap <= r only narrows
    last = lattice.depth + max(c.bit_length() for root in lattice.roots for c in root.coords)
    for u in range(min(r, last) + 1):
        near |= lattice.inside(nonleaf, nonleaf, up=u).T & (2 * u + gap <= r)
    qs, ps = np.nonzero(near)
    haar = [[HaarIndex(q, k) for k in range(n_comp)] for q in lattice.nonleaf_cubes]
    vals = rng.uniform(-amplitude, amplitude, size=qs.size * n_comp ** 2)
    entries = {}
    if amplitude > 0:  # drawn either way, so the root block's draws stay put
        entries = dict(zip([(ip, iq) for q, p in zip(qs.tolist(), ps.tolist())
                            for iq in haar[q] for ip in haar[p]], vals.tolist()))
    if root_amplitude > 0:
        roots = np.arange(len(lattice.roots))
        below = lattice.inside(nonleaf, roots) & (levels >= lattice.top_level - r)[:, None]
        for j, root in enumerate(lattice.roots):
            rix = RootIndex(root)
            keys = [(RootIndex(other), rix) for other in lattice.roots]
            keys += [key for p in np.flatnonzero(below[:, j]).tolist()
                     for ix in haar[p] for key in ((ix, rix), (rix, ix))]
            entries.update(zip(keys, rng.uniform(-root_amplitude, root_amplitude,
                                                 size=len(keys)).tolist()))
    return BandOperator(lattice=lattice, band_radius=r, entries=entries)


class TwoWeightMatrix:
    """Base of a leaf matrix `matrix` from L2(mu) to L2(nu); subclasses hold `mu`, `nu`."""

    @cached_property
    def haar_block(self) -> np.ndarray:
        """<matrix h_Q^mu, h_R^nu>_nu: rows R are nu's Haar rows, columns Q mu's."""
        return (self.nu.haar_rows[1] * self.nu.leaf_mass) @ self.matrix @ self.mu.haar_rows[1].T


@dataclass(frozen=True)
class InducedOperator(TwoWeightMatrix):
    """T_mu = T M_u as a leaf matrix, acting L2(mu) -> L2(nu).

    `lebesgue_matrix` is the leaf matrix of the underlying operator T in
    L2(m); `matrix` realizes f -> T(f u).  `adjoint` is T*_nu = T* M_v,
    the operator of the same kind with T* and the measures swapped.
    """

    lattice: Lattice
    mu: MeasureGrid
    nu: MeasureGrid
    lebesgue_matrix: np.ndarray
    band: BandOperator | None = None

    @classmethod
    def from_leaf_matrix(cls, matrix: np.ndarray, mu: MeasureGrid,
                         nu: MeasureGrid) -> "InducedOperator":
        return cls(lattice=mu.lattice, mu=mu, nu=nu,
                   lebesgue_matrix=np.asarray(matrix, dtype=float))

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.lebesgue_matrix * self.mu.density()[np.newaxis, :]

    @cached_property
    def chi_table(self) -> np.ndarray:
        """Leaves x active cubes: column Q is T_mu chi_Q."""
        return self.matrix @ self.lattice.membership

    @cached_property
    def adjoint(self) -> "InducedOperator":
        """T*_nu: L2(nu) -> L2(mu), of this operator's class.  It holds no
        reference back to this operator, so dropping one frees its arrays
        without the cyclic garbage collector."""
        return replace(self, mu=self.nu, nu=self.mu,
                       lebesgue_matrix=self.lebesgue_matrix.T, band=None)


def induce(band: BandOperator, mu: MeasureGrid, nu: MeasureGrid) -> InducedOperator:
    """T_mu for the band operator T between the measures on its lattice."""
    if mu.lattice != band.lattice or nu.lattice != band.lattice:
        raise ValueError("lattice mismatch between operator and measures")
    return InducedOperator(lattice=band.lattice, mu=mu, nu=nu,
                           lebesgue_matrix=band.leaf_matrix, band=band)


@dataclass(frozen=True)
class WellLocalizedReport:
    passed: bool
    r: int
    max_violation: float
    scale: float
    witness: tuple | None
    checked_pairs: int


def check_well_localized(t_mu: InducedOperator, r: int,
                         tol: float = ZERO_TOL) -> WellLocalizedReport:
    """Scan the vanishing pattern of a lower triangularly localized operator
    and of its formal adjoint.

    For every active Q and non-leaf R with side(R) <= side(Q), the pairing
    <T_mu chi_Q, h_R^nu>_nu must vanish if R is not inside the r-th
    grandparent of Q, or if side(R) <= 2^-r side(Q) and R is not inside Q;
    symmetrically for T*_nu against mu-Haar functions.  Pairings are
    normalized by the maximal absolute pairing before the zero test; a
    non-finite pairing makes that scale non-finite and fails the check.
    """
    lattice = t_mu.lattice
    # for T = T_mu and T*_nu: <T chi_Q, h_R> in T's output measure over non-leaf R
    # (rows, stacked by basis element) and all active Q (columns), with the
    # active position of each row's cube
    scans = [((t.nu.haar_rows[1] * t.nu.leaf_mass) @ t.chi_table, t.nu.haar_rows[0])
             for t in (t_mu, t_mu.adjoint)]
    scale = float(np.max([np.max(np.abs(p)) for p, _ in scans if p.size], initial=0.0))
    if scale == 0.0:
        return WellLocalizedReport(True, r, 0.0, 0.0, None, 0)
    cubes = lattice.active_cubes
    nonleaf, every = np.arange(len(lattice.nonleaf_cubes)), np.arange(len(cubes))
    lr, lq = lattice.levels[nonleaf][:, None], lattice.levels[None, :]
    pattern = (lr <= lq) & (~lattice.inside(nonleaf, every, up=r)
                            | ((lr <= lq - r) & ~lattice.inside(nonleaf, every)))
    worst, witness, checked = 0.0, None, 0
    for direction, (pair, row_cubes) in zip(("direct", "adjoint"), scans):
        flagged = pattern[row_cubes]
        checked += int(np.count_nonzero(flagged))
        v = np.where(flagged, np.abs(pair) / scale, 0.0)
        if v.size and np.max(v) > worst:  # witness: the first worst pair
            i, j = divmod(int(np.argmax(v)), len(cubes))
            worst, witness = float(v[i, j]), (direction, cubes[j], cubes[row_cubes[i]])
    return WellLocalizedReport(passed=worst <= tol and bool(np.isfinite(scale)),
                               r=r, max_violation=worst,
                               scale=scale, witness=witness,
                               checked_pairs=checked)


def comparable_pairing_count(t_mu: InducedOperator, r: int,
                             tol: float = ZERO_TOL) -> int:
    """Max over Q of the number of comparable-scale cubes R whose weighted
    Haar block against Q is nonzero; finite and bounded in terms of the
    dimension and r only."""
    mu_cubes, nu_cubes = t_mu.mu.haar_rows[0], t_mu.nu.haar_rows[0]
    block = t_mu.haar_block
    scale = float(np.max(np.abs(block), initial=0.0))
    if scale == 0.0:
        return 0
    levels = t_mu.lattice.levels
    n = len(levels)
    hit = np.zeros((n, n), dtype=bool)  # R, Q with a nonzero block
    np.logical_or.at(hit, (nu_cubes[:, None], mu_cubes),
                     (np.abs(block) / scale > tol)
                     & (np.abs(np.subtract.outer(levels[nu_cubes], levels[mu_cubes])) <= r))
    return int(hit.sum(axis=0).max())

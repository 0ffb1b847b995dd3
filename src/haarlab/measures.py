"""Finite-resolution measures, averages, martingale differences, weighted
Haar bases and the orthogonal decomposition of leaf functions.

A measure is a nonnegative mass per leaf cell; a leaf function is a float
array of length n_leaves, one value per leaf cell.  The methods that take
leaf functions also take a stack of them along the last axis and act on
each row, with the same bits as a call on that row; for one function they
return floats where a stack gets an array.  Averages over zero-mass cubes
are defined to be 0 so every formula stays total.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import Cube, Lattice, read_only


@dataclass(frozen=True)
class MeasureGrid:
    """A nonnegative mass per leaf cell, with cached subtree sums."""

    lattice: Lattice
    leaf_mass: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.leaf_mass, dtype=float)
        if m.shape != (self.lattice.n_leaves,):
            raise ValueError(f"expected {self.lattice.n_leaves} leaf masses, "
                             f"got shape {m.shape}")
        if not np.all(np.isfinite(m) & (m >= 0)):
            raise ValueError("leaf masses must be finite and nonnegative")
        object.__setattr__(self, "leaf_mass", read_only(m.copy()))

    @cached_property
    def cube_masses(self) -> np.ndarray:
        """mu(Q) per active cube, in active_cubes order."""
        return read_only(np.concatenate([self.leaf_mass[table].sum(axis=-1)
                                         for table in self.lattice.level_leaves]))

    def density(self) -> np.ndarray:
        """Leaf density with respect to Lebesgue measure (mass / cell volume)."""
        return self.leaf_mass / self.lattice.leaf_volume

    def inner(self, f: np.ndarray, g: np.ndarray):
        return _scalar(_row_sums(f * g * self.leaf_mass))

    def norm(self, f: np.ndarray):
        return _scalar(np.sqrt(np.maximum(self.inner(f, f), 0.0)))

    def _averages(self, values: np.ndarray, table: np.ndarray, pos) -> np.ndarray:
        """Averages of values over the cubes at active positions pos, whose leaves are
        the rows of table (level_leaves rows); 0 where mu is 0.  Rows sum as np.sum does."""
        sums = _row_sums(values[..., table] * self.leaf_mass[table])
        m = self.cube_masses[pos]
        return np.divide(sums, m, out=np.zeros_like(sums), where=m > 0)

    def martingale_difference(self, f: np.ndarray, q) -> np.ndarray:
        """Delta_Q f: on each child of q, (average on child) - (average on q).
        For a sequence of non-leaf cubes at one level, their differences
        stacked on axis -2, each row with the bits of its own call."""
        lattice = self.lattice
        cubes = [q] if isinstance(q, Cube) else list(q)
        pos = np.array([lattice.position(c) for c in cubes], dtype=np.intp)
        levels = {c.level for c in cubes}
        if len(levels) > 1:
            raise ValueError(f"cubes at levels {sorted(levels)}, not at one level")
        level = levels.pop() if levels else lattice.top_level  # any level for no cubes
        if level == lattice.leaf_level:
            raise ValueError(f"cube {cubes[0]} is a leaf, no martingale difference")
        kids = lattice.children_index[pos]
        rows = lattice._leaf_rows(kids, level - 1)
        base = self._averages(f, lattice._leaf_rows(pos, level), pos)
        out = np.zeros(np.shape(f)[:-1] + (len(pos), lattice.n_leaves))
        out[..., np.arange(len(pos))[:, None, None], rows] = (
            self._averages(f, rows, kids) - base[..., None])[..., None]
        return out[..., 0, :] if isinstance(q, Cube) else out

    def level_deltas(self, values: np.ndarray, levels) -> np.ndarray:
        """Martingale differences of every cube at the given non-leaf levels
        at once.

        `values` holds leaf vectors along its last axis: one vector, or the
        rows of a matrix such as InducedOperator.chi_table.T.  The result
        has shape values.shape[:-1] + (len(levels), n_leaves); entry
        [..., k, i] is Delta_Q v at leaf i for the cube Q at levels[k] that
        contains leaf i, so [..., k, :] is the sum of Delta_Q v over the
        cubes Q at that level.  It is 0 on the leaves of zero-mass children.
        Averages gather each cube's leaves through lattice.level_leaves, so
        they are summed in the order np.sum uses on leaf_indices(Q).
        """
        lattice = self.lattice
        anc = lattice.ancestor_index
        rows = [lattice.top_level - level for level in levels]
        avg = np.zeros(np.shape(values)[:-1] + (len(lattice.active_cubes),))
        for k in set(rows) | {k + 1 for k in rows}:
            at = slice(*lattice.level_starts[k:k + 2])
            avg[..., at] = self._averages(values, lattice.level_leaves[k], at)
        return np.stack([np.where(self.cube_masses[anc[k + 1]] > 0,
                                  avg[..., anc[k + 1]] - avg[..., anc[k]], 0.0)
                         for k in rows], axis=-2)

    def weighted_haar_basis(self, q: Cube) -> np.ndarray:
        """The rows of haar_rows that belong to the non-leaf cube q: an
        orthonormal mean-zero basis of its child-indicator span, one row
        fewer than q has positive-mass children (none if at most one)."""
        i = self.lattice.position(q)
        if q.level == self.lattice.leaf_level:
            raise ValueError(f"cube {q} is a leaf, no Haar basis")
        cubes, rows = self.haar_rows
        return rows[cubes == i]

    @cached_property
    def haar_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(cubes, rows): the weighted Haar bases of all non-leaf cubes
        stacked as rows, and the active position of each row's cube; built
        once per measure, both read-only.

        A basis is Gram-Schmidt in the mu inner product over the cube's
        positive-mass child indicators in lexicographic order, in closed
        form.  Number those m children 0 to m - 1 and let R_k be child 0
        with children k + 1 to m - 1: vector k (k = 1 to m - 1, the cube's
        row k - 1) is sqrt(m_R / (m_k + m_R)) / sqrt(m_k) on child k,
        -sqrt(m_k / (m_k + m_R)) / sqrt(m_R) on R_k, with m_k and m_R their
        masses, and exactly 0 on children 1 to k - 1 and on zero-mass
        children.
        """
        lattice = self.lattice
        kids = lattice.children_index
        n = kids.shape[1]
        masses = self.cube_masses[kids]
        alive = masses > 0
        rank = np.cumsum(alive, axis=1) - 1  # of each positive-mass child
        coef = np.zeros((n - 1, len(lattice.active_cubes)))  # component, child
        for k in range(1, n):
            sel = rank[:, -1] >= k  # the cubes with a child of rank k
            w, ids, at = masses[sel], kids[sel], rank[sel]
            child = alive[sel] & (at == k)
            rest = alive[sel] & ((at == 0) | (at > k))
            m_k, m_r = w[child], np.sum(w * rest, axis=1)
            # no m_k * (m_k + m_r), which overflows for masses near 1e300
            coef[k - 1, ids[child]] = np.sqrt(m_r / (m_k + m_r)) / np.sqrt(m_k)
            coef[k - 1, ids[rest]] = np.repeat(-np.sqrt(m_k / (m_k + m_r)) / np.sqrt(m_r),
                                               rest.sum(axis=1))
        cubes, comp = np.nonzero(np.arange(n - 1) < rank[:, -1:])
        # spread onto leaves level by level (table rows: the level's cubes in
        # active order); a row's value on a leaf is its child's coefficient
        anc = lattice.ancestor_index
        rows = np.zeros((cubes.size, lattice.n_leaves))
        for k, table in enumerate(lattice.level_leaves[:-1]):
            at = np.flatnonzero(lattice.levels[cubes] == lattice.top_level - k)
            leaves = table[cubes[at] - anc[k, table[0, 0]]]
            rows[at[:, None], leaves] = coef[comp[at, None], anc[k + 1, leaves]]
        return read_only(cubes), read_only(rows)

    def martingale_decompose(self, f: np.ndarray):
        """All martingale differences plus root averages.

        Returns (deltas, expectations): dicts over non-leaf active cubes and
        over roots.  E_R f is mean_part(f) on the leaves of root R, 0 off
        them.  On positive-mass leaves the pieces sum back to f.
        """
        lattice = self.lattice
        deltas = {q: self.martingale_difference(f, q) for q in lattice.nonleaf_cubes}
        mean, root_of = self.mean_part(f), lattice.ancestor_index[0]
        return deltas, {r: np.where(root_of == j, mean, 0.0) for j, r in enumerate(lattice.roots)}

    def mean_part(self, f: np.ndarray) -> np.ndarray:
        """Sum of the root averages E_R f: on each root's leaves, the average
        of f over that root (0 when the root has no mass)."""
        lattice = self.lattice
        # np.take gives a C-ordered result: on a strided one the matrix
        # products that read it round otherwise
        roots = self._averages(f, lattice.level_leaves[0], np.arange(len(lattice.roots)))
        return np.take(roots, lattice.ancestor_index[0], axis=-1)

    def delta_level_within(self, values: np.ndarray, level: int,
                           q: Cube) -> np.ndarray:
        """Sum of Delta_R over the cubes R inside q at the given level: the
        level_deltas row of that level, restricted to q."""
        lattice = self.lattice
        if level > q.level:
            return np.zeros(np.shape(values))
        inside = (lattice.ancestor_index[lattice.top_level - q.level]
                  == lattice.position(q))
        return np.where(inside, self.level_deltas(values, [level])[..., 0, :], 0.0)


def _row_sums(products: np.ndarray) -> np.ndarray:
    """Sums over the last axis, each the np.sum of its own row: a gathered
    stack is not C-contiguous, and numpy sums a strided axis in another
    order."""
    return np.ascontiguousarray(products).sum(axis=-1)


def _scalar(x):
    """A float for a 0-d result (one leaf function), else the array."""
    return float(x) if np.ndim(x) == 0 else x


def uniform_measure(lattice: Lattice, total: float | None = None) -> MeasureGrid:
    """Lebesgue measure (or uniform with the given total mass)."""
    if total is None:
        mass = np.full(lattice.n_leaves, lattice.leaf_volume)
    else:
        mass = np.full(lattice.n_leaves, total / lattice.n_leaves)
    return MeasureGrid(lattice, mass)


def lognormal_measure(lattice: Lattice, sigma: float, seed: int) -> MeasureGrid:
    rng = np.random.default_rng(seed)
    return MeasureGrid(lattice, np.exp(sigma * rng.standard_normal(lattice.n_leaves)))


def sparse_atoms_measure(lattice: Lattice, count: int, seed: int) -> MeasureGrid:
    """Mass on `count` randomly chosen leaves, zero elsewhere."""
    rng = np.random.default_rng(seed)
    mass = np.zeros(lattice.n_leaves)
    picks = rng.choice(lattice.n_leaves, size=min(count, lattice.n_leaves),
                       replace=False)
    mass[picks] = rng.uniform(0.5, 2.0, size=picks.size)
    return MeasureGrid(lattice, mass)


def zero_blocks_measure(lattice: Lattice, fraction: float, seed: int) -> MeasureGrid:
    """Lognormal masses with a random fraction (in [0, 1]) of leaves zeroed out."""
    if not 0 <= fraction <= 1:
        raise ValueError(f"zero_blocks fraction must be in [0, 1], got {fraction!r}")
    rng = np.random.default_rng(seed)
    mass = np.exp(rng.standard_normal(lattice.n_leaves))
    mass[rng.random(lattice.n_leaves) < fraction] = 0.0
    return MeasureGrid(lattice, mass)


def generate_measure(lattice: Lattice, spec) -> MeasureGrid:
    """Build a measure from a config spec (explicit masses or a generator)."""
    if isinstance(spec, (list, tuple, np.ndarray)):
        return MeasureGrid(lattice, np.asarray(spec, dtype=float))
    kind = spec["type"]
    if kind == "explicit":
        return MeasureGrid(lattice, np.asarray(spec["mass"], dtype=float))
    if kind == "uniform":
        return uniform_measure(lattice, total=spec.get("total"))
    if kind == "lognormal":
        return lognormal_measure(lattice, spec.get("sigma", 1.0), spec["seed"])
    if kind == "sparse_atoms":
        return sparse_atoms_measure(lattice, spec["count"], spec["seed"])
    if kind == "zero_blocks":
        return zero_blocks_measure(lattice, spec.get("fraction", 0.25), spec["seed"])
    raise ValueError(f"unknown measure spec type {kind!r}")

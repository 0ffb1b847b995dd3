"""Dyadic cubes and finite truncated lattices.

All geometry is integer arithmetic: a cube at level j has side 2**j and
lower corner at coords * 2**j.  Containment and adjacency tests are exact,
no floating point is involved anywhere.
"""
from __future__ import annotations

import itertools
import math
import types
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Sentinel for "no common ancestor": cubes in separated grid positions.
NO_COMMON_ANCESTOR = math.inf


def read_only(x: np.ndarray) -> np.ndarray:
    """x, made read-only: the cached tables are shared by every caller."""
    x.flags.writeable = False
    return x


@dataclass(frozen=True)
class Cube:
    """A dyadic cube: side 2**level, lower corner at coords * 2**level."""

    dim: int
    level: int
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if len(self.coords) != self.dim:
            raise ValueError(f"expected {self.dim} coords, got {len(self.coords)}")

    @property
    def volume(self) -> float:
        return 2.0 ** (self.level * self.dim)


def tree_distance(q: Cube, r: Cube) -> int | float:
    """Graph distance in the 2**dim-ary dyadic tree.

    Returns NO_COMMON_ANCESTOR (inf) for cubes that never share an ancestor,
    e.g. cubes separated by the origin in the standard grid.  Lifted to one
    level, the cubes meet k levels up, k the bit length of their largest
    coordinate xor; a negative xor (opposite signs) never meets.
    """
    if q.dim != r.dim:
        raise ValueError("cubes have different dimensions")
    up = q.level - r.level
    diff = 0
    for c, d in zip(q.coords, r.coords):
        diff |= (c >> max(-up, 0)) ^ (d >> max(up, 0))
    return NO_COMMON_ANCESTOR if diff < 0 else abs(up) + 2 * diff.bit_length()


@dataclass(frozen=True)
class Lattice:
    """The active cubes between top_level and leaf_level under fixed roots.

    Cube arithmetic remains global; only enumeration is bounded by the
    lattice.  Leaves are enumerated root by root, lexicographically by
    coordinates (row-major), and the order is stable across runs.

    `membership` (leaves x active cubes) is the transpose of the stacked
    indicator rows, not a C-ordered copy: that layout keeps the BLAS
    summation order of products with it, so constants stay bit-exact.
    """

    dim: int
    top_level: int
    leaf_level: int
    roots: tuple[Cube, ...]

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(self.roots))
        if self.leaf_level >= self.top_level:
            raise ValueError("leaf_level must be below top_level")
        if self.dim * self.leaf_level < -1022 or self.dim * self.top_level > 1023:
            raise ValueError("cube volumes 2**(dim*level) must be normal floats, got levels "
                             f"{self.leaf_level} to {self.top_level} in dimension {self.dim}")
        seen = set()
        for root in self.roots:
            if root.dim != self.dim or root.level != self.top_level:
                raise ValueError(f"root {root} not at top level {self.top_level}")
            if root.coords in seen:
                raise ValueError(f"overlapping roots at coords {root.coords}")
            seen.add(root.coords)
        if not self.roots:
            raise ValueError("at least one root required")

    @property
    def depth(self) -> int:
        return self.top_level - self.leaf_level

    def cubes_at_level(self, level: int) -> list[Cube]:
        if level > self.top_level or level < self.leaf_level:
            return []
        k = self.top_level - level
        return [Cube(self.dim, level, coords) for root in self.roots for coords in
                itertools.product(*[range(c << k, (c + 1) << k) for c in root.coords])]

    @cached_property
    def active_cubes(self) -> tuple[Cube, ...]:
        """All active cubes, from top_level down to leaf_level."""
        return tuple(q for level in range(self.top_level, self.leaf_level - 1, -1)
                     for q in self.cubes_at_level(level))

    @cached_property
    def nonleaf_cubes(self) -> tuple[Cube, ...]:
        return tuple(q for q in self.active_cubes if q.level > self.leaf_level)

    @cached_property
    def cube_index(self) -> types.MappingProxyType:
        """Position of each active cube in active_cubes, read-only."""
        return types.MappingProxyType({q: i for i, q in enumerate(self.active_cubes)})

    @cached_property
    def children_index(self) -> np.ndarray:
        """Non-leaf cubes x 2**dim: active indices of each cube's children,
        in lexicographic order; row i belongs to active_cubes[i].  A level
        runs root by root, row-major in each root's block, so splitting each
        axis of the next level into (coordinate, offset) pairs gives them."""
        rows, axes = [], range(1, 2 * self.dim + 1)
        for k in range(self.depth):
            kids = np.arange(*self.level_starts[k + 1:k + 3]).reshape(
                (len(self.roots),) + (1 << k, 2) * self.dim)
            rows.append(kids.transpose(0, *axes[::2], *axes[1::2]).reshape(-1, 2 ** self.dim))
        return read_only(np.concatenate(rows).astype(np.intp))

    @property
    def n_leaves(self) -> int:
        return len(self.roots) << (self.dim * self.depth)

    @cached_property
    def level_starts(self) -> np.ndarray:
        """Active position of the first cube k levels below the top for
        k = 0..depth, then the number of active cubes."""
        return read_only(np.cumsum(
            [0, *(len(self.roots) << (self.dim * np.arange(self.depth + 1)))]))

    @property
    def leaf_volume(self) -> float:
        return 2.0 ** (self.leaf_level * self.dim)

    @cached_property
    def ancestor_index(self) -> np.ndarray:
        """(depth + 1) x leaves: row k holds the active position of each
        leaf's ancestor at level top_level - k; the last row holds the
        leaves' own positions (leaves close active_cubes in leaf order)."""
        return self._level_keys[-1 - self.depth:]

    @cached_property
    def level_leaves(self) -> tuple[np.ndarray, ...]:
        """Row k of ancestor_index inverted: a table of the cubes at level
        top_level - k (rows, in active_cubes order) by their leaves
        (ascending).  Gathers through it keep each cube's leaves in the
        order that np.sum over leaf_indices sees them."""
        return tuple(read_only(np.argsort(row, kind="stable").reshape(
            len(self.roots) << (self.dim * k), -1)) for k, row in enumerate(self.ancestor_index))

    @cached_property
    def _first_leaf(self) -> np.ndarray:
        return read_only(np.concatenate([table[:, 0] for table in self.level_leaves]))

    def position(self, q: Cube) -> int:
        """Position of q in active_cubes; a ValueError names a cube off the lattice."""
        i = self.cube_index.get(q)
        if i is None:
            raise ValueError(f"{q!r} is not a cube of the lattice")
        return i

    def _leaf_rows(self, positions, level: int) -> np.ndarray:
        """The level_leaves rows of the active cubes at `positions`, all at
        `level`: each cube's leaf indices, ascending."""
        k = self.top_level - level
        return self.level_leaves[k][np.subtract(positions, self.level_starts[k])]

    def leaf_indices(self, q: Cube) -> np.ndarray:
        """Indices of the leaves contained in an active cube q."""
        return self._leaf_rows(self.position(q), q.level)

    def indicator(self, q: Cube) -> np.ndarray:
        """Leaf-vector indicator of an active cube."""
        x = np.zeros(self.n_leaves)
        x[self.leaf_indices(q)] = 1.0
        return x

    @cached_property
    def levels(self) -> np.ndarray:
        """Level of each active cube, in active_cubes order."""
        k = np.arange(self.depth + 1)
        return read_only(np.repeat(self.top_level - k, np.diff(self.level_starts)))

    @cached_property
    def membership(self) -> np.ndarray:
        """Leaves x active cubes indicator matrix (layout: class docstring)."""
        x = np.zeros((len(self.levels), self.n_leaves))
        x[self.ancestor_index, np.arange(self.n_leaves)] = 1.0
        return read_only(x.T)

    @cached_property
    def _level_keys(self) -> np.ndarray:
        """Row j keys the leaves' ancestors at level leaf_level + len - 1 - j:
        two cubes share one iff their first leaves' keys agree.  The rows
        before ancestor_index number the roots' ancestors, up to where every
        root coordinate is 0 or -1 (fixed by c >> 1): higher levels match row 0."""
        kids = self.children_index
        parent = np.zeros(len(self.levels), dtype=np.intp)
        parent[kids] = np.arange(len(kids))[:, None]
        rows = [len(kids) + np.arange(self.n_leaves)]
        for _ in range(self.depth):
            rows.append(parent[rows[-1]])
        for j in range(1, max(c.bit_length() for root in self.roots for c in root.coords) + 1):
            keys = {}
            root_key = [keys.setdefault(tuple(c >> j for c in root.coords), len(keys))
                        for root in self.roots]
            rows.append(np.array(root_key, dtype=np.intp)[rows[self.depth]])
        return read_only(np.array(rows[::-1]))

    def inside(self, inner: np.ndarray, outer: np.ndarray, up: int = 0) -> np.ndarray:
        """Boolean matrix [i, j]: active cube inner[i] lies inside the up-th
        ancestor of active cube outer[j] (positions in active_cubes)."""
        keys, first, levels = self._level_keys, self._first_leaf, self.levels
        # the row of each outer ancestor's level; past the top row nothing changes
        row = np.maximum(self.leaf_level + len(keys) - 1 - up - levels[outer], 0)
        out = keys[row, first[inner][:, None]] == keys[row, first[outer]]
        out &= levels[inner][:, None] <= levels[outer] + up  # in place, the int gather freed
        return out


@lru_cache(maxsize=32)
def _interned(lattice: Lattice) -> Lattice:
    return lattice


def build_lattice(dim: int, top_level: int, leaf_level: int,
                  roots=None) -> Lattice:
    """Construct a lattice; roots default to the single cube at the origin.
    Equal lattices give one shared object (the last 32 distinct ones are
    kept), so its cached tables are built once per process."""
    if roots is None:
        roots = [Cube(dim, top_level, (0,) * dim)]
    return _interned(Lattice(dim=dim, top_level=top_level, leaf_level=leaf_level,
                             roots=tuple(roots)))

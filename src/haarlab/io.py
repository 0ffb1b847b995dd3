"""JSON (de)serialization of cubes, lattices, measures and operators.

The same encoding is used by run configs, reports and search artifacts, so
any emitted instance can be replayed bit for bit.
"""
from __future__ import annotations

import numpy as np

from .lattice import Cube, Lattice, build_lattice
from .measures import MeasureGrid, generate_measure
from .operators import (BandOperator, HaarIndex, RootIndex, basis_positions,
                        haar_multiplier, haar_shift, random_band)


def cube_to_json(q: Cube) -> dict:
    return {"level": q.level, "coords": list(q.coords)}


def cube_from_json(obj: dict, dim: int) -> Cube:
    return Cube(dim=dim, level=int(obj["level"]),
                coords=tuple(int(c) for c in obj["coords"]))


def lattice_to_json(lat: Lattice) -> dict:
    return {"dim": lat.dim, "top_level": lat.top_level,
            "leaf_level": lat.leaf_level,
            "roots": [cube_to_json(r) for r in lat.roots]}


def lattice_from_json(obj: dict) -> Lattice:
    dim = int(obj["dim"])
    roots = [cube_from_json(r, dim) for r in obj.get("roots", [])] or None
    return build_lattice(dim, int(obj["top_level"]), int(obj["leaf_level"]),
                         roots)


def index_to_json(ix) -> dict:
    if isinstance(ix, HaarIndex):
        return {"kind": "haar", "cube": cube_to_json(ix.cube),
                "component": ix.component}
    if isinstance(ix, RootIndex):
        return {"kind": "root", "cube": cube_to_json(ix.cube)}
    raise TypeError(f"not a basis index: {ix!r}")


def index_from_json(obj: dict, dim: int):
    cube = cube_from_json(obj["cube"], dim)
    if obj["kind"] == "haar":
        return HaarIndex(cube=cube, component=int(obj["component"]))
    if obj["kind"] == "root":
        return RootIndex(cube=cube)
    raise ValueError(f"unknown index kind {obj['kind']!r}")


def band_to_json(op: BandOperator) -> dict:
    entries = [{"row": index_to_json(row), "col": index_to_json(col),
                "value": float(val)}
               for (row, col), val in sorted(
                   op.entries.items(), key=lambda kv: repr(kv[0]))]
    return {"type": "explicit", "r": op.band_radius, "entries": entries}


def band_from_json(obj: dict, lattice: Lattice) -> BandOperator:
    """Build an operator from a config spec (named generator or explicit)."""
    kind = obj["type"]
    if kind == "multiplier":
        alpha, root_alpha = obj.get("alpha", 1.0), obj.get("root_alpha", 0.0)
        if not all(isinstance(a, (int, float)) and np.isfinite(a)
                   for a in (alpha, root_alpha)):
            raise ValueError("multiplier alpha and root_alpha must be finite numbers")
        return haar_multiplier(lattice, alpha, root_alpha=root_alpha)
    if kind == "shift":
        return haar_shift(lattice)
    if kind == "random_band":
        return random_band(lattice, r=int(obj["r"]), seed=int(obj["seed"]),
                           amplitude=float(obj.get("amplitude", 1.0)),
                           root_amplitude=float(obj.get("root_amplitude", 0.0)))
    if kind == "explicit":
        entries = {}
        for e in obj["entries"]:
            row = index_from_json(e["row"], lattice.dim)
            col = index_from_json(e["col"], lattice.dim)
            entries[(row, col)] = float(e["value"])
        if not np.all(np.isfinite(list(entries.values()))):
            raise ValueError("operator entries must be finite")
        basis_positions(lattice, [ix for key in entries for ix in key])
        return BandOperator(lattice=lattice, band_radius=int(obj["r"]),
                            entries=entries)
    raise ValueError(f"unknown operator spec type {kind!r}")


def measure_from_json(obj, lattice: Lattice) -> MeasureGrid:
    return generate_measure(lattice, obj)

"""JSON (de)serialization of cubes, lattices, measures and operators.

The same encoding is used by run configs, reports and search artifacts, so
any emitted instance can be replayed bit for bit.  Replayed artifacts skip
the config schema, so every number read here is checked here.
"""
from __future__ import annotations

import math

from .lattice import Cube, Lattice, build_lattice
from .measures import MeasureGrid, generate_measure
from .operators import (BandOperator, HaarIndex, RootIndex, basis_table,
                        haar_multiplier, haar_shift, random_band, repr_order)


def _number(value, what: str, kind: type = float, finite: bool = True):
    """A JSON number as `kind`, float or int, finite unless finite=False; an int
    field takes an integral float (JSON does not tell 3 from 3.0), never a bool or string."""
    if type(value) is kind and (kind is int or not finite or math.isfinite(value)):
        return value  # the common case, kept cheap: a band has thousands of numbers
    if type(value) in (int, float) and math.isfinite(value) and kind(value) == value:
        return kind(value)
    raise ValueError(f"{what} must be a {'finite ' * finite}{kind.__name__}, got {value!r}")


def _container(value, what: str, kind: type = dict):
    """A JSON object (dict) or array (list), as `kind` says, and nothing else."""
    if isinstance(value, kind):
        return value
    raise ValueError(f"{what} must be a JSON {'object' if kind is dict else 'array'}, "
                     f"got {value!r}")


def cube_to_json(q: Cube) -> dict:
    return {"level": q.level, "coords": list(q.coords)}


def _cube_fields(obj: dict) -> tuple:
    obj = _container(obj, "cube")
    return (_number(obj["level"], "cube level", int),
            tuple(_number(c, "cube coordinate", int)
                  for c in _container(obj["coords"], "cube coords", list)))


def lattice_to_json(lat: Lattice) -> dict:
    return {"dim": lat.dim, "top_level": lat.top_level,
            "leaf_level": lat.leaf_level,
            "roots": [cube_to_json(r) for r in lat.roots]}


def lattice_from_json(obj: dict) -> Lattice:
    obj = _container(obj, "lattice")
    dim = _number(obj["dim"], "lattice dim", int)
    roots = [Cube(dim, *_cube_fields(r)) for r in _container(obj.get("roots", []), "roots", list)]
    return build_lattice(dim, _number(obj["top_level"], "top_level", int),
                         _number(obj["leaf_level"], "leaf_level", int), roots or None)


def index_to_json(ix) -> dict:
    if isinstance(ix, HaarIndex):
        return {"kind": "haar", "cube": cube_to_json(ix.cube),
                "component": ix.component}
    if isinstance(ix, RootIndex):
        return {"kind": "root", "cube": cube_to_json(ix.cube)}
    raise TypeError(f"not a basis index: {ix!r}")


def _position(obj: dict, what: str, positions: dict) -> int:
    """The haar_system row of a JSON basis index, every number checked."""
    obj = _container(obj, what)
    level, coords = _cube_fields(obj["cube"])
    kind = obj["kind"]
    if kind not in ("haar", "root"):
        raise ValueError(f"unknown index kind {kind!r}")
    component = _number(obj["component"], "component", int) if kind == "haar" else None
    pos = positions.get((kind, level, coords, component))
    if pos is None:
        raise ValueError(f"{what} {obj!r} is not a basis index of the lattice")
    return pos


def band_to_json(op: BandOperator) -> dict:
    """The explicit spec of a band, entries in sorted(..., key=repr) order."""
    items = list(op.entries.items())
    entries = [{"row": index_to_json(row), "col": index_to_json(col), "value": float(val)}
               for (row, col), val in map(items.__getitem__,
                                          repr_order(op.lattice, *op.positions()))]
    return {"type": "explicit", "r": op.band_radius, "entries": entries}


def band_from_json(obj: dict, lattice: Lattice) -> BandOperator:
    """Build an operator from a config spec (named generator or explicit)."""
    kind = _container(obj, "operator")["type"]
    if kind == "multiplier":
        return haar_multiplier(lattice, _number(obj.get("alpha", 1.0), "multiplier alpha"),
                               root_alpha=_number(obj.get("root_alpha", 0.0),
                                                  "multiplier root_alpha"))
    if kind == "shift":
        return haar_shift(lattice)
    if kind == "random_band":
        return random_band(lattice, r=_number(obj["r"], "random_band r", int),
                           seed=_number(obj["seed"], "random_band seed", int),
                           amplitude=_number(obj.get("amplitude", 1.0), "amplitude"),
                           root_amplitude=_number(obj.get("root_amplitude", 0.0),
                                                  "root_amplitude"))
    if kind == "explicit":
        (ix, _, positions), entries = basis_table(lattice), {}
        for e in _container(obj["entries"], "operator entries", list):
            e = _container(e, "operator entry")
            entries[(_position(e["row"], "entry row", positions),
                     _position(e["col"], "entry col", positions))] = _number(
                         e["value"], "operator entry")
        if len(entries) < len(obj["entries"]):
            raise ValueError("explicit operator repeats a (row, col) pair")
        r = _number(obj["r"], "explicit r", int)
        if r < 0:
            raise ValueError(f"explicit r must be nonnegative, got {r}")
        return BandOperator(lattice=lattice, band_radius=r,
                            entries={(ix[i], ix[j]): v for (i, j), v in entries.items()})
    raise ValueError(f"unknown operator spec type {kind!r}")


def measure_from_json(obj, lattice: Lattice) -> MeasureGrid:
    kinds = {"seed": int, "count": int, "total": float, "sigma": float, "fraction": float}
    if not isinstance(obj, dict):  # the bare-list form of explicit masses
        obj = {"type": "explicit", "mass": obj}
    obj = {key: _number(v, f"measure {key}", kinds[key]) if key in kinds else v
           for key, v in obj.items()}
    if obj.get("type") == "explicit":
        obj["mass"] = [_number(m, "leaf mass") for m in _container(obj["mass"], "mass", list)]
    return generate_measure(lattice, obj)

"""JSON (de)serialization of cubes, lattices, measures and operators.

The same encoding is used by run configs, reports and search artifacts, so
any emitted instance can be replayed bit for bit.  Configs and artifacts go
through the same readers, which check every number and reject unread keys.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .lattice import Cube, Lattice, build_lattice
from .measures import MeasureGrid, generate_measure
from .operators import (BandOperator, basis_table, haar_multiplier, haar_shift, random_band,
                        repr_order)


def _number(value, what: str, kind: type = float, nonnegative: bool = False, finite: bool = True):
    """A JSON number as `kind`, float or int, finite unless finite=False and >= 0
    if nonnegative; an int field takes an integral float (JSON does not tell 3
    from 3.0), never a bool or string.  The first test is the common case, kept
    cheap: a band has thousands of numbers."""
    if not (type(value) is kind and (kind is int or not finite or math.isfinite(value))):
        if not (type(value) in (int, float) and math.isfinite(value) and kind(value) == value):
            raise ValueError(f"{what} must be a {'finite ' * finite}{kind.__name__}, "
                             f"got {value!r}")
        value = kind(value)
    if nonnegative and value < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")
    return value


def _container(value, what: str, kind: type = dict):
    """A JSON object (dict) or array (list), as `kind` says, and nothing else."""
    if isinstance(value, kind):
        return value
    raise ValueError(f"{what} must be a JSON {'object' if kind is dict else 'array'}, "
                     f"got {value!r}")


def _fields(obj, what: str, names) -> dict:
    """A JSON object whose keys are all among `names`: no typo leaves a default in force."""
    unknown = _container(obj, what).keys() - names
    if unknown:
        raise ValueError(f"{what} has unknown keys {sorted(unknown)}")
    return obj


# A spec key: its number type (list: an array that its reader loops over),
# whether it must be nonnegative and whether the spec must give it.
Key = namedtuple("Key", "kind nonnegative required", defaults=(False, False))


def _typed(obj, what: str, schema: dict) -> tuple[str, dict]:
    """The `type` of a spec object, a key of `schema`, and its other keys, each read
    as its Key in schema[type] says.  An undeclared key is a ValueError, a missing
    required one a KeyError; the generators hold the defaults of the rest."""
    kind = _container(obj, what).get("type")
    if not isinstance(kind, str) or kind not in schema:
        raise ValueError(f"unknown {what} spec type {kind!r}")
    keys = schema[kind]
    _fields(obj, f"{kind} {what}", ("type", *keys))
    return kind, {name: obj[name] if key.kind is list
                  else _number(obj[name], f"{kind} {name}", key.kind, key.nonnegative)
                  for name, key in keys.items() if key.required or name in obj}


# random_band's r has no sign here: random_band itself rejects a negative one
OPERATOR_FIELDS = {"multiplier": {"alpha": Key(float), "root_alpha": Key(float)}, "shift": {},
                   "explicit": {"r": Key(int, True, True), "entries": Key(list, required=True)},
                   "random_band": {"r": Key(int, required=True), "seed": Key(int, True, True),
                                   "amplitude": Key(float), "root_amplitude": Key(float)}}
MEASURE_FIELDS = {"explicit": {"mass": Key(list, required=True)},
                  "uniform": {"total": Key(float)},
                  "lognormal": {"sigma": Key(float), "seed": Key(int, True, True)},
                  "sparse_atoms": {"count": Key(int, True, True), "seed": Key(int, True, True)},
                  "zero_blocks": {"fraction": Key(float), "seed": Key(int, True, True)}}


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
    obj = _fields(obj, "lattice", ("dim", "top_level", "leaf_level", "roots"))
    dim = _number(obj["dim"], "lattice dim", int)
    if not 0 < dim < 1024:  # past 1023 no two levels have normal cube volumes
        raise ValueError(f"lattice dim must be 1 to 1023, got {dim}")
    roots = None if "roots" not in obj else [  # an explicit [] is no roots: build_lattice raises
        Cube(dim, *_cube_fields(r)) for r in _container(obj["roots"], "roots", list)]
    return build_lattice(dim, _number(obj["top_level"], "top_level", int),
                         _number(obj["leaf_level"], "leaf_level", int), roots)


def _index_json(kind: str, level: int, coords: tuple, component: int | None) -> dict:
    """The JSON of the basis index with this basis_table key."""
    obj = {"kind": kind, "cube": {"level": level, "coords": list(coords)}}
    if component is not None:
        obj["component"] = component
    return obj


def _position(obj: dict, what: str, positions: dict) -> int:
    """The haar_system row of a JSON basis index, every number checked.  An index
    of exact JSON types (dict, list, int: never a bool, a float or a subclass) is
    looked up directly; anything else, and a miss, takes the checked path."""
    cube = obj.get("cube") if type(obj) is dict else None
    if type(cube) is dict:
        kind, level, coords = obj.get("kind"), cube.get("level"), cube.get("coords")
        component = obj.get("component") if kind == "haar" else None
        if (type(level) is int and type(coords) is list and all(type(c) is int for c in coords)
                and (kind == "root" or type(component) is int)):
            pos = positions.get((kind, level, tuple(coords), component))
            if pos is not None:
                return pos
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
    """The explicit spec of a band, entries in sorted(..., key=repr) order of their indices.
    Entries at one position share its index object: copy one before editing it."""
    keys, order = basis_table(op.lattice)[3], repr_order(op.lattice, op.rows, op.cols)
    n = order.size
    used, at = np.unique(np.concatenate((op.rows[order], op.cols[order])), return_inverse=True)
    index = [_index_json(*keys[i]) for i in used.tolist()]
    entries = [{"row": index[i], "col": index[j], "value": val}
               for i, j, val in zip(at[:n].tolist(), at[n:].tolist(), op.values[order].tolist())]
    return {"type": "explicit", "r": op.band_radius, "entries": entries}


def band_from_json(obj: dict, lattice: Lattice) -> BandOperator:
    """Build an operator from a config spec (named generator or explicit)."""
    kind, fields = _typed(obj, "operator", OPERATOR_FIELDS)
    if kind != "explicit":
        return {"multiplier": haar_multiplier, "shift": haar_shift,
                "random_band": random_band}[kind](lattice, **fields)
    positions, rows, cols, values = basis_table(lattice)[2], [], [], []  # explicit
    for e in _container(fields["entries"], "operator entries", list):
        e = _container(e, "operator entry")
        rows.append(_position(e["row"], "entry row", positions))
        cols.append(_position(e["col"], "entry col", positions))
        values.append(_number(e["value"], "operator entry"))
    rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    pairs = np.sort(rows * len(positions) + cols)  # np.unique would import numpy.ma
    if (pairs[1:] == pairs[:-1]).any():
        raise ValueError("explicit operator repeats a (row, col) pair")
    return BandOperator(lattice, fields["r"], rows, cols, values)


def measure_from_json(obj, lattice: Lattice) -> MeasureGrid:
    if not isinstance(obj, dict):  # the bare-list form of explicit masses
        obj = {"type": "explicit", "mass": obj}
    kind, fields = _typed(obj, "measure", MEASURE_FIELDS)
    if kind == "explicit":
        fields["mass"] = [_number(m, "leaf mass") for m in _container(fields["mass"], "mass", list)]
    return generate_measure(lattice, {"type": kind, **fields})

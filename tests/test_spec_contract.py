"""One schema per spec type: io.OPERATOR_FIELDS and io.MEASURE_FIELDS declare
each spec key's number type, sign and presence once, and io._typed reads
every spec through them.  A _number call on a spec key elsewhere in io, or a
default written there, would be a second declaration that can drift from
the table or from the generator's signature.  io.py is read as source."""
import ast

import pytest

from haarlab import build_lattice, io
from test_spectral_contract import enclosing_function, parsed_sources

SCHEMAS = {"operator": io.OPERATOR_FIELDS, "measure": io.MEASURE_FIELDS}
SPEC_KEYS = {name for schema in SCHEMAS.values() for keys in schema.values() for name in keys}

# a smallest valid spec of each type: its required keys
VALID = {("operator", "multiplier"): {}, ("operator", "shift"): {},
         ("operator", "explicit"): {"r": 0, "entries": []},
         ("operator", "random_band"): {"r": 1, "seed": 0},
         ("measure", "explicit"): {"mass": [1.0] * 8}, ("measure", "uniform"): {},
         ("measure", "lognormal"): {"seed": 0},
         ("measure", "sparse_atoms"): {"count": 1, "seed": 0},
         ("measure", "zero_blocks"): {"seed": 0}}
LATTICE = build_lattice(1, 0, -3)


def spec_key_reads():
    """(function, source) of every _number or .get call in io.py whose
    argument names a spec key: obj["seed"] or obj.get("alpha", 1.0)."""
    reads = []
    for module, tree in parsed_sources():
        if module != "io.py":
            continue
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            arg = node.args[0]
            if getattr(node.func, "id", None) == "_number" and isinstance(arg, ast.Subscript):
                arg = arg.slice
            elif getattr(node.func, "attr", None) != "get":
                continue
            if isinstance(arg, ast.Constant) and arg.value in SPEC_KEYS:
                reads.append((enclosing_function(node), ast.unparse(node)))
    return reads


def test_no_spec_key_is_read_or_defaulted_outside_the_tables():
    assert spec_key_reads() == []


def test_every_spec_type_has_a_valid_smallest_spec():
    assert sorted(VALID) == sorted((what, kind) for what, schema in SCHEMAS.items()
                                   for kind in schema)


def read(what, spec):
    reader = io.band_from_json if what == "operator" else io.measure_from_json
    return reader(spec, LATTICE)


CASES = [(what, kind, name, key) for what, schema in SCHEMAS.items()
         for kind, keys in schema.items() for name, key in keys.items()]


@pytest.mark.parametrize("what,kind,name,key", CASES,
                         ids=[f"{what}-{kind}-{name}" for what, kind, name, _ in CASES])
def test_each_key_is_read_as_its_table_entry_declares(what, kind, name, key):
    spec = {"type": kind, **VALID[what, kind]}
    read(what, spec)
    without = {k: v for k, v in spec.items() if k != name}
    if key.required:
        with pytest.raises(KeyError, match=name):
            read(what, without)
    else:
        read(what, without)  # the generator's default
    if key.kind is not list:
        must_be = f"^{kind} {name} must be a finite {key.kind.__name__}"
        with pytest.raises(ValueError, match=must_be):
            read(what, dict(spec, **{name: True}))
    if key.nonnegative:
        with pytest.raises(ValueError, match=f"^{kind} {name} must be nonnegative"):
            read(what, dict(spec, **{name: -1}))

"""One index map: a band is positions in haar_system, and the HaarIndex /
RootIndex objects of a lattice are built in one place, basis_table, in
position order.  check_band's witness is two positions, which the runner
writes through basis_table's JSON keys as band_to_json does.  A constructor
call anywhere else would be a second map from basis index to position, one
that the builders' tests do not check.  The src/haarlab modules are read
as source."""
import ast

from test_spectral_contract import enclosing_function, parsed_sources

INDEX_CLASSES = ("HaarIndex", "RootIndex")


def index_constructions():
    """(module, enclosing function, class) of every HaarIndex(...) or
    RootIndex(...) call, by bare name or as an attribute."""
    calls = set()
    for module, tree in parsed_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in INDEX_CLASSES:
                    calls.add((module, enclosing_function(node), name))
    return sorted(calls)


def test_basis_indices_are_built_only_in_basis_table():
    assert index_constructions() == [("operators.py", "basis_table", "HaarIndex"),
                                     ("operators.py", "basis_table", "RootIndex")]

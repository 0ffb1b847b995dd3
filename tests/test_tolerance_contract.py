"""One tolerance table: operators.DEFAULT_TOLERANCES, which the runner names
runner.DEFAULT_TOLERANCES.  Every named tolerance must bound some check: a
name that no check reads would be reported and accepted as an override while
changing nothing.  Every check's `tol` defaults to an entry of that table,
never to a number of its own, so no second copy can drift from it.  The
src/haarlab modules are read as source; in runner.py a read is a subscript
tol["<name>"]."""
import ast
import inspect
import os

from haarlab import operators, runner
from test_spectral_contract import parsed_sources

RUNNER = os.path.join(os.path.dirname(__file__), os.pardir, "src", "haarlab", "runner.py")


def test_the_runner_starts_from_the_one_table():
    assert runner.DEFAULT_TOLERANCES is operators.DEFAULT_TOLERANCES
    assert runner._tolerances() == operators.DEFAULT_TOLERANCES


def test_every_default_tolerance_is_read_by_a_check():
    with open(RUNNER) as fh:
        tree = ast.parse(fh.read())
    defaults = operators.DEFAULT_TOLERANCES
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "tol" and isinstance(node.slice, ast.Constant)}
    assert defaults and set(defaults) <= read, sorted(set(defaults) - read)


def test_library_tol_defaults_equal_the_named_defaults():
    # a check called as f(..., tol=tol["name"]) in runner.py defaults to the
    # same bound when called directly: neither copy changes alone
    with open(RUNNER) as fh:
        tree = ast.parse(fh.read())
    calls = {(node.func.id, kw.value.slice.value) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             for kw in node.keywords
             if kw.arg == "tol" and isinstance(kw.value, ast.Subscript)
             and getattr(kw.value.value, "id", None) == "tol"}
    assert len(calls) >= 5, calls
    for func, name in sorted(calls):
        default = inspect.signature(getattr(runner, func)).parameters["tol"].default
        assert default == runner.DEFAULT_TOLERANCES[name], (func, name)


def tol_defaults():
    """(module, function, default source) of every `tol` parameter with a default."""
    found = []
    for module, tree in parsed_sources():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                args = fn.args.posonlyargs + fn.args.args
                pairs = [*zip(args[len(args) - len(fn.args.defaults):], fn.args.defaults),
                         *zip(fn.args.kwonlyargs, fn.args.kw_defaults)]
                found += [(module, fn.name, default) for arg, default in pairs
                          if arg.arg == "tol" and default is not None]
    return found


def test_every_tol_default_reads_the_table_by_name():
    defaults = tol_defaults()
    assert len(defaults) >= 6, defaults
    for module, func, default in defaults:
        # DEFAULT_TOLERANCES["<name>"], never a numeric literal such as 1e-12
        assert (isinstance(default, ast.Subscript)
                and getattr(default.value, "id", None) == "DEFAULT_TOLERANCES"
                and default.slice.value in operators.DEFAULT_TOLERANCES), \
            (module, func, ast.unparse(default))

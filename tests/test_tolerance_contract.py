"""Every named tolerance must bound some check: a name that no check reads
would be reported and accepted as an override while changing nothing.
runner.py is read as source: a read is a subscript tol["<name>"]."""
import ast
import inspect
import os

from haarlab import runner

RUNNER = os.path.join(os.path.dirname(__file__), os.pardir, "src", "haarlab", "runner.py")


def test_every_default_tolerance_is_read_by_a_check():
    with open(RUNNER) as fh:
        tree = ast.parse(fh.read())
    defaults, = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "DEFAULT_TOLERANCES"]
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

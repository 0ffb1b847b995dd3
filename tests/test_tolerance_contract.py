"""Every named tolerance must bound some check: a name that no check reads
would be reported and accepted as an override while changing nothing.
runner.py is read as source: a read is a subscript tol["<name>"]."""
import ast
import os

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

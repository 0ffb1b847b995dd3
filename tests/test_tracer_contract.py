"""The benchmark's tracer (perfbench/tracing.py) rebinds haarlab functions
and methods by name.  Every name it lists must resolve, so that a refactor
that drops or renames one fails here instead of breaking a traced run.
The tracer module is read as source, not imported."""
import ast
import importlib
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
NAMES = ("MODULES", "SPAN_FUNCTIONS", "SPAN_METHODS", "TIMED_LEAVES", "COUNTED_METHODS")


def tracer_names() -> dict:
    with open(TRACING) as fh:
        tree = ast.parse(fh.read())
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name) and node.targets[0].id in NAMES}


def test_every_traced_name_resolves():
    names = tracer_names()
    assert set(names) == set(NAMES)
    modules = {m: importlib.import_module(f"haarlab.{m}") for m in names["MODULES"]}
    functions = [(m, f) for m, fs in names["SPAN_FUNCTIONS"].items() for f in fs]
    for module, fname in functions + names["TIMED_LEAVES"]:
        assert callable(getattr(modules[module], fname, None)), f"{module}.{fname}"
    for module, cls, meth in names["SPAN_METHODS"] + names["COUNTED_METHODS"]:
        # the tracer wraps the class's own attribute, not an inherited one
        assert meth in vars(getattr(modules[module], cls)), f"{module}.{cls}.{meth}"

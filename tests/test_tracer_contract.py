"""The benchmark's tracer (perfbench/tracing.py) rebinds haarlab functions
and methods by name and counts attributes of their results.  Every name it
lists must resolve and every attribute it reads must exist on a real
result, so that a refactor that drops or renames one fails here instead of
breaking a traced run.  The tracer module is read as source, not imported."""
import ast
import importlib
import os

from haarlab import SearchConfig, build_lattice, extremal_search, random_band

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
NAMES = ("MODULES", "SPAN_FUNCTIONS", "SPAN_METHODS", "TIMED_LEAVES", "COUNTED_METHODS")


def tracer_assignments() -> dict:
    with open(TRACING) as fh:
        tree = ast.parse(fh.read())
    return {node.targets[0].id: node.value for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}


def tracer_names() -> dict:
    return {name: ast.literal_eval(value)
            for name, value in tracer_assignments().items() if name in NAMES}


def result_attributes() -> dict:
    """{traced function: the attributes its RESULT_COUNTERS lambda reads
    off the result}"""
    counters = tracer_assignments()["RESULT_COUNTERS"]
    out = {}
    for key, value in zip(counters.keys, counters.values):
        if isinstance(value, ast.Lambda):
            result = value.args.args[-1].arg
            out[key.value] = {node.attr for node in ast.walk(value.body)
                              if isinstance(node, ast.Attribute)
                              and isinstance(node.value, ast.Name) and node.value.id == result}
    return out


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


def test_result_counters_read_real_results():
    iterations = 3
    results = {"operators.random_band": random_band(build_lattice(1, 0, -3), 1, seed=0),
               "search.extremal_search": extremal_search(SearchConfig(iterations=iterations))}
    attributes = result_attributes()
    assert attributes and set(attributes) <= set(results)
    for name, attrs in attributes.items():
        for attr in attrs:
            assert hasattr(results[name], attr), f"{name}(...).{attr}"
    assert isinstance(results["operators.random_band"].entries, dict)
    history = results["search.extremal_search"].history
    assert len(history) == iterations + 1
    assert all(isinstance(h, float) for h in history)

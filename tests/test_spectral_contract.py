"""One spectral path: every operator norm and embedding constant reaches the
one symmetric eigensolve in paraproduct._largest_eigenvalue.  Another
np.linalg call would be a second norm path that the kernel's tests do not
reach, and an iterative norm would need a two-sided certificate.  The
src/haarlab modules are read as source."""
import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "haarlab")
KERNEL = ("paraproduct.py", "_largest_eigenvalue")


def parsed_sources():
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node
        yield os.path.basename(path), tree


def enclosing_function(node):
    while not isinstance(node, (ast.FunctionDef, ast.Module)):
        node = node.parent
    return getattr(node, "name", None)


def linalg_uses():
    """(module, enclosing function, name) of every linalg reference:
    np.linalg.<name>, a bare np.linalg, or an import of linalg."""
    uses = []
    for module, tree in parsed_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "linalg":
                parent = node.parent
                name = parent.attr if isinstance(parent, ast.Attribute) else "linalg"
                uses.append((module, enclosing_function(node), name))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
                if any("linalg" in name for name in names + [getattr(node, "module", None) or ""]):
                    uses.append((module, enclosing_function(node), "import"))
    return uses


def test_the_kernel_is_the_only_linalg_call():
    assert linalg_uses() == [(*KERNEL, "eigvalsh")]


def test_norms_and_embedding_constants_call_the_kernel():
    calls = {}  # function name -> names it calls
    for module, tree in parsed_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                calls.setdefault(enclosing_function(node), set()).add(node.func.id)
    reach = {KERNEL[1]}
    while True:
        more = {caller for caller, names in calls.items() if names & reach} - reach
        if not more:
            break
        reach |= more
    assert {"operator_norm", "embedding_constant", "_largest_singular_value"} <= reach

"""Module layout of src/ybx: imports sit at the top of each module, and the
package's own modules import one another without a cycle."""

import ast
from pathlib import Path

import ybx

PACKAGE = Path(ybx.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def imported_modules(node):
    """The package modules an Import or ImportFrom node names."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("ybx.")}
    if node.level == 0 and (node.module or "").split(".")[0] != "ybx":
        return set()
    if node.module and node.module != "ybx":
        return {node.module.split(".")[-1]}
    return {alias.name for alias in node.names}      # from . import a, b


def test_no_import_inside_a_function():
    found = []
    for name, tree in MODULES.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{name}.py:{node.lineno}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, f"function-local imports at {sorted(set(found))}"


def test_package_import_graph_has_no_cycle():
    graph = {name: set() for name in MODULES}
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                graph[name] |= imported_modules(node) & set(MODULES)
    # depth-first search; reaching a module on the current path closes a cycle
    state = {}

    def visit(name, path):
        state[name] = "open"
        for dep in sorted(graph[name]):
            if state.get(dep) == "open":
                raise AssertionError(" -> ".join(path[path.index(dep):] + [dep]))
            if dep not in state:
                visit(dep, path + [dep])
        state[name] = "done"

    for name in sorted(graph):
        if name not in state:
            visit(name, [name])

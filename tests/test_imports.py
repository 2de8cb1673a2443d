"""The package's import graph: module-level imports only, and no cycles.

The cycle check counts every import, lazy ones included, so a cycle cannot
hide behind an import inside a function. A further guard holds that every
function, class and method of the package is named by some code that could
call it.
"""

import ast
from pathlib import Path

import ldsim

PACKAGE = Path(ldsim.__file__).parent
# The code outside the package that may be a package name's only caller.
CALLERS = [Path(__file__).resolve().parents[1] / name for name in ("perfbench", "tools")]


def _imports(tree: ast.Module, module: str):
    """(imported ldsim module, line, inside a function) for every import."""

    def target(node: ast.ImportFrom, alias: ast.alias) -> str | None:
        if node.level == 0:
            parts = (node.module or "").split(".")
            if parts[0] != "ldsim":
                return None
            return parts[1] if len(parts) > 1 else alias.name
        # `from . import x` names a module; `from .x import y` names x.
        return node.module.split(".")[0] if node.module else alias.name

    def visit(node: ast.AST, in_function: bool):
        for child in ast.iter_child_nodes(node):
            nested = in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            if isinstance(child, ast.ImportFrom):
                for alias in child.names:
                    name = target(child, alias)
                    if name is not None and name != module:
                        yield name, child.lineno, nested
            elif isinstance(child, ast.Import):
                for alias in child.names:
                    if alias.name.startswith("ldsim."):
                        yield alias.name.split(".")[1], child.lineno, nested
            yield from visit(child, nested)

    return list(visit(tree, False))


def _private_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) for every underscore-prefixed name imported from a
    sibling module: `from .x import _y` or `from ldsim.x import _y`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "ldsim"):
            out += [(alias.name, node.lineno) for alias in node.names
                    if alias.name.startswith("_")]
    return out


def _definitions(tree: ast.Module) -> list[str]:
    """Module-level functions and classes, and `Class.method` for methods."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return out


def _named(tree: ast.AST) -> set[str]:
    """Every name the code uses: variables, attributes, and strings that are
    identifiers (a `getattr` or a patch target names a function so)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
    return out


def _dead(definitions: list[str], named: set[str]) -> list[str]:
    """Definitions no code names; the server's `handle` and `do_*` and the
    dunder methods are called by their frameworks."""
    out = []
    for qualified in definitions:
        name = qualified.rsplit(".", 1)[-1]
        if name == "handle" or name.startswith("do_") or \
                (name.startswith("__") and name.endswith("__")):
            continue
        if name not in named:
            out.append(qualified)
    return out


def _graph():
    graph, lazy = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        graph[module] = set()
        for name, line, in_function in _imports(tree, module):
            graph[module].add(name)
            if in_function:
                lazy.append(f"{path.name}:{line} imports .{name} inside a function")
    return graph, lazy


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    state: dict[str, str] = {}
    stack: list[str] = []

    def dfs(node: str) -> list[str] | None:
        state[node] = "open"
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return stack[stack.index(nxt):] + [nxt]
            if nxt not in state:
                found = dfs(nxt)
                if found:
                    return found
        stack.pop()
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state:
            found = dfs(node)
            if found:
                return found
    return None


def test_no_function_level_intra_package_imports():
    _, lazy = _graph()
    assert lazy == []


def test_no_private_names_imported_between_modules():
    found = [f"{path.name}:{line} imports {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for name, line in _private_names(ast.parse(path.read_text()))]
    assert found == []


def test_imports_are_acyclic():
    graph, _ = _graph()
    cycle = _cycle(graph)
    assert cycle is None, " -> ".join(cycle)


def test_metrics_sits_below_engine():
    graph, _ = _graph()
    reached, todo = set(), ["metrics"]
    while todo:
        for name in graph[todo.pop()] - reached:
            reached.add(name)
            todo.append(name)
    assert "engine" not in reached
    assert "metrics" in graph["engine"]


def test_guard_sees_cycles_and_lazy_imports():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set()}) is None
    tree = ast.parse("from .x import y\n"
                     "def f():\n"
                     "    from .z import w\n"
                     "    from . import v\n")
    assert _imports(tree, "m") == [("x", 1, False), ("z", 3, True), ("v", 4, True)]


def test_guard_sees_private_names():
    tree = ast.parse("from .sparql import Parser, _Lexer\n"
                     "from ldsim.rdf import _put\n"
                     "from os import _exit\n"
                     "def f():\n"
                     "    from . import _hidden\n")
    assert _private_names(tree) == [("_Lexer", 1), ("_put", 2), ("_hidden", 5)]


def test_no_dead_helpers():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    named = set().union(*(_named(tree) for tree in trees.values()))
    for folder in CALLERS:
        for path in sorted(folder.glob("*.py")):
            named |= _named(ast.parse(path.read_text(), filename=str(path)))
    dead = [f"{path.name}: {name}" for path, tree in trees.items()
            for name in _dead(_definitions(tree), named)]
    assert dead == []


def test_guard_sees_dead_helpers():
    tree = ast.parse("def used(): pass\n"
                     "def unused(): pass\n"
                     "class C:\n"
                     "    def __init__(self): pass\n"
                     "    def do_GET(self): pass\n"
                     "    def m(self): pass\n"
                     "    def by_name(self): pass\n"
                     "used(C())\n"
                     "getattr(C(), 'by_name')\n")
    assert _dead(_definitions(tree), _named(tree)) == ["unused", "C.m"]

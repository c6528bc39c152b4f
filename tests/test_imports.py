"""Module structure: imports sit at module top, and the package's modules
import each other without cycles."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ladderdet"
MODULES = sorted(SRC.glob("*.py"))


def test_no_imports_inside_functions():
    found = []
    for path in MODULES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found


def test_only_fields_imports_fractions():
    # A coefficient has one exact form, and only `fields` makes Fractions.
    importers = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "fractions"):
                importers.add(path.name)
    assert importers == {"fields.py"}


def test_package_imports_are_acyclic():
    graph = {}
    for path in MODULES:
        deps = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # `from . import name` reads a submodule, or else the package.
                names = [node.module] if node.module else [
                    a.name if (SRC / f"{a.name}.py").exists() else "__init__" for a in node.names]
                deps.update(names)
        graph[path.stem] = deps
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None


def test_module_top_imports_are_used():
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in ("annotations", "*"):
                        bound[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]
    assert not unused

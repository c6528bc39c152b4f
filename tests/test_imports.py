"""Module structure: imports sit at module top, the package's modules
import each other without cycles, and importing the package loads neither
`dataclasses` nor `inspect`."""

import ast
import json
import os
import subprocess
import sys
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


def test_no_module_imports_dataclasses():
    # Records derive from `record.Record`: the dataclass decorator and the
    # modules `dataclasses` pulls in cost a large share of the import.
    importers = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"):
                importers.add(path.name)
    assert not importers


# Prints the modules that importing the package and its command adds.
NEW_MODULES = """
import json, sys
before = set(sys.modules)
import ladderdet, ladderdet.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    out = subprocess.run([sys.executable, "-c", NEW_MODULES], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout
    added = set(json.loads(out))
    assert "ladderdet.cli" in added
    assert not added & {"dataclasses", "inspect"}


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

"""Source rules for the package: formula and task nodes are dispatched by
type, never by `hasattr`; no module keeps `global` mutable state; every
import sits at module level, where the import graph is visible; and every
name a module imports is used there."""

import ast

import pytest

from conftest import ROOT

SOURCES = sorted((ROOT / "src" / "robovalid").glob("*.py"))


def violations(source: str) -> list[str]:
    tree = ast.parse(source)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            out.append("line %d: global statement" % node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "hasattr"):
            out.append("line %d: hasattr call" % node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    out.append("line %d: import inside a function" % inner.lineno)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    out.append("line %d: unused import %s" % (node.lineno, name))
    return sorted(set(out))


def test_rules_catch_each_violation():
    source = (
        "import os\n"
        "from os import path as p, sep\n"
        "def f(x):\n"
        "    global counter\n"
        "    from . import logic\n"
        "    return hasattr(x, 'left') or os.name or sep\n")
    assert violations(source) == ["line 2: unused import p",
                                  "line 4: global statement",
                                  "line 5: import inside a function",
                                  "line 6: hasattr call"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_source_follows_rules(path):
    assert violations(path.read_text()) == []

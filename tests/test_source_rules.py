"""Source rules for the package: formula and task nodes are dispatched by
type, never by `hasattr`; no module keeps `global` mutable state; every
import sits at module level, where the import graph is visible; every
name a module imports is used there; and every module-level function or
class, and every method that is not a dunder, is named somewhere in the
package, the tests or the benchmark."""

import ast

import pytest

from conftest import ROOT

SOURCES = sorted((ROOT / "src" / "robovalid").glob("*.py"))
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def named(tree: ast.AST) -> set[str]:
    """The identifiers a module names: variables, attributes, imported
    names, and strings that are one identifier, since the benchmark looks
    functions up by name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out.add(node.value)
    return out


def definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods of those classes
    other than dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item


def violations(source: str, elsewhere: frozenset[str] = frozenset()) -> list[str]:
    """Rule breaches in `source`; `elsewhere` holds the identifiers that
    other modules name."""
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
    known = named(tree) | elsewhere
    for node in definitions(tree):
        if node.name not in known:
            out.append("line %d: %s is named nowhere else" % (node.lineno, node.name))
    return sorted(set(out))


def test_rules_catch_each_violation():
    source = (
        "import os\n"
        "from os import path as p, sep\n"
        "def f(x):\n"
        "    global counter\n"
        "    from . import logic\n"
        "    return hasattr(x, 'left') or os.name or sep\n"
        "class K:\n"
        "    def __init__(self):\n"
        "        self.v = f(self)\n"
        "    def dead(self):\n"
        "        return K\n")
    assert violations(source) == ["line 10: dead is named nowhere else",
                                  "line 2: unused import p",
                                  "line 4: global statement",
                                  "line 5: import inside a function",
                                  "line 6: hasattr call"]


@pytest.fixture(scope="module")
def names_by_file():
    return {p: named(ast.parse(p.read_text())) for p in READERS}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_source_follows_rules(path, names_by_file):
    elsewhere = frozenset().union(*(n for p, n in names_by_file.items() if p != path))
    assert violations(path.read_text(), elsewhere) == []

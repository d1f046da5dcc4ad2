"""Source rules for the package: formula and task nodes are dispatched by
type, never by `hasattr`; no module keeps `global` mutable state; every
import sits at module level, where the import graph is visible; no module
imports another's private (underscored) name; every name a module
imports is used there; and every module-level function or
class, and every method that is not a dunder, is named somewhere in the
package, the tests or the benchmark.  A name loaded inside a function
that binds it itself, as a parameter or a local variable, is not a use."""

import ast

import pytest

from conftest import ROOT

SOURCES = sorted((ROOT / "src" / "robovalid").glob("*.py"))
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp,
           ast.SetComp, ast.DictComp, ast.GeneratorExp)


def scope_nodes(scope: ast.AST):
    """The nodes of a module, function or comprehension, without looking
    inside the functions and comprehensions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def local_names(scope: ast.AST) -> set[str]:
    """The names a function or comprehension binds: its parameters, the
    names it assigns and the functions and classes it defines."""
    out = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        out = {a.arg for a in ast.walk(scope.args) if isinstance(a, ast.arg)}
    shared = set()
    for node in scope_nodes(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Nonlocal, ast.Global)):
            shared.update(node.names)
    return out - shared


def loaded_names(tree: ast.AST) -> set[str]:
    """The names a module loads where no enclosing function or
    comprehension binds them: a function's local variable or parameter
    named like another module's function is not a use of it."""
    out = set()

    def visit(scope, bound):
        for node in scope_nodes(scope):
            if (isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
                    and node.id not in bound):
                out.add(node.id)
            elif isinstance(node, _SCOPES):
                visit(node, bound | local_names(node))

    visit(tree, frozenset())
    return out


def named(tree: ast.AST) -> set[str]:
    """The identifiers a module names: the names it loads, attributes,
    imported names, and strings that are one identifier, since the
    benchmark looks functions up by name."""
    out = loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
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
    used = loaded_names(tree)
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, ast.ImportFrom) and node.level:
            out.extend("line %d: private import %s" % (node.lineno, alias.name)
                       for alias in node.names if alias.name.startswith("_"))
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
    # `atoms` is loaded only where a parameter or a local variable of the
    # same name binds it, so the module-level `atoms` is named nowhere
    source = (
        "import os\n"
        "from os import path as p, sep\n"
        "def f(x):\n"
        "    global counter\n"
        "    from . import logic\n"
        "    return hasattr(x, 'left') or os.name or sep\n"
        "class K:\n"
        "    def __init__(self):\n"
        "        self.v = f(self), worlds()\n"
        "    def dead(self):\n"
        "        return K\n"
        "def atoms(phi):\n"
        "    return phi\n"
        "def walk(phi, atoms):\n"
        "    return [atoms(x) for x in phi]\n"
        "def worlds():\n"
        "    atoms = walk((), lambda atoms: atoms)\n"
        "    return atoms\n"
        "from .logic import _TokenStream\n"
        "print(_TokenStream)\n")
    assert violations(source) == ["line 10: dead is named nowhere else",
                                  "line 12: atoms is named nowhere else",
                                  "line 19: private import _TokenStream",
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

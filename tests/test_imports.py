"""No module of the package imports a name it never uses, and no
module-level private name is left without a reference."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "voxfact"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_finder_sees_unused_and_used_names():
    src = ("from __future__ import annotations\n"
           "import os, json as js\nfrom a.b import c, d as e\n"
           "def f(x: js.Any) -> None:\n    return os.path, e\n")
    assert _unused_imports(src) == [(3, "c")]


def _private_defs(tree):
    """{name: defining statement} of the module-level private names."""
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        out.update((n, stmt) for n in names
                   if n.startswith("_") and not n.startswith("__"))
    return out


def _references(node):
    """Names a statement reads: variables, attributes and imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def _unreferenced_privates(sources):
    """Sorted (module, name) of module-level private names that no
    top-level statement of any of the sources reads, other than the
    statement defining the name (so a recursive helper with no other
    caller counts as unreferenced)."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    stmts = [(stmt, _references(stmt)) for tree in trees.values()
             for stmt in tree.body]
    return sorted((mod, name) for mod, tree in trees.items()
                  for name, own in _private_defs(tree).items()
                  if not any(name in refs for stmt, refs in stmts
                             if stmt is not own))


def test_no_unreferenced_private_names():
    assert _unreferenced_privates(
        {p.name: p.read_text() for p in PACKAGE}) == []


def test_finder_sees_unreferenced_private_names():
    sources = {
        "a.py": ("_LIMIT = 3\n_SEEN: dict = {}\n"
                 "def _rec(n):\n    return _rec(n - 1) if n else 0\n"
                 "def _used():\n    return _LIMIT\n"
                 "class _Dead:\n    pass\n"
                 "def public():\n    return _used()\n"),
        "b.py": "from .a import _SEEN\n",
    }
    assert _unreferenced_privates(sources) == [("a.py", "_Dead"),
                                               ("a.py", "_rec")]

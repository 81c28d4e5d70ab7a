"""No module of the package imports a name it never uses, no function
outside a class takes a parameter it never reads, no module-level function
keeps a process-wide cache that is not listed with its reason, no
module-level private name is left without a reference, no public
module-level function or class goes unnamed in the package, its tests, its
scripts and its benchmark, and importing the package loads no heavy
standard module."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "voxfact"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))
READERS = sorted(p for d in ("src", "tests", "scripts", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))


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


def _unread_parameters(source: str):
    """Sorted (function, parameter) of the parameters that a function
    defined outside a class never reads in its body; a method may take a
    parameter for its interface alone, so methods are left out."""
    tree = ast.parse(source)
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and id(node) not in methods:
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args,
                                      *a.kwonlyargs, a.vararg, a.kwarg) if p]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            out.extend((node.name, p) for p in params if p not in read)
    return sorted(out)


# (module, function, parameter) allowed to go unread, with the reason
UNREAD_PARAMETERS = {
    # perfbench/workloads.py passes it; the benchmark catch-up in
    # ROADMAP.md removes it
    ("mu.py", "mu_numeric", "tol"),
}


def test_no_unread_parameters():
    found = {(p.name, *f) for p in PACKAGE
             for f in _unread_parameters(p.read_text())}
    assert found == UNREAD_PARAMETERS


def test_finder_sees_unread_parameters():
    src = ("def f(a, b=1, *args, c, **kw):\n"
           "    def inner(x, y):\n        return a + x\n"
           "    return inner(c, kw)\n"
           "class K:\n    def method(self, unused):\n        return 0\n"
           "def g(n):\n    n += 1\n    return 0\n")
    assert _unread_parameters(src) == [("f", "args"), ("f", "b"),
                                       ("g", "n"), ("inner", "y")]


def _process_wide_caches(source: str):
    """Sorted names of the module-level functions decorated with `cache` or
    `lru_cache`, by bare name or as an attribute, called or not."""
    out = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in stmt.decorator_list:
                d = d.func if isinstance(d, ast.Call) else d
                name = d.attr if isinstance(d, ast.Attribute) \
                    else getattr(d, "id", None)
                if name in ("cache", "lru_cache"):
                    out.append(stmt.name)
    return sorted(out)


# (module, function) allowed a cache that lives as long as the process,
# with the measurement that keeps it; every other memo is a table of a
# preset's store, which `presets.clear_caches` empties
PROCESS_WIDE_CACHES = {
    # 3,035 hits on 46 entries in a mode_cold round (seed 7)
    ("presets.py", "_row"),
}


def test_process_wide_caches_are_listed():
    found = {(p.name, f) for p in PACKAGE
             for f in _process_wide_caches(p.read_text())}
    assert found == PROCESS_WIDE_CACHES


def test_finder_sees_process_wide_caches():
    src = ("import functools\nfrom functools import cache, lru_cache\n"
           "@cache\ndef a(n):\n    return n\n"
           "@lru_cache(maxsize=None)\ndef b(n):\n    return n\n"
           "@functools.lru_cache(maxsize=8)\ndef c(n):\n    return n\n"
           "@functools.cache\ndef d(n):\n    return n\n"
           "@staticmethod\ndef e(n):\n    return n\n"
           "class K:\n    @cache\n    def method(self):\n        return 0\n"
           "def outer():\n    @cache\n    def inner():\n        return 0\n"
           "    return inner\n")
    # a method or a nested function is not module-level
    assert _process_wide_caches(src) == ["a", "b", "c", "d"]


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


def _public_defs(tree):
    """{name: defining statement} of the module-level public functions and
    classes."""
    return {stmt.name: stmt for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")}


def _unreferenced(defs, sources, readers=()):
    """Sorted (module, name) of the names ``defs`` finds in the sources
    that no top-level statement of the sources or of the readers reads,
    other than the statement defining the name (so a recursive function
    with no other caller counts as unreferenced)."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    stmts = [(stmt, _references(stmt))
             for tree in [*trees.values(), *map(ast.parse, readers)]
             for stmt in tree.body]
    return sorted((mod, name) for mod, tree in trees.items()
                  for name, own in defs(tree).items()
                  if not any(name in refs for stmt, refs in stmts
                             if stmt is not own))


def _unreferenced_privates(sources):
    return _unreferenced(_private_defs, sources)


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


def test_no_unnamed_public_functions_or_classes():
    package = {p.name: p.read_text() for p in PACKAGE}
    readers = [p.read_text() for p in READERS if p.parent != SRC]
    assert _unreferenced(_public_defs, package, readers) == []


def test_finder_sees_unnamed_public_names():
    sources = {
        "a.py": ("LIMIT = 3\n"
                 "def walk(n):\n    return walk(n - 1) if n else 0\n"
                 "def helper():\n    return LIMIT\n"
                 "def called():\n    return helper()\n"
                 "class Dead:\n    def method(self):\n        pass\n"
                 "def _private():\n    pass\n"),
        "b.py": "from .a import called\n",
    }
    readers = ["import a\na.Dead.method\n"]
    # only module-level functions and classes count: LIMIT, a method and
    # a private name are left to the other checks
    assert _unreferenced(_public_defs, sources) == [("a.py", "Dead"),
                                                    ("a.py", "walk")]
    assert _unreferenced(_public_defs, sources, readers) == [("a.py", "walk")]


# each costs memory in every process that imports the package; dataclasses
# alone pulls in inspect, ast, dis, tokenize, linecache and copy
HEAVY_MODULES = ("dataclasses", "inspect")


def _added_modules(statement: str) -> set:
    """Modules a fresh interpreter loads to run ``statement``, with the
    package importable from ``src/``."""
    code = ("import sys\nbefore = set(sys.modules)\n" + statement
            + "\nprint('\\n'.join(sorted(set(sys.modules) - before)))\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    return set(out.split())


def test_package_import_loads_no_heavy_module():
    added = _added_modules("import voxfact")
    assert "voxfact.scalars" in added
    assert sorted(added.intersection(HEAVY_MODULES)) == []


def test_import_finder_sees_heavy_modules():
    assert set(HEAVY_MODULES) <= _added_modules("import dataclasses")

"""Every import and every private name in the package is used.

Static checks with ``ast`` alone, so they run wherever the tests run: a
name a module imports must be read somewhere in that module, or be
listed in its ``__all__``; and a private name defined at module level or
in a class body (a helper, a constant, a method) must be read somewhere
in the package, so a deleted copy of a kernel leaves no orphan behind.
"""

import ast
from pathlib import Path

import pytest

import euclidlab

MODULES = sorted(Path(euclidlab.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, isqrt\n"
                          "print(isqrt(4))\n") == ["line 1: os", "line 2: gcd"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_orphans(sources: dict[str, str]) -> list[str]:
    """``module:line: name`` for each private module-level or class-body
    name that no module of ``sources`` reads, by name or as an
    attribute.  Dunder names are exempt."""
    defined = {}
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        scopes = [tree.body] + [node.body for node in tree.body
                                if isinstance(node, ast.ClassDef)]
        for node in (node for body in scopes for node in body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.setdefault(name, f"{module}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{where}: {name}" for name, where in defined.items()
                  if name not in read)


def test_the_check_sees_a_private_orphan():
    sources = {"a.py": "_USED = 1\n_ORPHAN = 2\n"
                       "class K:\n    _LIMIT = 3\n"
                       "    def _kept(self): return _USED\n"
                       "    def _dropped(self): return self._LIMIT\n",
               "b.py": "def _helper(k): return k._kept()\n"
                       "def _unread(): return _helper(None)\n"}
    assert private_orphans(sources) == [
        "a.py:2: _ORPHAN", "a.py:6: _dropped", "b.py:2: _unread"]


def test_package_reads_every_private_name():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert private_orphans(sources) == []

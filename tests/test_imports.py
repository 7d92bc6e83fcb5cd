"""Every import in the package is used.

A static check with ``ast`` alone, so it runs wherever the tests run: a
name a module imports must be read somewhere in that module, or be
listed in its ``__all__``.
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

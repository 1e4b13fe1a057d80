"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cubiclifford"


def unused_imports(source):
    """Names bound by import statements that the module never loads,
    excluding names it re-exports through ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= {e.value for e in node.value.elts}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in loaded and name not in exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scanner_flags_unused_names():
    source = ("import os\nimport os.path as osp\nfrom .a import b, c\n"
              "from __future__ import annotations\n__all__ = ['c']\n"
              "print(osp.join)\n")
    assert unused_imports(source) == [(1, "os"), (3, "b")]

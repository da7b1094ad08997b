"""Every import in ``src/`` and ``tests/`` is used.

A name an import binds must be read somewhere in its module, or be listed in
the module's ``__all__``.  Re-exports in ``__init__.py`` and ``from
__future__`` imports are exempt.  The scan reads each file's syntax tree and
imports nothing.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and neither reads nor lists in
    ``__all__``."""
    tree = ast.parse(source)
    imported = []
    exported: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read | exported]


def test_scan_flags_a_stray_import():
    assert unused_imports("import os\nimport numpy as np\nfrom math import pi, tau\nnp.sqrt(pi)\n") == ["os", "tau"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

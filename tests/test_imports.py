"""Every import in ``src/`` and ``tests/`` is used, and only ``matnorm``
decomposes a matrix.

A name an import binds must be read somewhere in its module, or be listed in
the module's ``__all__``.  Re-exports in ``__init__.py`` and ``from
__future__`` imports are exempt.  Of the modules of ``src/``, only
``matnorm.py`` names the ``numpy.linalg`` decompositions ``svd``, ``eigh``
and ``eigvalsh``.  The scans read each file's syntax tree and import
nothing.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")
DECOMPOSITIONS = {"svd", "eigh", "eigvalsh"}


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


def decompositions(source: str) -> list[str]:
    """The ``numpy.linalg`` decompositions that ``source`` names, sorted:
    attributes of ``np.linalg`` or of a name bound to ``numpy.linalg``, and
    names imported from it."""
    tree = ast.parse(source)
    linalg = {"linalg"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            linalg |= {a.asname for a in node.names if a.name == "numpy.linalg" and a.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            linalg |= {a.asname or a.name for a in node.names if a.name == "linalg"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in DECOMPOSITIONS:
            base = node.value
            if (isinstance(base, ast.Name) and base.id in linalg) or (isinstance(base, ast.Attribute) and base.attr == "linalg"):
                found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [a.name for a in node.names if a.name in DECOMPOSITIONS]
    return sorted(found)


def test_scan_finds_a_decomposition():
    source = "import numpy as np\nnp.linalg.svd(m)\nnp.linalg.qr(m)\nerr = np.linalg.LinAlgError\n"
    assert decompositions(source) == ["svd"]
    assert decompositions("from numpy import linalg as la\nla.eigh(m)\n") == ["eigh"]
    assert decompositions("import numpy.linalg as nl\nnl.eigvalsh(m)\n") == ["eigvalsh"]
    assert decompositions("from numpy.linalg import eigh, qr\n") == ["eigh"]


def test_only_matnorm_decomposes_a_matrix():
    # the sampler's QR draws a Haar unitary and decomposes nothing a map reads
    sources = sorted((ROOT / "src").rglob("*.py"))
    found = {str(p.relative_to(ROOT)): decompositions(p.read_text(encoding="utf-8")) for p in sources}
    assert {path for path, names in found.items() if names} == {"src/spectral_mazur/matnorm.py"}

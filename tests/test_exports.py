"""Exported names: every ``__all__`` entry resolves, the package root
re-exports the very objects its submodules define, and every exported
function has a caller.

The benchmark's tracer (``perfbench/spans.py``) wraps every function named
in a traced module's ``__all__``, so a name left behind by a deletion would
break every traced run.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import spectral_mazur

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(spectral_mazur.__path__, "spectral_mazur.")
    if not info.name.endswith("__main__")  # importing it runs the CLI
)
EXPORTING = ["spectral_mazur"] + [
    name for name in MODULES if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("modname", EXPORTING)
def test_every_exported_name_resolves(modname):
    module = importlib.import_module(modname)
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{modname}.__all__ names what it lacks: {missing}"


@pytest.mark.parametrize("modname", EXPORTING[1:])
def test_root_reexports_the_same_objects(modname):
    module = importlib.import_module(modname)
    shared = set(module.__all__) & set(spectral_mazur.__all__)
    differ = [name for name in sorted(shared) if getattr(spectral_mazur, name) is not getattr(module, name)]
    assert not differ, f"spectral_mazur and {modname} export different objects as {differ}"


# Exported functions that no code of the package or the benchmark loads: each
# stays for a reason of its own, and leaves this list once it has a caller.
UNCALLED = {
    "singular_values",  # the spectrum every unitarily invariant norm reads
    "matrix_from_json",  # the decoder half of read_matrix, for JSON already in memory
    "write_matrix",  # the one writer of the CLI's matrix files
    "duality_map_mat",  # kept until the entropy map's API settles
    "entropy_min_seq",  # likewise; perfbench/spans.py names it in a span
}

ROOT = Path(__file__).resolve().parents[1]
# a re-export in an ``__init__.py`` is not a caller
CALLING = sorted(p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py") + sorted((ROOT / "perfbench").glob("*.py"))


def _loaded(tree) -> set[str]:
    """The names and attributes that ``tree`` reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _exported_functions(tree) -> set[str]:
    """The top-level functions that ``tree`` lists in its ``__all__``."""
    exported: set[str] = set()
    defined = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return exported & defined


def test_every_exported_function_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLING}
    loaded = {path: _loaded(tree) for path, tree in trees.items()}
    uncalled = set()
    for path, tree in trees.items():
        if path.is_relative_to(ROOT / "src"):
            elsewhere = set().union(*(names for other, names in loaded.items() if other != path))
            uncalled |= _exported_functions(tree) - elsewhere
    assert uncalled == UNCALLED

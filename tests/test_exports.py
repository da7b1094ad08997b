"""Exported names: every ``__all__`` entry resolves, and the package root
re-exports the very objects its submodules define.

The benchmark's tracer (``perfbench/spans.py``) wraps every function named
in a traced module's ``__all__``, so a name left behind by a deletion would
break every traced run.
"""

import importlib
import pkgutil

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

"""Process set-up shared by the benchmark's entry points.

Call :func:`setup` before anything imports numpy: it pins BLAS to one
thread, makes the checkout root the working directory and puts the
checkout's ``src/`` first on the import path.  The package is pure Python,
so building it from source is importing it from there.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def setup() -> None:
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    os.chdir(ROOT)
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def require_package() -> None:
    """Exit with code 2 unless spectral_mazur imports from this checkout."""
    try:
        import spectral_mazur
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import spectral_mazur from {SRC}: {exc}")
    origin = Path(spectral_mazur.__file__).resolve()
    if SRC not in origin.parents:
        sys.exit(f"perfbench: spectral_mazur resolved to {origin}, not under {SRC}")

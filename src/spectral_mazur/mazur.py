"""Noncommutative Mazur maps between unit spheres of spectral norms.

The forward map raises the modulus to the ``p``-th power while keeping the
angular part: ``A = u |A|  ->  u |A|^p``.  It carries the unit sphere of the
norm built from the p-convexified gauge onto the unit sphere of the base
gauge's norm; the inverse applies the ``1/p`` power.  On self-adjoint
matrices both act as sign-preserving powers of the eigenvalues.

The map is the same for every unitarily invariant norm: the base gauge only
names the two spheres it connects, so both directions take the exponent
``p`` alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GaugeParseError
from .gauge import _check_exponent
from .matnorm import _svd_powers

__all__ = ["mazur_forward", "mazur_inverse"]


def _check_power(p) -> float:
    """The exponent as a float, when it is finite and ``>= 1``."""
    p = _check_exponent(p)
    if math.isinf(p):
        raise GaugeParseError(f"Mazur map exponent must be finite, got {p}")
    return p


def mazur_forward(a, p) -> np.ndarray:
    """Apply ``A = u|A| -> u |A|^p`` for a finite ``p >= 1``."""
    return _svd_powers(a, (_check_power(p),))[0]


def mazur_inverse(b, p) -> np.ndarray:
    """Apply ``B = v|B| -> v |B|^(1/p)``, the inverse of the forward map."""
    return _svd_powers(b, (1.0 / _check_power(p),))[0]


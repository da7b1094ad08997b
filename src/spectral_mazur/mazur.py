"""Noncommutative Mazur maps between unit spheres of spectral norms.

The forward map raises the modulus to the ``p``-th power while keeping the
angular part: ``A = u |A|  ->  u |A|^p``.  It carries the unit sphere of the
norm built from the p-convexified gauge onto the unit sphere of the base
gauge's norm; the inverse applies the ``1/p`` power.  On self-adjoint
matrices both act as sign-preserving powers of the eigenvalues.

The map is the same for every unitarily invariant norm: the base gauge only
names the two spheres it connects, so both directions take the exponent
``p`` alone.

Two block constructions live here as well, library tools checked by
``tests/test_mazur.py``: ``tilde_selfadjoint`` embeds an arbitrary matrix into
a self-adjoint one of twice the size (doubling each singular value), and
``tilde_pair`` packages a pair into a block-diagonal matrix plus the corner
matrix whose commutators select differences.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, GaugeParseError, NumericalFailure
from .gauge import _check_exponent
from .matnorm import as_matrix

__all__ = [
    "mazur_forward",
    "mazur_inverse",
    "tilde_selfadjoint",
    "tilde_pair",
]


def _check_power(p) -> float:
    """The exponent as a float, when it is finite and ``>= 1``."""
    p = _check_exponent(p)
    if math.isinf(p):
        raise GaugeParseError(f"Mazur map exponent must be finite, got {p}")
    return p


def _svd_powers(a, exponents) -> list[np.ndarray]:
    """``u |a|^e`` for each exponent ``e``, computed as ``U diag(s^e) V†`` from one SVD.

    Equal to composing the polar decomposition with a PSD power: the polar
    isometry differs from the full unitary only off the support of ``|a|``,
    where ``|a|^e`` vanishes, so the value is unchanged.  Powering the
    singular values directly keeps tiny ones at full relative accuracy, which
    the forward/inverse roundtrip depends on.  Every power reads the same
    decomposition, so each gets the bits a call with it alone would give.
    Powers that overflow, and singular values the SVD could not represent,
    raise :class:`NumericalFailure` before any product is formed.
    """
    m = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailure(f"SVD failed: {exc}") from exc
    with np.errstate(over="ignore"):
        powers = [s**e for e in exponents]
    for e, x in zip(exponents, powers):
        if not np.isfinite(x).all():
            raise NumericalFailure(f"power {e!r} of the largest singular value {float(s[0])!r} is not finite")
    return [(u * x) @ vh for x in powers]


def mazur_forward(a, p) -> np.ndarray:
    """Apply ``A = u|A| -> u |A|^p`` for a finite ``p >= 1``."""
    return _svd_powers(a, (_check_power(p),))[0]


def mazur_inverse(b, p) -> np.ndarray:
    """Apply ``B = v|B| -> v |B|^(1/p)``, the inverse of the forward map."""
    return _svd_powers(b, (1.0 / _check_power(p),))[0]


def tilde_selfadjoint(x) -> np.ndarray:
    """Self-adjoint embedding ``[[0, x], [x†, 0]]`` of an arbitrary matrix.

    Its singular values are those of ``x``, each repeated twice, so
    ``‖x‖ <= ‖x~‖ <= 2 ‖x‖`` in every unitarily invariant norm.
    """
    m = as_matrix(x)
    n = m.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    out[:n, n:] = m
    out[n:, :n] = m.conj().T
    return out


def tilde_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Block pair ``(diag(x, y), [[0, I], [0, 0]])`` for commutator tricks.

    With ``(X, B)`` the returned pair, ``[X, B] = [[0, x - y], [0, 0]]``:
    commutators against ``B`` turn block-diagonal differences into corner
    blocks with the same singular values, so ``‖[X, B]‖ = ‖x - y‖`` in every
    unitarily invariant norm (and likewise after applying any spectral map
    to ``X``, which acts blockwise).
    """
    mx = as_matrix(x)
    my = as_matrix(y)
    if mx.shape != my.shape:
        raise DimensionMismatch(f"block pair needs equal shapes, got {mx.shape} vs {my.shape}")
    n = mx.shape[0]
    big = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    big[:n, :n] = mx
    big[n:, n:] = my
    corner = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    corner[:n, n:] = np.eye(n)
    return big, corner

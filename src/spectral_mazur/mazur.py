"""Noncommutative Mazur maps between unit spheres of spectral norms.

The forward map raises the modulus to the ``p``-th power while keeping the
angular part: ``A = u |A|  ->  u |A|^p``.  It carries the unit sphere of the
norm built from the p-convexified gauge onto the unit sphere of the base
gauge's norm; the inverse applies the ``1/p`` power.  On self-adjoint
matrices both act as sign-preserving powers of the eigenvalues.

Two block constructions used throughout the verification harness live here
as well: ``tilde_selfadjoint`` embeds an arbitrary matrix into a self-adjoint
one of twice the size (doubling each singular value), and ``tilde_pair``
packages a pair into a block-diagonal matrix plus the corner matrix whose
commutators select differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GaugeParseError, NumericalFailure
from .gauge import Gauge, _check_exponent
from .matnorm import as_matrix

__all__ = [
    "MazurParams",
    "mazur_forward",
    "mazur_inverse",
    "tilde_selfadjoint",
    "tilde_pair",
]


@dataclass(frozen=True)
class MazurParams:
    """Base gauge and finite exponent ``p >= 1`` selecting a Mazur map."""

    gauge: Gauge
    p: float

    def __post_init__(self):
        if not isinstance(self.gauge, Gauge):
            raise GaugeParseError(f"gauge must be a descriptor, got {self.gauge!r}")
        p = _check_exponent(self.p)
        if math.isinf(p):
            raise GaugeParseError(f"Mazur map exponent must be finite, got {p}")
        object.__setattr__(self, "p", p)


def _svd_power(a, p: float) -> np.ndarray:
    """``u |a|^p`` computed as ``U diag(s^p) V†`` from one SVD.

    Equal to composing the polar decomposition with a PSD power: the polar
    isometry differs from the full unitary only off the support of ``|a|``,
    where ``|a|^p`` vanishes, so the value is unchanged.  Powering the
    singular values directly keeps tiny ones at full relative accuracy, which
    the forward/inverse roundtrip depends on.
    """
    m = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailure(f"SVD failed: {exc}") from exc
    return (u * s**p) @ vh


def mazur_forward(mp: MazurParams, a) -> np.ndarray:
    """Apply ``A = u|A| -> u |A|^p``."""
    return _svd_power(a, float(mp.p))


def mazur_inverse(mp: MazurParams, b) -> np.ndarray:
    """Apply ``B = v|B| -> v |B|^(1/p)``, the inverse of the forward map."""
    return _svd_power(b, 1.0 / float(mp.p))


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

"""Unitarily invariant matrix norms and spectral matrix operations.

A gauge from :mod:`spectral_mazur.gauge` applied to the singular value vector
of a complex square matrix defines a unitarily invariant norm.  This module
hosts the spectral machinery those norms need: singular values, the polar
decomposition with a partial-isometry convention, real powers of positive
semidefinite matrices, and the matrix duality map obtained by conjugating the
sequence-level map into the eigenbasis of ``|A|``.

Matrices are plain ``numpy`` arrays of shape ``(n, n)`` and dtype complex.
The JSON wire format is ``{"dim": n, "data": [[[re, im], ...], ...]}`` with
row-major entries; floats are written in shortest round-trip form, so a
write/read cycle is bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    MatrixFormatError,
    NotPositive,
    NumericalFailure,
    ZeroMatrix,
)
from .gauge import Gauge, duality_map_seq, eval_gauge

__all__ = [
    "PolarParts",
    "as_matrix",
    "singular_values",
    "norm_ui",
    "op_norm",
    "trace_norm",
    "polar",
    "matrix_power",
    "duality_map_mat",
    "eigh_psd",
    "matrix_to_json",
    "matrix_from_json",
    "write_matrix",
    "read_matrix",
]

_EPS = float(np.finfo(np.float64).eps)


def as_matrix(a) -> np.ndarray:
    """Validate and convert to a square complex matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise MatrixFormatError(f"expected a square matrix, got shape {m.shape}")
    return _as_matrices(m)


def _as_matrices(a) -> np.ndarray:
    """Validate and convert to a square complex matrix or a stack ``(..., n, n)``."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise MatrixFormatError(f"expected a square matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise MatrixFormatError("matrix contains NaN or Inf")
    return m


def _adj(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _first(values, mask) -> float:
    """The first of ``values`` where ``mask`` holds, for an error message."""
    return float(np.asarray(values)[np.asarray(mask)].flat[0])


def singular_values(a) -> np.ndarray:
    """Singular values in descending order (always nonnegative)."""
    m = as_matrix(a)
    try:
        s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK hiccup
        raise NumericalFailure(f"SVD failed: {exc}") from exc
    return np.clip(s, 0.0, None)


def norm_ui(g: Gauge, a) -> float:
    """Unitarily invariant norm: the gauge evaluated on the singular values."""
    return eval_gauge(g, singular_values(a))


def op_norm(a) -> float:
    """Largest singular value."""
    return float(singular_values(a)[0])


def trace_norm(a) -> float:
    """Sum of singular values."""
    return float(singular_values(a).sum())


@dataclass(frozen=True)
class PolarParts:
    """Polar decomposition ``a = isometry @ modulus``.

    ``isometry`` is a partial isometry vanishing on ``ker(modulus)`` (so
    ``isometry† @ isometry`` is the projection onto the support of
    ``modulus``), and ``modulus = (a† a)^(1/2)`` is PSD.
    """

    isometry: np.ndarray
    modulus: np.ndarray


def polar(a) -> PolarParts:
    """Polar decomposition via the SVD.

    With ``a = U diag(s) V†``, the modulus is ``V diag(s) V†`` and the
    partial isometry is ``U_r V_r†`` restricted to singular values above the
    numerical rank cutoff ``n * eps * s_max``.
    """
    m = as_matrix(a)
    n = m.shape[0]
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailure(f"SVD failed: {exc}") from exc
    modulus = (vh.conj().T * s) @ vh
    modulus = 0.5 * (modulus + modulus.conj().T)
    cutoff = n * _EPS * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    isometry = u[:, :rank] @ vh[:rank, :]
    return PolarParts(isometry=isometry, modulus=modulus)


def eigh_psd(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a PSD matrix with a clamped spectrum.

    Hermiticity is enforced up to round-off; eigenvalues in
    ``[-n * eps * lam_max, 0)`` are clamped to 0, anything more
    negative raises :class:`NotPositive`.  Returns ``(lam, w)`` with ``lam``
    ascending.
    """
    return _eigh_psd(as_matrix(a))


def _eigh_psd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`eigh_psd` of a validated matrix or stack, each matrix checked
    against its own scale; one ``eigh`` call for the whole stack."""
    n = m.shape[-1]
    mh = _adj(m)
    herm_err = np.abs(m - mh).max(axis=(-2, -1))
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    bad = herm_err > 1e-10 * scale
    if bad.any():
        raise NotPositive(f"matrix is not Hermitian (asymmetry {_first(herm_err, bad):.3e})")
    try:
        lam, w = np.linalg.eigh(0.5 * (m + mh))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailure(f"eigh failed: {exc}") from exc
    lam_max = np.where(lam[..., -1] > 0, lam[..., -1], 0.0)
    low = lam[..., 0] < -n * _EPS * lam_max - 10 * _EPS * scale
    if low.any():
        raise NotPositive(f"matrix has negative eigenvalue {_first(lam[..., 0], low):.3e}")
    return np.clip(lam, 0.0, None), w


def matrix_power(a, p: float) -> np.ndarray:
    """Real power ``a^p`` of a PSD matrix, computed spectrally (``p > 0``).

    The convention ``0^p = 0`` keeps powers of singular matrices PSD; the
    clamp tolerance of :func:`eigh_psd` decides what counts as zero.
    """
    if not p > 0:
        raise NotPositive(f"matrix power needs p > 0, got {p}")
    lam, w = eigh_psd(a)
    powered = (w * lam**float(p)) @ w.conj().T
    return 0.5 * (powered + powered.conj().T)


def duality_map_mat(g: Gauge, a) -> np.ndarray:
    """Matrix duality map for a smooth gauge at ``a != 0``.

    For PSD ``a`` the sequence map is applied to the eigenvalues inside the
    eigenbasis; a general ``a = u |a|`` maps to ``J(|a|) u†``.  The result
    ``J`` satisfies ``Re tr(J a) = ‖a‖²`` and ``‖J‖_dual = ‖a‖`` for the
    trace pairing ``(J, a) -> tr(J a)``.  ``a`` is decomposed once, as
    :func:`_psd_or_polar` does.
    """
    m = as_matrix(a)
    if not np.any(np.abs(m) > 0.0):
        raise ZeroMatrix("duality map undefined at the zero matrix")
    lam, w, isometry = _psd_or_polar(m)
    j = (w * duality_map_seq(g, lam)) @ w.conj().T
    j = 0.5 * (j + j.conj().T)
    return j if isometry is None else j @ isometry.conj().T


def _psd_or_polar(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(lam, w, isometry)`` for a validated matrix: the spectral parts of
    ``m`` itself when it is PSD (one ``eigh``, ``isometry`` is None), and
    otherwise those of its polar modulus with the partial isometry of
    ``m = isometry @ modulus`` (the polar SVD and one ``eigh``).

    ``lam`` are the singular values of ``m`` either way; what counts as PSD
    is what :func:`eigh_psd` accepts.
    """
    try:
        lam, w = _eigh_psd(m)
        return lam, w, None
    except NotPositive:
        parts = polar(m)
        lam, w = _eigh_psd(parts.modulus)
        return lam, w, parts.isometry


# ---------------------------------------------------------------------------
# JSON wire format


def matrix_to_json(a) -> dict:
    """Encode as ``{"dim": n, "data": [[[re, im], ...], ...]}``."""
    m = as_matrix(a)
    n = m.shape[0]
    data = [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(n)] for i in range(n)]
    return {"dim": n, "data": data}


def matrix_from_json(obj) -> np.ndarray:
    """Decode the wire format (also accepts artifacts with a "matrix" key)."""
    if isinstance(obj, dict) and "matrix" in obj and "dim" not in obj:
        obj = obj["matrix"]
    if not isinstance(obj, dict) or "dim" not in obj or "data" not in obj:
        raise MatrixFormatError("matrix JSON must have 'dim' and 'data' fields")
    n = obj["dim"]
    data = obj["data"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MatrixFormatError(f"bad matrix dimension {n!r}")
    if not isinstance(data, list) or len(data) != n:
        raise MatrixFormatError("matrix data does not match 'dim'")
    out = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixFormatError(f"row {i} does not have {n} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            ):
                raise MatrixFormatError(f"entry ({i},{j}) is not an [re, im] pair")
            out[i, j] = complex(entry[0], entry[1])
    return as_matrix(out)


def write_matrix(path, a) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(a), fh)
        fh.write("\n")


def read_matrix(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MatrixFormatError(f"invalid JSON in {path}: {exc}") from exc
    return matrix_from_json(obj)

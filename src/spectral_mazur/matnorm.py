"""Unitarily invariant matrix norms and spectral matrix operations.

A gauge from :mod:`spectral_mazur.gauge` applied to the singular value vector
of a complex square matrix defines a unitarily invariant norm.  This module
hosts the spectral machinery those norms need: singular values, the polar
decomposition with a partial-isometry convention, the clamped
eigendecomposition of positive semidefinite matrices, and the matrix duality
map obtained by conjugating the sequence-level map into the eigenbasis of
``|A|``.  Every eigen- and singular-value decomposition of the package is
made here, through ``_lapack``, by helpers that also take stacks.

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
    ConfigError,
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
    "trace_norm",
    "polar",
    "duality_map_mat",
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


def _lapack(routine, m: np.ndarray, **kw):
    """``routine(m, **kw)`` for a ``numpy.linalg`` decomposition; a LAPACK
    failure is a :class:`NumericalFailure`."""
    try:
        return routine(m, **kw)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"{routine.__name__} failed: {exc}") from exc


def _desc(v: np.ndarray) -> np.ndarray:
    """Rows sorted descending, as a copy with positive strides: numpy picks
    its scalar or SIMD pow loop by stride, and the two differ in the last
    bit, so a reversed view would power a row differently in another block."""
    return np.sort(np.asarray(v, dtype=float), axis=-1)[..., ::-1].copy()


def _svals(m: np.ndarray) -> np.ndarray:
    """Singular values of a matrix or stack, descending."""
    return _lapack(np.linalg.svd, m, compute_uv=False)


def _habs(h: np.ndarray) -> np.ndarray:
    """Singular values of a Hermitian matrix or stack: |eigenvalues|, descending."""
    return _desc(np.abs(_lapack(np.linalg.eigvalsh, h)))


def _psd_spectrum(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a PSD matrix or stack, clipped at 0, descending."""
    return _desc(np.clip(_lapack(np.linalg.eigvalsh, h), 0.0, None))


def _l1_herm(h: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: |eigenvalues| summed in ascending order."""
    return float(np.abs(_lapack(np.linalg.eigvalsh, h)).sum())


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and eigenvectors of a Hermitian matrix or stack."""
    return _lapack(np.linalg.eigh, h)


def _rebuild(w: np.ndarray, f: np.ndarray, herm: bool = False) -> np.ndarray:
    """``w diag(f) w†`` for a matrix or stack ``w`` and its rows ``f``; with
    ``herm``, the Hermitian part ``(x + x†) / 2`` of that product ``x``."""
    x = (w * f[..., None, :]) @ _adj(w)
    if herm:
        x += _adj(x)
        x *= 0.5
    return x


def singular_values(a) -> np.ndarray:
    """Singular values in descending order (always nonnegative)."""
    return np.clip(_svals(as_matrix(a)), 0.0, None)


def norm_ui(g: Gauge, a) -> float:
    """Unitarily invariant norm: the gauge evaluated on the singular values."""
    return eval_gauge(g, singular_values(a))


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
    u, s, vh = _lapack(np.linalg.svd, m)
    cutoff = n * _EPS * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    isometry = u[:, :rank] @ vh[:rank, :]
    del u  # read only by the isometry; the modulus is built without it
    return PolarParts(isometry=isometry, modulus=_rebuild(_adj(vh), s, herm=True))


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
    u, s, vh = _lapack(np.linalg.svd, as_matrix(a))
    with np.errstate(over="ignore"):
        powers = [s**e for e in exponents]
    for e, x in zip(exponents, powers):
        if not np.isfinite(x).all():
            raise NumericalFailure(f"power {e!r} of the largest singular value {float(s[0])!r} is not finite")
    return [(u * x) @ vh for x in powers]


def _eigh_psd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(lam, w)``, ``lam`` ascending, of a validated PSD
    matrix or stack, in one ``eigh`` call; each matrix must be Hermitian
    within 1e-10 of its scale, and eigenvalues in ``[-n eps lam_max, 0)`` are
    clamped to 0, anything more negative raises :class:`NotPositive`."""
    mh = _adj(m)
    herm_err = np.abs(m - mh).max(axis=(-2, -1))
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    bad = herm_err > 1e-10 * scale
    if bad.any():
        raise NotPositive(f"matrix is not Hermitian (asymmetry {_first(herm_err, bad):.3e})")
    return _eigh_clamped(m, mh, scale)


def _eigh_clamped(m: np.ndarray, mh: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_eigh_psd` after its Hermitian check, for a caller that has
    made that check (or a tighter one) itself: ``mh`` is the adjoint of
    ``m`` and ``scale`` is ``max(max |m_ij|, 1)`` per matrix."""
    n = m.shape[-1]
    h = m + mh
    h *= 0.5
    lam, w = _eigh(h)
    lam_max = np.where(lam[..., -1] > 0, lam[..., -1], 0.0)
    low = lam[..., 0] < -n * _EPS * lam_max - 10 * _EPS * scale
    if low.any():
        raise NotPositive(f"matrix has negative eigenvalue {_first(lam[..., 0], low):.3e}")
    return np.clip(lam, 0.0, None), w


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
    j = _rebuild(w, duality_map_seq(g, lam), herm=True)
    return j if isometry is None else j @ isometry.conj().T


def _psd_or_polar(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(lam, w, isometry)`` for a validated matrix: the spectral parts of
    ``m`` itself when it is PSD (one ``eigh``, ``isometry`` is None), and
    otherwise those of its polar modulus with the partial isometry of
    ``m = isometry @ modulus`` (the polar SVD and one ``eigh``).

    ``lam`` are the singular values of ``m`` either way; what counts as PSD
    is what :func:`_eigh_psd` accepts.
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
            try:
                out[i, j] = complex(entry[0], entry[1])
            except OverflowError:
                raise MatrixFormatError(f"entry ({i},{j}) is outside float range") from None
    return as_matrix(out)


def write_matrix(path, a) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(a), fh)
        fh.write("\n")


def _read_json(path, what: str, malformed=ConfigError):
    """The JSON value in file ``path``.  An unreadable file is a
    :class:`ConfigError`; one that is not UTF-8 JSON, or that nests or
    spells a number beyond what the decoder takes, is a ``malformed``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {str(path)!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise malformed(f"cannot read {what} file {str(path)!r}: {exc}") from exc


def read_matrix(path) -> np.ndarray:
    """The matrix in JSON file ``path``.  An unreadable file is a
    :class:`ConfigError`, and a file that is not a matrix's UTF-8 JSON a
    :class:`MatrixFormatError`."""
    return matrix_from_json(_read_json(path, "matrix", MatrixFormatError))

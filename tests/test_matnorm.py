"""Matrix norms, polar decomposition, spectral calculus, JSON round trips.

Singular values are cross-checked against the eigenvalues of A†A, and
matrix duality maps against frozen closed-form points.
"""

import json
import math

import numpy as np
import pytest

from spectral_mazur import (
    KyFan,
    Lp,
    dual_gauge,
    duality_map_mat,
    matrix_from_json,
    mazur_inverse,
    matrix_to_json,
    norm_ui,
    parse_gauge,
    polar,
    read_matrix,
    singular_values,
    trace_norm,
    write_matrix,
)
from spectral_mazur.errors import ConfigError, MatrixFormatError, NotPositive, NotSmooth, NumericalFailure, ZeroMatrix
from spectral_mazur.matnorm import _eigh_clamped, _eigh_psd, _rebuild, as_matrix

GAUGES = ("lp:1", "lp:1.5", "lp:2", "lp:4", "lp:inf", "kyfan:2", "conv:2:lp:1", "dual:lp:3")


def _rand(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _haar(rng, n):
    q, r = np.linalg.qr(_rand(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# singular values and norms


def test_singular_values_against_gram_eigenvalues():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 9):
        a = _rand(rng, n)
        s = singular_values(a)
        oracle = np.sqrt(np.clip(np.linalg.eigvalsh(a.conj().T @ a), 0.0, None))[::-1]
        assert np.allclose(s, oracle, rtol=1e-10, atol=1e-12)
        assert np.all(np.diff(s) <= 1e-12)  # descending
        assert np.all(s >= 0.0)


def test_norms_cross_checks():
    rng = np.random.default_rng(1)
    a = _rand(rng, 6)
    assert norm_ui(Lp(2.0), a) == pytest.approx(np.linalg.norm(a, "fro"), rel=1e-12)
    assert trace_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False).sum(), rel=1e-12)
    assert norm_ui(Lp(math.inf), a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
    # the 2-convexification of the trace gauge is the Frobenius gauge
    assert norm_ui(parse_gauge("conv:2:lp:1"), a) == pytest.approx(np.linalg.norm(a, "fro"), rel=1e-12)
    # top-k gauge: sum of the k largest singular values
    s = singular_values(a)
    assert norm_ui(KyFan(3), a) == pytest.approx(s[:3].sum(), rel=1e-12)


def test_unitary_invariance():
    rng = np.random.default_rng(2)
    a = _rand(rng, 5)
    u, v = _haar(rng, 5), _haar(rng, 5)
    for s in GAUGES:
        g = parse_gauge(s)
        assert norm_ui(g, u @ a @ v) == pytest.approx(norm_ui(g, a), rel=1e-10), s


def test_norm_scalar_cases():
    assert norm_ui(Lp(3.0), np.array([[2.0]])) == pytest.approx(2.0, rel=1e-14)
    assert norm_ui(Lp(3.0), np.zeros((3, 3))) == 0.0


def test_as_matrix_validation():
    with pytest.raises(MatrixFormatError):
        norm_ui(Lp(2.0), np.ones((2, 3)))
    with pytest.raises(MatrixFormatError):
        norm_ui(Lp(2.0), np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(MatrixFormatError):
        norm_ui(Lp(2.0), np.ones(4))


# ---------------------------------------------------------------------------
# polar decomposition


def test_polar_reconstruction_and_parts():
    rng = np.random.default_rng(3)
    for n in (2, 4, 7):
        a = _rand(rng, n)
        pp = polar(a)
        assert np.allclose(pp.isometry @ pp.modulus, a, atol=1e-12 * np.linalg.norm(a, 2))
        # modulus is PSD Hermitian
        assert np.allclose(pp.modulus, pp.modulus.conj().T, atol=1e-13)
        assert np.min(np.linalg.eigvalsh(pp.modulus)) >= -1e-12
        # the isometry is unitary on the support
        gram = pp.isometry.conj().T @ pp.isometry
        assert np.allclose(gram, np.eye(n), atol=1e-12)


def test_polar_rank_deficient():
    a = np.zeros((3, 3), dtype=complex)
    a[0, 1] = 2.0
    pp = polar(a)
    assert np.allclose(pp.isometry @ pp.modulus, a, atol=1e-14)
    assert np.linalg.matrix_rank(pp.isometry) == 1
    assert np.allclose(pp.modulus, np.diag([0.0, 2.0, 0.0]), atol=1e-14)


def test_polar_positive_input_gives_identity_isometry_action():
    rng = np.random.default_rng(4)
    g = _rand(rng, 4)
    m = g @ g.conj().T + 0.1 * np.eye(4)
    pp = polar(m)
    assert np.allclose(pp.modulus, m, atol=1e-10)
    assert np.allclose(pp.isometry, np.eye(4), atol=1e-10)


# ---------------------------------------------------------------------------
# Hermitian helpers


def test_eigh_psd_clamps_dust_and_rejects_indefinite():
    lam, w = _eigh_psd(as_matrix(np.diag([1.0, -1e-18, 0.5])))
    assert np.min(lam) >= 0.0
    assert np.allclose((w * lam) @ w.conj().T, np.diag([1.0, 0.0, 0.5]), atol=1e-12)
    with pytest.raises(NotPositive):
        _eigh_psd(as_matrix(np.diag([1.0, -0.5])))
    with pytest.raises(NotPositive):
        _eigh_psd(as_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])))


KERNEL_SHAPES = [(k, n) for k in (1, 7) for n in (1, 2, 5, 16, 64)]


@pytest.mark.parametrize("k, n", KERNEL_SHAPES)
def test_rebuild_gives_the_bits_of_the_frozen_hermitian_part(k, n):
    # the kernel forms the Hermitian part in place; the frozen formula
    # allocates every intermediate
    rng = np.random.default_rng([k, n])
    w = np.stack([_rand(rng, n) for _ in range(k)])
    f = rng.normal(size=(k, n))
    x = (w * f[..., None, :]) @ w.conj().swapaxes(-1, -2)
    want = 0.5 * (x + x.conj().swapaxes(-1, -2))
    assert _rebuild(w, f, herm=True).tobytes() == want.tobytes()
    assert _rebuild(w, f).tobytes() == x.tobytes()


@pytest.mark.parametrize("k, n", KERNEL_SHAPES)
def test_eigh_clamped_gives_the_bits_of_the_frozen_eigh(k, n):
    rng = np.random.default_rng([k, n, 1])
    g = np.stack([_rand(rng, n) for _ in range(k)])
    # PSD up to round-off, and not exactly Hermitian
    m = g @ g.conj().swapaxes(-1, -2) + 1e-14 * np.stack([_rand(rng, n) for _ in range(k)])
    mh = m.conj().swapaxes(-1, -2)
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    lam, w = _eigh_clamped(m, mh, scale)
    want_lam, want_w = np.linalg.eigh(0.5 * (m + mh))
    assert lam.tobytes() == np.clip(want_lam, 0.0, None).tobytes()
    assert w.tobytes() == want_w.tobytes()


@pytest.mark.parametrize(
    "routine,call",
    [("svd", singular_values), ("svd", polar), ("svd", lambda a: mazur_inverse(a, 2.0)), ("eigh", lambda a: _eigh_psd(as_matrix(a)))],
)
def test_a_lapack_failure_is_a_numerical_failure(monkeypatch, routine, call):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, routine, fail)
    with pytest.raises(NumericalFailure, match="failed: did not converge"):
        call(np.eye(2))


# ---------------------------------------------------------------------------
# matrix duality map


def test_duality_map_frobenius_is_adjoint():
    rng = np.random.default_rng(6)
    a = _rand(rng, 4)
    a /= np.linalg.norm(a)
    assert np.allclose(duality_map_mat(Lp(2.0), a), a.conj().T, atol=1e-12)


def test_duality_map_corner_frozen():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    out = duality_map_mat(Lp(4.0), a)
    assert np.allclose(out, np.array([[0.0, 0.0], [1.0, 0.0]]), atol=1e-12)


def test_duality_map_trace_and_dual_norm_identities():
    rng = np.random.default_rng(7)
    for s in ("lp:1.5", "lp:2", "lp:4", "conv:3:lp:2"):
        g = parse_gauge(s)
        for n in (2, 5):
            a = _rand(rng, n)
            # keep the spectrum away from 0: for exponents below 2 the
            # duality map's derivative blows up at vanishing singular values
            a += 3.0 * np.eye(n)
            j = duality_map_mat(g, a)
            nval = norm_ui(g, a)
            assert float(np.trace(j @ a).real) == pytest.approx(nval**2, rel=1e-9)
            assert norm_ui(dual_gauge(g), j) == pytest.approx(nval, rel=1e-9)


def test_duality_map_psd_path_commutes():
    rng = np.random.default_rng(8)
    g = _rand(rng, 4)
    m = g @ g.conj().T + 0.5 * np.eye(4)
    j = duality_map_mat(Lp(3.0), m)
    assert np.allclose(j @ m, m @ j, atol=1e-10 * np.linalg.norm(m, 2) ** 3)
    assert np.allclose(j, j.conj().T, atol=1e-12 * np.linalg.norm(j, 2))


def test_duality_map_preconditions():
    with pytest.raises(NotSmooth):
        duality_map_mat(Lp(1.0), np.eye(2))
    with pytest.raises(ZeroMatrix):
        duality_map_mat(Lp(2.0), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# trace-duality inequality


def test_trace_pairing_bounded_by_dual_norms():
    rng = np.random.default_rng(9)
    for s in ("lp:1", "lp:1.5", "lp:2", "lp:4", "kyfan:2"):
        g = parse_gauge(s)
        gd = dual_gauge(g)
        for _ in range(10):
            a, b = _rand(rng, 4), _rand(rng, 4)
            lhs = abs(complex(np.trace(a @ b)))
            rhs = norm_ui(g, a) * norm_ui(gd, b)
            assert lhs <= rhs * (1 + 1e-10) + 1e-10, s


# ---------------------------------------------------------------------------
# JSON serialization


def test_matrix_json_roundtrip_bit_identical():
    rng = np.random.default_rng(10)
    a = _rand(rng, 3)
    obj = matrix_to_json(a)
    b = matrix_from_json(obj)
    assert a.dtype == b.dtype and np.array_equal(a, b)
    # a serialize-parse-serialize cycle is textually stable
    assert json.dumps(matrix_to_json(b)) == json.dumps(obj)


def test_matrix_file_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    a = _rand(rng, 4)
    path = tmp_path / "m.json"
    write_matrix(path, a)
    assert np.array_equal(read_matrix(path), a)


def test_read_matrix_refuses_a_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read matrix file"):
        read_matrix(tmp_path / "missing.json")


def test_read_matrix_rejects_invalid_utf8(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(MatrixFormatError):
        read_matrix(path)


@pytest.mark.parametrize("text", ["[" * 100_000, '{"dim": ' + "1" * 4301 + "}"], ids=["nested", "long-int"])
def test_read_matrix_rejects_what_the_decoder_refuses(tmp_path, text):
    # too deep a nesting and too long an integer literal are not JSON
    # syntax errors, yet no matrix file either
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(MatrixFormatError, match="cannot read matrix file"):
        read_matrix(path)


def test_matrix_from_json_accepts_artifact_wrapper():
    a = np.eye(2, dtype=complex)
    wrapped = {"matrix": matrix_to_json(a), "manifest": {}}
    assert np.array_equal(matrix_from_json(wrapped), a)


@pytest.mark.parametrize(
    "obj",
    [
        42,
        {"dim": 2},
        {"dim": 2, "data": [[[1, 0]]]},
        {"dim": 2, "data": [[[1, 0], [0, 0]], [[0, 0]]]},
        {"dim": 2, "data": [[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0]]]},
        {"dim": "two", "data": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        {"dim": 2, "data": [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]},
        {"dim": 1, "data": [[[10**400, 0]]]},
    ],
)
def test_matrix_from_json_rejects_malformed(obj):
    with pytest.raises(MatrixFormatError):
        matrix_from_json(obj)

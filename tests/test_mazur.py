"""Power maps between unit spheres: norm identities, equivariance, inversion."""

import warnings

import numpy as np
import pytest

from spectral_mazur import (
    convexify,
    mazur_forward,
    mazur_inverse,
    norm_ui,
    parse_gauge,
    singular_values,
)
from spectral_mazur.errors import GaugeParseError, NumericalFailure


def _rand(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _haar(rng, n):
    q, r = np.linalg.qr(_rand(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conditioned(rng, n, p):
    """Random matrix with singular-value spread small enough to invert the
    p-th power in double precision (the p-th power of the spectral ratio
    must stay above the SVD noise floor)."""
    kappa = min(1e6, 10.0 ** (9.0 / p))
    u, v = _haar(rng, n), _haar(rng, n)
    s = np.exp(rng.uniform(0.0, np.log(kappa), size=n))
    s = np.sort(s / s.max())[::-1]
    return u @ np.diag(s).astype(complex) @ v


def test_params_validation():
    a = np.diag([0.8, -0.6]).astype(complex)
    for f in (mazur_forward, mazur_inverse):
        for p in (0.5, float("inf"), float("nan"), "inf"):
            with pytest.raises(GaugeParseError):
                f(a, p)
        assert np.allclose(f(a, 1), a, atol=1e-14)  # the identity map is allowed


def test_forward_frozen_signed_diagonal():
    a = np.diag([0.8, -0.6]).astype(complex)
    out = mazur_forward(a, 2.0)
    assert np.allclose(out, np.diag([0.64, -0.36]), atol=1e-14)
    out3 = mazur_forward(a, 3.0)
    assert np.allclose(out3, np.diag([0.512, -0.216]), atol=1e-14)


def test_forward_is_identity_at_p_one():
    rng = np.random.default_rng(0)
    a = _rand(rng, 4)
    assert np.allclose(mazur_forward(a, 1.0), a, atol=1e-12)
    assert np.allclose(mazur_inverse(a, 1.0), a, atol=1e-12)


def test_norm_identity_and_sphere_transport():
    # the p-th power map sends the unit sphere of the p-convexified norm
    # onto the unit sphere of the base norm: ‖G_p(A)‖ = ‖A‖^p (conv norm)
    rng = np.random.default_rng(1)
    for s in ("lp:1", "lp:2", "kyfan:2", "conv:2:lp:1"):
        g = parse_gauge(s)
        for p in (1.5, 2.0, 3.0):
            c = convexify(g, p)
            a = _rand(rng, 5)
            assert norm_ui(g, mazur_forward(a, p)) == pytest.approx(norm_ui(c, a) ** p, rel=1e-11)
            a_unit = a / norm_ui(c, a)
            assert norm_ui(g, mazur_forward(a_unit, p)) == pytest.approx(1.0, rel=1e-11)


def test_forward_powers_singular_values():
    rng = np.random.default_rng(2)
    a = _rand(rng, 6)
    out = mazur_forward(a, 2.5)
    assert np.allclose(singular_values(out), singular_values(a) ** 2.5, rtol=1e-10)


def test_equivariance_under_unitaries():
    rng = np.random.default_rng(3)
    a = _rand(rng, 5)
    u, v = _haar(rng, 5), _haar(rng, 5)
    left = mazur_forward(u @ a @ v, 3.0)
    right = u @ mazur_forward(a, 3.0) @ v
    assert np.allclose(left, right, atol=1e-10 * np.linalg.norm(a) ** 3)


def test_hermitian_input_gives_hermitian_output():
    rng = np.random.default_rng(4)
    h = _rand(rng, 5)
    h = h + h.conj().T
    out = mazur_forward(h, 3.0)
    assert np.allclose(out, out.conj().T, atol=1e-10 * np.linalg.norm(out))
    # eigenvalues transform by the signed power
    ev_in = np.sort(np.linalg.eigvalsh(h))
    ev_out = np.sort(np.linalg.eigvalsh(out))
    assert np.allclose(ev_out, np.sign(ev_in) * np.abs(ev_in) ** 3.0, rtol=1e-9, atol=1e-10)


def test_roundtrip_both_directions():
    rng = np.random.default_rng(5)
    for p in (1.5, 2.0, 3.0, 5.0):
        for n in (2, 4, 8):
            a = _conditioned(rng, n, p)
            there = mazur_forward(a, p)
            back = mazur_inverse(there, p)
            assert np.max(np.abs(back - a)) <= 1e-10, (p, n)
            b = _conditioned(rng, n, p)
            there2 = mazur_inverse(b, p)
            back2 = mazur_forward(there2, p)
            assert np.max(np.abs(back2 - b)) <= 1e-10, (p, n)


def test_inverse_is_forward_with_reciprocal_exponent():
    rng = np.random.default_rng(6)
    a = _rand(rng, 4)
    out1 = mazur_inverse(a, 4.0)
    out2 = mazur_forward(a, 1.0)  # sanity: p=1 identity
    assert np.allclose(out2, a, atol=1e-12)
    assert np.allclose(singular_values(out1), singular_values(a) ** 0.25, rtol=1e-10)


def test_overflowing_power_is_a_numerical_failure_without_a_warning():
    # a power past the float range, and a singular value the SVD itself
    # cannot represent, are refused before any product is formed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="not finite"):
            mazur_forward(np.diag([1e200, 1.0]), 2.0)
        with pytest.raises(NumericalFailure, match="not finite"):
            mazur_forward(np.eye(2) * (1.0 + 2.0**-52), 1e308)
        with pytest.raises(NumericalFailure):
            mazur_forward(np.full((2, 2), 1e308), 3.0)  # its largest singular value is 2e308
        big = mazur_forward(np.diag([1e100, -1.0]), 3.0)
    assert np.allclose(big, np.diag([1e300, -1.0]), rtol=1e-12, atol=0.0)


def test_finite_powers_are_u_s_power_v():
    # the overflow check reads the powers and changes none of their bits
    rng = np.random.default_rng(8)
    for n in (1, 3, 8):
        a = _rand(rng, n)
        u, s, vh = np.linalg.svd(a)
        for p in (1.0, 1.5, 3.0):
            assert mazur_forward(a, p).tobytes() == ((u * s**p) @ vh).tobytes(), (n, p)
            assert mazur_inverse(a, p).tobytes() == ((u * s ** (1.0 / p)) @ vh).tobytes(), (n, p)


"""The entropy maps as written before each map decomposed its input once.

``entropy_min_mat``, ``entropy_min_general`` and ``norming_state`` below
validate and diagonalise their input on every call, check the input's norm
with a separate SVD, and run the Frank-Wolfe loop through the public
``eval_gauge`` and ``duality_map_seq``, which validate every vector.
``duality_map_mat`` is the matrix duality map as written before it shared
the PSD-or-polar split of ``norming_state``: ``_is_psd`` tests PSD input with
an ``eigvalsh`` of its own, and the map then diagonalises it again.  The
package's maps must give the same bits and raise the same errors; the
tests compare them, and the per-sample suite references call these.
"""

import math

import numpy as np

from spectral_mazur import (
    check_state,
    dual_gauge,
    duality_map_seq,
    eval_gauge,
    norm_ui,
    polar,
    trace_norm,
)
from spectral_mazur.entropy import (
    _POLISH_ENTRY,
    EntropyMinReport,
    _check_probability,
    _line_search,
    _require_solvable,
)
from spectral_mazur.errors import NoConvergence, NotUnitNorm, NotUnitTraceNorm, ZeroMatrix
from spectral_mazur.gauge import Lp
from spectral_mazur.matnorm import _EPS, _eigh_psd, as_matrix


def _solve_support(g, r, tol, max_iter):
    dual = dual_gauge(g)
    y = r / eval_gauge(g, r)
    residual = math.inf
    it = 0
    while it <= max_iter:
        j = duality_map_seq(g, y)
        residual = float(np.abs(y * j - r).sum())
        if residual <= tol:
            return y, residual, it
        if residual <= _POLISH_ENTRY:
            break
        grad = r / y
        grad_scaled = grad / grad.max()
        s = duality_map_seq(dual, grad_scaled) / eval_gauge(dual, grad_scaled)
        d = s - y
        slope0 = float(grad @ d)
        if slope0 <= 0.0:
            break
        gamma = _line_search(r, y, d, slope0)
        if gamma <= 0.0:
            break
        y = y + gamma * d
        y = y / eval_gauge(g, y)
        it += 1

    alpha = 0.5
    j = duality_map_seq(g, y)
    residual = float(np.abs(y * j - r).sum())
    while it <= max_iter and residual > tol and alpha >= 1e-4:
        cand = y * (r / np.maximum(y * j, 1e-300)) ** alpha
        cand = cand / eval_gauge(g, cand)
        jc = duality_map_seq(g, cand)
        res_c = float(np.abs(cand * jc - r).sum())
        if res_c < residual:
            y, j, residual = cand, jc, res_c
            alpha = min(1.0, alpha * 1.3)
        else:
            alpha *= 0.5
        it += 1
    if residual > tol:
        raise NoConvergence("entropy minimizer did not reach its target", residual)
    for _ in range(15):
        if residual == 0.0:
            break
        cand = y * (r / np.maximum(y * j, 1e-300)) ** alpha
        cand = cand / eval_gauge(g, cand)
        jc = duality_map_seq(g, cand)
        res_c = float(np.abs(cand * jc - r).sum())
        if res_c < 0.7 * residual:
            y, j, residual = cand, jc, res_c
            it += 1
        else:
            break
    return y, residual, it


def _solve_seq(g, r, tol, max_iter):
    prob = _check_probability(r)
    c = _require_solvable(g)
    if isinstance(c, Lp) and c.p == 1.0:
        return prob.copy(), 0.0, 0
    supp = prob > 0.0
    y = np.zeros_like(prob)
    ys, residual, iters = _solve_support(c, prob[supp], tol, max_iter)
    y[supp] = ys
    return y, residual, iters


def entropy_min_mat(g, rho, *, tol=1e-8, max_iter=100_000):
    lam, w = check_state(rho)
    r = lam / lam.sum()
    y, residual, iters = _solve_seq(g, r, tol, max_iter)
    sigma = (w * y) @ w.conj().T
    sigma = 0.5 * (sigma + sigma.conj().T)
    pos = r > 0.0
    objective = float(np.sum(r[pos] * np.log(r[pos] / y[pos])))
    return EntropyMinReport(minimizer=sigma, objective=objective, fixed_point_residual=residual, iterations=iters)


def entropy_min_general(g, a, *, tol=1e-8, max_iter=100_000):
    m = as_matrix(a)
    tn = trace_norm(m)
    if abs(tn - 1.0) > 1e-9:
        raise NotUnitTraceNorm(f"input must have unit trace norm, got {tn!r}")
    parts = polar(m)
    rho = parts.modulus / float(np.trace(parts.modulus).real)
    rep = entropy_min_mat(g, rho, tol=tol, max_iter=max_iter)
    return parts.isometry @ rep.minimizer


def norming_state(g, a):
    m = as_matrix(a)
    nrm = norm_ui(g, m)
    if abs(nrm - 1.0) > 1e-9:
        raise NotUnitNorm(f"input must have unit gauge norm, got {nrm!r}")
    if _is_psd(m):
        lam, w = _eigh_psd(as_matrix(m))
        j = duality_map_seq(g, lam)
        out = (w * (j * lam)) @ w.conj().T
        return 0.5 * (out + out.conj().T)
    parts = polar(m)
    lam, w = _eigh_psd(as_matrix(parts.modulus))
    j = duality_map_seq(g, lam)
    core = (w * (j * lam)) @ w.conj().T
    return parts.isometry @ (0.5 * (core + core.conj().T))


def duality_map_mat(g, a):
    m = as_matrix(a)
    if not np.any(np.abs(m) > 0.0):
        raise ZeroMatrix("duality map undefined at the zero matrix")
    if _is_psd(m):
        return _duality_map_psd(g, m)
    parts = polar(m)
    j_mod = _duality_map_psd(g, parts.modulus)
    return j_mod @ parts.isometry.conj().T


def _is_psd(m: np.ndarray) -> bool:
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.conj().T).max() > 1e-10 * scale:
        return False
    lam = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    n = m.shape[0]
    lam_max = float(lam[-1]) if lam[-1] > 0 else 0.0
    return bool(lam[0] >= -n * _EPS * lam_max - 10 * _EPS * scale)


def _duality_map_psd(g, m: np.ndarray) -> np.ndarray:
    lam, w = _eigh_psd(as_matrix(m))
    j_seq = duality_map_seq(g, lam)
    out = (w * j_seq) @ w.conj().T
    return 0.5 * (out + out.conj().T)

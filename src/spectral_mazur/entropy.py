"""Quantum relative entropy and its minimization over gauge unit balls.

``rel_entropy`` computes ``D(rho ‖ sigma) = tr[rho (log rho - log sigma)]``
with the support convention: the value is ``+inf`` (a deliberate sentinel,
never an overflow) when ``rho`` puts more than 1e-10 of mass outside the
support of ``sigma``.

``entropy_min_mat`` minimizes ``D(rho ‖ sigma)`` over the positive part of a
gauge's unit sphere.  The minimizer commutes with ``rho`` (the objective
decreases under pinching onto the eigenbasis of ``rho``), so the matrix
problem reduces to its spectrum: maximize ``sum_j r_j log y_j`` over the
positive sphere of the sequence gauge.  That concave problem is solved by
Frank-Wolfe with an exact line search; the linear-maximization oracle is the
norming vector of the gradient, obtained from the dual gauge's duality map.
Optimality is certified by the fixed-point identity ``y ∘ J(y) = r``: the l1
residual of that identity is reported and doubles as the distance
``‖ |J(sigma)| sigma - rho ‖_1`` at the spectral level.

``norming_state`` is the map in the opposite direction: it sends a unit-norm
``A`` to the trace-norm-one matrix ``|J(A)| A``, recovering the input of the
minimization (the two maps are mutually inverse between the unit spheres).

Each map diagonalises its input once and checks the input's norm on that
spectrum: ``entropy_min_mat`` by ``check_state`` (or takes the result of an
earlier ``check_state`` of the same state), ``entropy_min_general`` by the
polar SVD and the ``eigh`` of the modulus, ``norming_state`` by one ``eigh``
for PSD input and otherwise by the polar SVD and one ``eigh``.

``entropy_min_bruteforce`` is a deliberately independent grid-search oracle
(diagonal states, dimension <= 3) used to cross-check the solver: it calls
none of the solver's code, and scans each of its grids as one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionTooLarge,
    NoConvergence,
    NotPositive,
    NotProbability,
    NotSmooth,
    NotState,
    NotUnitNorm,
    NotUnitTraceNorm,
)
from .gauge import (
    Gauge,
    Lp,
    _canonical_form,
    _duality_map,
    _eval,
    _finite,
    dual_gauge,
    duality_map_seq,
    eval_gauge,
    eval_gauge_rows,
    format_gauge,
)
from .matnorm import (
    _EPS,
    _adj,
    _as_matrices,
    _eigh_psd,
    _first,
    _psd_or_polar,
    as_matrix,
    matrix_to_json,
    polar,
)

__all__ = [
    "EntropyMinReport",
    "GridSearchReport",
    "rel_entropy",
    "entropy_min_seq",
    "entropy_min_mat",
    "entropy_min_general",
    "entropy_min_bruteforce",
    "norming_state",
    "check_state",
]


class _CheckedState(NamedTuple):
    """A density matrix's clamped spectrum and eigenbasis, as validated by
    :func:`check_state`, which alone builds it."""

    lam: np.ndarray
    w: np.ndarray


def check_state(rho) -> tuple[np.ndarray, np.ndarray]:
    """Validate a density matrix; return clamped eigenvalues and eigenbasis.

    Hermitian within 1e-12 (relative), PSD within the clamp tolerance of
    :func:`spectral_mazur.matnorm.eigh_psd`, unit trace within 1e-12.
    Eigenvalues come back ascending, clipped to ``[0, inf)``.  The result
    unpacks as ``(lam, w)``; passed to :func:`entropy_min_mat` in place of
    the matrix, it spares that call a second validation and ``eigh``, so a
    state minimized over several gauges is decomposed once.
    """
    return _CheckedState(*_check_states(as_matrix(rho)))


def _check_states(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`check_state` of a validated matrix or stack, each matrix checked
    against its own scale."""
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    if (np.abs(m - _adj(m)).max(axis=(-2, -1)) > 1e-12 * scale).any():
        raise NotState("density matrix must be Hermitian")
    tr = np.trace(m, axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0) > 1e-12
    if off.any():
        raise NotState(f"density matrix must have unit trace, got {_first(tr, off)!r}")
    try:
        return _eigh_psd(m)
    except NotPositive as exc:
        raise NotState(f"density matrix must be PSD: {exc}") from exc


def rel_entropy(rho, sigma) -> float | np.ndarray:
    """``D(rho ‖ sigma)`` with the support convention.

    ``sigma`` only needs to be Hermitian PSD (not normalized).  Returns
    ``math.inf`` when ``tr[rho (I - P_sigma)] > 1e-10`` where
    ``P_sigma`` projects onto eigenvalues above ``n * eps * lam_max(sigma)``.

    ``rho`` and ``sigma`` may also be stacks ``(..., n, n)`` whose leading
    dimensions broadcast against each other.  The result is then an array
    over the broadcast pairs, each entry equal bit for bit to the value of
    its pair alone, and each matrix is validated and diagonalised once,
    however many pairs it is in.
    """
    m = _as_matrices(rho)
    r, _ = _check_states(m)
    lam, ws = _eigh_psd(_as_matrices(sigma))
    n = lam.shape[-1]
    if r.shape[-1] != n:
        raise NotState("rho and sigma must have equal dimensions")
    try:
        shape = np.broadcast_shapes(r.shape[:-1], lam.shape[:-1])
    except ValueError:
        raise NotState(f"stacks of {r.shape[:-1]} states and {lam.shape[:-1]} sigmas do not broadcast") from None
    # diagonal of rho in the eigenbasis of sigma
    diag = np.clip(np.diagonal(_adj(ws) @ m @ ws, axis1=-2, axis2=-1).real, 0.0, None)
    # the masked sums go row by row: the order in which numpy sums a row
    # depends on the row's length
    pos = r > n * _EPS * r[..., -1:]
    term_rho = np.empty(r.shape[:-1])
    for k in np.ndindex(term_rho.shape):
        rk = r[k][pos[k]]
        term_rho[k] = np.sum(rk * np.log(rk))
    term_rho = np.broadcast_to(term_rho, shape)
    lam = np.broadcast_to(lam, shape + (n,))
    on_support = lam > n * _EPS * lam[..., -1:]
    out = np.empty(shape)
    for k in np.ndindex(shape):
        on = on_support[k]
        if float(diag[k][~on].sum()) > 1e-10:
            out[k] = math.inf
        else:
            out[k] = term_rho[k] - np.sum(diag[k][on] * np.log(lam[k][on]))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# sequence-level solver


def _check_probability(r) -> np.ndarray:
    a = np.asarray(r, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise NotProbability(f"expected a 1-d probability vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NotProbability("probability vector contains NaN or Inf")
    if a.min() < -1e-12:
        raise NotProbability(f"negative entry {a.min():.3e}")
    total = float(a.sum())
    if abs(total - 1.0) > 1e-9:
        raise NotProbability(f"entries sum to {total!r}, not 1")
    a = np.clip(a, 0.0, None)
    return a / a.sum()


def _require_solvable(g: Gauge) -> Gauge:
    """Canonical gauge, checked against the solver's preconditions.

    Smooth + strictly convex is required, with one documented exception:
    the trace-norm gauge (canonical ``lp:1``), where the minimizer is the
    input itself — ``D(rho‖sigma) >= 0`` with equality iff ``sigma = rho``,
    and ``rho`` already lies on the sphere.
    """
    c = _canonical_form(g)
    if isinstance(c, Lp) and c.p == 1.0:
        return c
    if not g.smooth:
        raise NotSmooth(f"gauge {format_gauge(g)} is not smooth")
    return c


# the solver's target for the fixed-point residual, and its iteration budget
_TOL = 1e-8
_MAX_ITER = 100_000
_POLISH_ENTRY = 1e-6


def _solve_support(g: Lp, r: np.ndarray):
    """Maximize ``sum r_j log y_j`` over the positive unit sphere of ``g``.

    ``g`` is a canonical ``Lp(p)`` with ``1 < p < inf``; ``r`` must be
    strictly positive and sum to 1.  Two phases share the iteration budget.
    The global phase is Frank-Wolfe: steps move toward the norming vector
    of the gradient (via the dual gauge's duality map) with an exact
    concave line search.  Its ascent slope degrades like the
    *squared* distance to the optimum, so in double precision it cannot be
    driven much below a 1e-8 stationarity residual; once the residual is
    small (or the slope is lost to round-off) a local phase takes over: a
    damped multiplicative fixed-point iteration on the stationarity
    identity ``y ∘ J(y) = r``, which is cancellation-free and contracts
    linearly near the optimum with adaptive damping.  Returns
    ``(y, residual, iterations)`` where ``residual = ‖y ∘ J(y) - r‖_1``.

    The loop runs on the gauge arithmetic (``_eval``, ``_duality_map``)
    with the preconditions of the public functions settled once; each new
    ``y``, scaled gradient and candidate is checked for NaN or Inf once.
    """
    dual = dual_gauge(g)
    y = r / _eval(g, np.abs(_finite(r)))
    residual = math.inf
    it = 0
    while it <= _MAX_ITER:
        j = _duality_map(g, y)
        residual = float(np.abs(y * j - r).sum())
        if residual <= _TOL:
            return y, residual, it
        if residual <= _POLISH_ENTRY:
            break
        grad = r / y
        grad_scaled = _finite(grad / grad.max())
        s = _duality_map(dual, grad_scaled) / _eval(dual, np.abs(grad_scaled))
        d = s - y
        slope0 = float(grad @ d)
        if slope0 <= 0.0:
            break
        gamma = _line_search(r, y, d, slope0)
        if gamma <= 0.0:
            break
        y = y + gamma * d
        y = _finite(y / _eval(g, np.abs(y)))
        it += 1

    alpha = 0.5
    j = _duality_map(g, y)
    residual = float(np.abs(y * j - r).sum())
    while it <= _MAX_ITER and residual > _TOL and alpha >= 1e-4:
        cand = _candidate(g, y, j, r, alpha)
        jc = _duality_map(g, cand)
        res_c = float(np.abs(cand * jc - r).sum())
        if res_c < residual:
            y, j, residual = cand, jc, res_c
            alpha = min(1.0, alpha * 1.3)
        else:
            alpha *= 0.5
        it += 1
    if residual > _TOL:
        raise NoConvergence("entropy minimizer did not reach its target", residual)
    # refinement: extra local steps are one duality-map evaluation each and
    # strongly contracting, so push the residual toward the round-off floor;
    # that keeps small spectral weights accurate in *relative* terms even
    # through high-exponent gauges, where an error of the bare tolerance
    # size would be amplified by 1 / (p y_min^{p-1}) downstream
    for _ in range(15):
        if residual == 0.0:
            break
        cand = _candidate(g, y, j, r, alpha)
        jc = _duality_map(g, cand)
        res_c = float(np.abs(cand * jc - r).sum())
        if res_c < 0.7 * residual:
            y, j, residual = cand, jc, res_c
            it += 1
        else:
            break
    return y, residual, it


def _candidate(g: Lp, y, j, r, alpha):
    """The damped multiplicative step from ``y``, back on the sphere of ``g``."""
    cand = y * (r / np.maximum(y * j, 1e-300)) ** alpha
    return _finite(cand / _eval(g, np.abs(cand)))


def _line_search(r, y, d, slope0):
    """Maximize ``sum r log(y + gamma d)`` for ``gamma`` in [0, 1].

    The derivative ``phi'(gamma) = sum r d / (y + gamma d)`` is decreasing;
    safeguarded Newton finds its root (or returns 1 when still ascending).
    """

    def slope(gamma):
        return float((r * d / (y + gamma * d)).sum())

    hi_slope = slope(1.0 - 1e-12)
    if hi_slope >= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0 - 1e-12
    gamma = slope0 / (slope0 - hi_slope)  # secant start
    for _ in range(60):
        gamma = min(max(gamma, lo + 0.1 * (hi - lo)), hi - 0.1 * (hi - lo))
        z = y + gamma * d
        s = float((r * d / z).sum())
        if abs(s) < 1e-15:
            break
        if s > 0.0:
            lo = gamma
        else:
            hi = gamma
        curv = float((r * (d / z) ** 2).sum())
        gamma = gamma + s / curv  # Newton on phi' (phi'' = -curv)
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi) if not (lo < gamma < hi) else gamma


def entropy_min_seq(g: Gauge, r) -> np.ndarray:
    """Spectrum-level minimizer ``y`` on the positive unit sphere of ``g``.

    Coordinates outside the support of ``r`` are frozen at 0 (they do not
    enter the objective, and spending norm budget on them is never optimal).
    As in :func:`rel_entropy`, the support is where ``r_j > n eps max r``, so
    round-off weights of a rank-deficient spectrum are outside it.  The
    output is equivariant under simultaneous permutation with ``r``.
    """
    y, _, _ = _solve_seq(g, r)
    return y


def _solve_seq(g: Gauge, r):
    prob = _check_probability(r)
    c = _require_solvable(g)
    if isinstance(c, Lp) and c.p == 1.0:
        return prob.copy(), 0.0, 0
    supp = prob > prob.size * _EPS * prob.max()
    y = np.zeros_like(prob)
    ys, residual, iters = _solve_support(c, prob[supp])
    y[supp] = ys
    return y, residual, iters


# ---------------------------------------------------------------------------
# matrix-level wrappers


@dataclass(frozen=True)
class EntropyMinReport:
    """Minimizer with its optimality certificate.

    ``fixed_point_residual`` is ``‖ |J(sigma)| sigma - rho ‖_1`` evaluated at
    the spectral level — the l1 defect of the stationarity identity.
    """

    minimizer: np.ndarray
    objective: float
    fixed_point_residual: float
    iterations: int

    def to_json(self) -> dict:
        return {
            "minimizer": matrix_to_json(self.minimizer),
            "objective": self.objective,
            "fixed_point_residual": self.fixed_point_residual,
            "iterations": self.iterations,
        }


def entropy_min_mat(g: Gauge, rho) -> EntropyMinReport:
    """Minimize ``D(rho ‖ ·)`` over PSD matrices on the unit sphere of ``g``.

    The minimizer shares the eigenbasis of ``rho``; degenerate eigenvalues
    are safe because the spectral solution is a symmetric function of the
    spectrum (equal inputs get equal outputs, so the basis ambiguity inside
    an eigenspace cancels in the assembled matrix).

    ``rho`` may also be what :func:`check_state` returned for it: that is
    used as it stands, and gives the same bits as the matrix, which would be
    validated and diagonalised again.
    """
    lam, w = rho if isinstance(rho, _CheckedState) else check_state(rho)
    r = lam / lam.sum()
    y, residual, iters = _solve_seq(g, r)
    sigma = (w * y) @ w.conj().T
    sigma = 0.5 * (sigma + sigma.conj().T)
    pos = y > 0.0
    objective = float(np.sum(r[pos] * np.log(r[pos] / y[pos])))
    return EntropyMinReport(
        minimizer=sigma,
        objective=objective,
        fixed_point_residual=residual,
        iterations=iters,
    )


def entropy_min_general(g: Gauge, a) -> np.ndarray:
    """Polar extension of the minimization to trace-norm-one matrices.

    Writes ``a = u |a|`` and returns ``u @ entropy_min_mat(g, |a|)``: the
    modulus is a state (its trace is the trace norm of ``a``), and the
    minimizer's support stays inside the support of ``|a|``, so the partial
    isometry loses nothing.  The unit trace norm is checked on that trace,
    so ``a`` costs one SVD (the polar decomposition) and one ``eigh`` (of the
    modulus, in the minimization).
    """
    parts = polar(a)
    tn = float(np.trace(parts.modulus).real)
    if abs(tn - 1.0) > 1e-9:
        raise NotUnitTraceNorm(f"input must have unit trace norm, got {tn!r}")
    rho = parts.modulus / tn
    rep = entropy_min_mat(g, rho)
    return parts.isometry @ rep.minimizer


def norming_state(g: Gauge, a) -> np.ndarray:
    """The trace-norm-one matrix ``|J(a)| a`` attached to unit-norm ``a``.

    For PSD ``a`` this is ``J(a) a`` (both factors share an eigenbasis and
    the product has trace ``‖a‖² = 1``); in general ``a = u |a|`` gives
    ``u J(|a|) |a|``.  Inverse of the entropy minimization between spheres.

    ``a`` is diagonalised once: a PSD input by one ``eigh``, any other by the
    polar SVD and one ``eigh`` of the modulus.  The unit norm is checked on
    that spectrum, which is the singular values of ``a``.
    """
    lam, w, isometry = _psd_or_polar(as_matrix(a))
    nrm = eval_gauge(g, lam)
    if abs(nrm - 1.0) > 1e-9:
        raise NotUnitNorm(f"input must have unit gauge norm, got {nrm!r}")
    j = duality_map_seq(g, lam)
    core = (w * (j * lam)) @ w.conj().T
    core = 0.5 * (core + core.conj().T)
    return core if isometry is None else isometry @ core


# ---------------------------------------------------------------------------
# brute-force oracle


@dataclass(frozen=True)
class GridSearchReport:
    """Grid-search minimizer with its resolution.

    ``pitch`` is the measured trace-norm distance between the winning grid
    point and its refined-grid neighbours — the oracle's confidence radius.
    """

    minimizer: np.ndarray
    objective: float
    pitch: float


def _rays(*coords) -> np.ndarray:
    """Grid points ``(c_1, ..., c_k, 1 - c_1 - ... - c_k)`` as rows.

    Points with a negative coordinate lie off the simplex and are dropped.
    """
    last = 1.0 - coords[0]
    for c in coords[1:]:
        last = last - c
    w = np.column_stack((*coords, last))
    return w[np.all(w >= 0.0, axis=1)]


def _on_sphere(c: Gauge, rs: np.ndarray, w: np.ndarray):
    """Each grid row normalized onto the sphere of ``c``: ``(y, objective, pos)``.

    ``pos`` marks rows of positive norm (the others are left unscaled).  The
    objective ``sum rs log(rs / y)`` is ``inf`` where the row's norm is not
    positive or the normalized row has a coordinate ``<= 0``.
    """
    nw = eval_gauge_rows(c, w)
    pos = nw > 0.0
    y = w / np.where(pos, nw, 1.0)[:, None]
    ok = pos & np.all(y > 0.0, axis=1)
    vals = np.full(len(w), math.inf)
    vals[ok] = np.sum(rs * np.log(rs / y[ok]), axis=1)
    return y, vals, pos


def _scan(c: Gauge, rs: np.ndarray, w: np.ndarray):
    """The first grid row of least objective: ``(objective, y, row)``."""
    y, vals, _ = _on_sphere(c, rs, w)
    i = int(np.argmin(vals))
    return float(vals[i]), y[i], w[i]


def entropy_min_bruteforce(g: Gauge, rho) -> GridSearchReport:
    """Dense grid search over the positive unit sphere (diagonal, dim <= 3).

    Deliberately independent of the solver: it calls none of the solver's
    code (no ``_solve_support``, no duality map).  It parameterizes rays
    through the probability simplex, normalizes each onto the gauge sphere,
    scans a base grid, then runs one refinement pass around the winner; a
    refined point wins ties against the base winner.  Each grid is
    evaluated as one ``(points, dim)`` array.
    """
    m = as_matrix(rho)
    n = m.shape[0]
    if n > 3:
        raise DimensionTooLarge(f"grid oracle supports dim <= 3, got {n}")
    off = m - np.diag(np.diag(m))
    if np.abs(off).max() > 1e-12:
        raise NotState("grid oracle needs a diagonal density matrix")
    r = _check_probability(np.diag(m).real)
    supp = np.flatnonzero(r > 0.0)
    rs = r[supp]
    msz = supp.size

    if msz == 1:
        y = np.zeros(n)
        y[supp[0]] = 1.0
        return GridSearchReport(minimizer=np.diag(y).astype(complex), objective=0.0, pitch=1e-12)

    c = _canonical_form(g)
    if msz == 2:
        k1 = 2000
        val, y, w = _scan(c, rs, _rays(np.linspace(0.0, 1.0, k1 + 1)))
        h = 1.0 / k1
        t0 = float(w[0])
        fine_t = np.linspace(max(0.0, t0 - h), min(1.0, t0 + h), 2001)
        fine = _scan(c, rs, _rays(fine_t))
        if fine[0] <= val:
            val, y, w = fine
        step = float(fine_t[1] - fine_t[0])
        neighbours = _rays(w[0] + np.array([-step, step]))
    else:
        k1 = 60
        i, j = np.indices((k1 + 1, k1 + 1)).reshape(2, -1)
        keep = i + j <= k1
        base = np.column_stack((i[keep], j[keep], k1 - i[keep] - j[keep])) / k1
        val, y, w = _scan(c, rs, base)
        h = 1.0 / k1
        axis = np.linspace(-h, h, 81)
        da, db = np.meshgrid(axis, axis, indexing="ij")
        fine = _scan(c, rs, _rays(w[0] + da.ravel(), w[1] + db.ravel()))
        if fine[0] <= val:
            val, y, w = fine
        step = float(axis[1] - axis[0])
        deltas = np.array([(step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)])
        neighbours = _rays(w[0] + deltas[:, 0], w[1] + deltas[:, 1])

    yn, _, pos = _on_sphere(c, rs, neighbours)
    pitch = float(np.max(np.abs(yn[pos] - y).sum(axis=1), initial=1e-12))
    y_full = np.zeros(n)
    y_full[supp] = y
    return GridSearchReport(
        minimizer=np.diag(y_full).astype(complex),
        objective=val,
        pitch=pitch,
    )

"""The scalar gauge evaluator as written before the row evaluator became the
only one.

``_eval`` below branches on the canonical form itself and evaluates one
vector; ``_dual_numeric`` is its SLSQP route for duals without a closed
form, calling this ``_eval``.  The package's ``eval_gauge`` and
``eval_gauge_rows`` must give the same bits; the tests compare them.
"""

import math

import numpy as np

from spectral_mazur.errors import GaugeParseError
from spectral_mazur.gauge import Convexified, Dual, Gauge, KyFan, Lp, _as_vector, _canonical_form


def eval_gauge(g: Gauge, v) -> float:
    a = np.abs(_as_vector(v))
    return _eval(_canonical_form(g), a)


def _eval(c: Gauge, a: np.ndarray) -> float:
    peak = float(a.max())
    if peak == 0.0:
        return 0.0
    if isinstance(c, Lp):
        if math.isinf(c.p):
            return peak
        if c.p == 1.0:
            return float(a.sum())
        # scale by the peak so a**p cannot overflow for large p
        return peak * float(((a / peak) ** c.p).sum() ** (1.0 / c.p))
    if isinstance(c, KyFan):
        k = min(c.k, a.size)
        return float(np.sort(a)[::-1][:k].sum())
    if isinstance(c, Convexified):
        return peak * _eval(c.base, (a / peak) ** c.p) ** (1.0 / c.p)
    if isinstance(c, Dual):
        base = c.base
        if isinstance(base, KyFan):
            k = min(base.k, a.size)
            return max(peak, float(a.sum()) / k)
        return peak * _dual_numeric(base, np.sort(a / peak)[::-1])
    raise GaugeParseError(f"not a gauge descriptor: {c!r}")


def _dual_numeric(base: Gauge, a: np.ndarray) -> float:
    from scipy.optimize import minimize

    n = a.size
    starts = [a]
    for k in (1, max(1, n // 2), n):
        e = np.zeros(n)
        e[:k] = 1.0
        starts.append(e)

    def score(v: np.ndarray) -> float:
        v = np.clip(v, 0.0, None)
        nv = _eval(base, v)
        if nv <= 0.0:
            return 0.0
        return float(a @ v) / nv

    best = max(score(v0) for v0 in starts)
    cons = [{"type": "ineq", "fun": lambda v: 1.0 - _eval(base, np.abs(v))}]
    for v0 in starts:
        nv0 = _eval(base, v0)
        res = minimize(
            lambda v: -float(a @ v),
            v0 / nv0,
            method="SLSQP",
            bounds=[(0.0, None)] * n,
            constraints=cons,
            options={"maxiter": 300, "ftol": 1e-14},
        )
        best = max(best, score(np.asarray(res.x)))
    return best

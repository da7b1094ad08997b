"""1-symmetric sequence norms (symmetric gauge functions) and their algebra.

A gauge here is a norm on R^n that is invariant under permutations and sign
changes of the coordinates and normalized so that ``‖e1‖ = 1``.  Evaluating a
gauge on the singular values of a matrix yields the corresponding unitarily
invariant matrix norm (see :mod:`spectral_mazur.matnorm`).

Four constructors generate the descriptor family:

``Lp(p)``
    ``(sum |v_i|^p)^(1/p)`` for ``1 <= p < inf``; ``max |v_i|`` for ``p = inf``.
``KyFan(k)``
    Sum of the ``k`` largest ``|v_i|`` (``k > n`` behaves as ``k = n``).
``Convexified(base, p)``
    The p-convexification ``v -> base(|v|^p)^(1/p)``.
``Dual(base)``
    The dual norm ``w -> sup { <v, w> : base(v) <= 1 }``.

Descriptors are immutable, hashable, and round-trip through a compact string
form (``lp:2``, ``lp:inf``, ``kyfan:3``, ``conv:2:lp:1``, ``dual:kyfan:2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GaugeParseError, NotSmooth, NumericalFailure, ZeroVector

__all__ = [
    "Gauge",
    "Lp",
    "KyFan",
    "Convexified",
    "Dual",
    "parse_gauge",
    "format_gauge",
    "eval_gauge",
    "eval_gauge_rows",
    "dual_gauge",
    "convexify",
    "duality_map_seq",
]


class Gauge:
    """Base class for gauge descriptors.  Use the subclasses to construct."""

    @cached_property
    def _canon(self) -> Gauge:
        # computed on first use; descriptors are frozen, so it never goes stale
        return _canonical(self)

    @property
    def smooth(self) -> bool:
        """True when the norm is Gateaux-differentiable away from 0.

        In this grammar that is the same as ``strictly_convex`` (the unit
        sphere contains no line segment), and both hold exactly when the
        canonical form is ``Lp(p)`` with ``1 < p < inf``: for n > 1 the Ky Fan
        norms, their convexifications and the duals of those have kinks
        where the active top-k set changes, and flat faces along which the
        coordinates outside it move freely.
        """
        c = self._canon
        return isinstance(c, Lp) and 1.0 < c.p < math.inf

    strictly_convex = smooth

    def __str__(self) -> str:
        return format_gauge(self)


def _check_exponent(p) -> float:
    try:
        p = float(p)
    except (TypeError, ValueError):
        raise GaugeParseError(f"exponent must be a number, got {p!r}") from None
    if math.isnan(p) or p < 1.0:
        raise GaugeParseError(f"exponent must satisfy p >= 1, got {p}")
    return p


@dataclass(frozen=True)
class Lp(Gauge):
    """The little l^p norm, ``p`` in ``[1, inf]``."""

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent(self.p))


@dataclass(frozen=True)
class KyFan(Gauge):
    """Sum of the ``k`` largest absolute entries."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or isinstance(self.k, bool):
            raise GaugeParseError(f"Ky Fan index must be an integer, got {self.k!r}")
        if self.k < 1:
            raise GaugeParseError(f"Ky Fan index must satisfy k >= 1, got {self.k}")
        object.__setattr__(self, "k", int(self.k))


@dataclass(frozen=True)
class Convexified(Gauge):
    """p-convexification of ``base``: ``v -> base(|v|^p)^(1/p)``."""

    base: Gauge
    p: float

    def __post_init__(self):
        if not isinstance(self.base, Gauge):
            raise GaugeParseError(f"base must be a gauge, got {self.base!r}")
        object.__setattr__(self, "p", _check_exponent(self.p))


@dataclass(frozen=True)
class Dual(Gauge):
    """Dual norm of ``base`` under the standard coordinate pairing."""

    base: Gauge

    def __post_init__(self):
        if not isinstance(self.base, Gauge):
            raise GaugeParseError(f"base must be a gauge, got {self.base!r}")


# ---------------------------------------------------------------------------
# string form


def _format_exponent(p: float) -> str:
    if math.isinf(p):
        return "inf"
    if p == int(p):
        return str(int(p))
    return repr(p)


def format_gauge(g: Gauge) -> str:
    """Render a descriptor in the compact string form accepted by the CLI."""
    if isinstance(g, Lp):
        return f"lp:{_format_exponent(g.p)}"
    if isinstance(g, KyFan):
        return f"kyfan:{g.k}"
    if isinstance(g, Convexified):
        return f"conv:{_format_exponent(g.p)}:{format_gauge(g.base)}"
    if isinstance(g, Dual):
        return f"dual:{format_gauge(g.base)}"
    raise GaugeParseError(f"not a gauge descriptor: {g!r}")


def parse_gauge(text: str) -> Gauge:
    """Parse the compact string form.

    The grammar is ``lp:<p>``, ``kyfan:<k>``, ``conv:<p>:<gauge>``,
    ``dual:<gauge>`` with ``<p>`` a decimal number ``>= 1`` or ``inf``.
    Parsing preserves the written structure; no algebraic simplification is
    applied (so ``conv:2:lp:1`` formats back as written even though it
    evaluates like ``lp:2``).
    """
    if not isinstance(text, str):
        raise GaugeParseError(f"gauge descriptor must be a string, got {text!r}")
    s = text.strip()
    head, sep, rest = s.partition(":")
    if not sep or not rest:
        raise GaugeParseError(f"malformed gauge descriptor {text!r}")
    if head == "lp":
        return Lp(_parse_exponent(rest, text))
    if head == "kyfan":
        try:
            k = int(rest)
        except ValueError:
            raise GaugeParseError(f"bad Ky Fan index in {text!r}") from None
        return KyFan(k)
    if head == "conv":
        p_text, sep2, base_text = rest.partition(":")
        if not sep2 or not base_text:
            raise GaugeParseError(f"malformed gauge descriptor {text!r}")
        return Convexified(parse_gauge(base_text), _parse_exponent(p_text, text))
    if head == "dual":
        return Dual(parse_gauge(rest))
    raise GaugeParseError(f"unknown gauge kind {head!r} in {text!r}")


def _parse_exponent(p_text: str, full: str) -> float:
    if p_text.strip() == "inf":
        return math.inf
    try:
        p = float(p_text)
    except ValueError:
        raise GaugeParseError(f"bad exponent in {full!r}") from None
    if math.isnan(p) or math.isinf(p) or p < 1.0:
        raise GaugeParseError(f"exponent must be >= 1 in {full!r}")
    return p


# ---------------------------------------------------------------------------
# canonical form


def _canonical(g: Gauge) -> Gauge:
    """Reduce a descriptor tree using exact norm identities.

    ``Convexified(Lp(q), p) = Lp(pq)``, nested convexifications multiply the
    exponents, ``Dual(Lp(p)) = Lp(p')`` and ``Dual(Dual(g)) = g`` (the spaces
    are finite-dimensional, hence reflexive).  The result is one of: ``Lp``,
    ``KyFan``, ``Convexified`` with a non-Lp base, or ``Dual`` of such.
    Subtrees are read from their cached forms, so each node is reduced once.
    """
    if isinstance(g, (Lp, KyFan)):
        return g
    if isinstance(g, Convexified):
        base = g.base._canon
        if g.p == 1.0:
            return base
        if isinstance(base, Lp):
            return Lp(base.p * g.p)
        if isinstance(base, Convexified):
            return Convexified(base.base, base.p * g.p)
        return Convexified(base, g.p)
    if isinstance(g, Dual):
        # cancel a dual pair before conjugating: conjugating twice rounds q
        if isinstance(g.base, Dual):
            return g.base.base._canon
        base = g.base._canon
        if isinstance(base, Lp):
            return Lp(_conjugate(base.p))
        return Dual(base)
    raise GaugeParseError(f"not a gauge descriptor: {g!r}")


def _canonical_form(g) -> Gauge:
    """The cached canonical form of ``g``; rejects anything but a descriptor."""
    if not isinstance(g, Gauge):
        raise GaugeParseError(f"not a gauge descriptor: {g!r}")
    return g._canon


def _conjugate(p: float) -> float:
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


# ---------------------------------------------------------------------------
# evaluation


def _as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise GaugeParseError(f"expected a nonempty 1-d real vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalFailure("vector contains NaN or Inf")
    return a


def eval_gauge(g: Gauge, v) -> float:
    """Evaluate the gauge on a real vector (any length >= 1)."""
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
        return peak * float(np.sum((a / peak) ** c.p) ** (1.0 / c.p))
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


def eval_gauge_rows(g: Gauge, a) -> np.ndarray:
    """Evaluate the gauge on each row of a real 2-d array.

    Row ``j`` of the result equals ``eval_gauge(g, a[j])`` bit for bit.
    Finiteness is checked once for the whole array.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise GaugeParseError(f"expected a nonempty 2-d real array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NumericalFailure("array contains NaN or Inf")
    return _eval_rows(_canonical_form(g), np.abs(a))


def _eval_rows(c: Gauge, a: np.ndarray) -> np.ndarray:
    """:func:`_eval` on each row of a nonnegative finite 2-d array.

    The closed forms mirror :func:`_eval` operation by operation, with each
    row's root taken by the scalar pow that :func:`_eval` uses, because
    numpy's array pow differs from it in the last bit on a few percent of
    entries.  Duals without a closed form go row by row through :func:`_eval`.
    """
    peak = a.max(axis=1)
    if isinstance(c, Lp) and math.isinf(c.p):
        return peak
    if isinstance(c, Lp) and c.p == 1.0:
        return a.sum(axis=1)
    if isinstance(c, KyFan):
        return np.sort(a, axis=1)[:, ::-1][:, : c.k].sum(axis=1)
    if isinstance(c, Dual) and isinstance(c.base, KyFan):
        return np.maximum(peak, a.sum(axis=1) / min(c.base.k, a.shape[1]))
    if isinstance(c, Dual):
        return np.array([_eval(c, row) for row in a])
    # Lp with 1 < p < inf, or Convexified: peak * inner((a / peak)^p)^(1/p)
    if not peak.all():
        out = np.zeros_like(peak)
        nz = peak > 0.0
        out[nz] = _eval_rows(c, a[nz])
        return out
    scaled = (a / peak[:, None]) ** c.p
    inner = scaled.sum(axis=1) if isinstance(c, Lp) else _eval_rows(c.base, scaled)
    inv = 1.0 / c.p
    return peak * np.array([s**inv for s in inner.tolist()])


def _dual_numeric(base: Gauge, a: np.ndarray) -> float:
    """Numerically evaluate ``sup { <a, v> : base(v) <= 1, v >= 0 }``.

    Used only for bases without a closed-form dual (e.g. convexified Ky Fan
    norms).  The supremum of a linear functional over a convex body is solved
    with SLSQP from several starts; every candidate is rescaled onto the unit
    sphere before scoring, so the returned value is an achieved (never
    overshooting) objective value.
    """
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


# ---------------------------------------------------------------------------
# derived constructions


def dual_gauge(g: Gauge) -> Gauge:
    """Descriptor of the dual norm: the canonical form of ``Dual(g)``.

    Closed forms are produced where they exist: ``Lp(p) -> Lp(p')`` and
    ``Dual(b) -> b``; ``KyFan(k)`` duals evaluate as
    ``max(max|v|, sum|v|/k)``.
    """
    return Dual(g)._canon


def convexify(g: Gauge, p) -> Gauge:
    """p-convexification: the canonical form of ``Convexified(g, p)``.

    ``convexify(Lp(q), p) = Lp(pq)`` and nested convexifications multiply
    their exponents.
    """
    return Convexified(g, p)._canon


def duality_map_seq(g: Gauge, v) -> np.ndarray:
    """Duality map ``J`` of a smooth gauge at ``v != 0``.

    ``J(v)`` is the unique vector with ``<J(v), v> = ‖v‖²`` and
    ``‖J(v)‖_dual = ‖v‖`` — the gradient of ``v -> ½‖v‖²``.  Requires a
    smooth gauge; in this descriptor family the smooth members all reduce to
    ``Lp(p)`` with ``1 < p < inf``, where
    ``J(v) = sign(v) |v|^(p-1) ‖v‖^(2-p)``.
    """
    a = _as_vector(v)
    c = _canonical_form(g)
    if not g.smooth:
        raise NotSmooth(f"gauge {format_gauge(g)} is not smooth; no duality map")
    if not np.any(a):
        raise ZeroVector("duality map undefined at the zero vector")
    p = c.p
    peak = float(np.abs(a).max())
    w = np.abs(a) / peak
    norm_w = float(np.sum(w**p) ** (1.0 / p))
    return np.sign(a) * w ** (p - 1.0) * (norm_w ** (2.0 - p)) * peak

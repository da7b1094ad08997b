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
from dataclasses import dataclass, field
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

        In this grammar a gauge is smooth exactly when it is strictly convex
        (its unit sphere contains no line segment), and both hold exactly
        when the canonical form is ``Lp(p)`` with ``1 < p < inf``: for n > 1
        the Ky Fan norms, their convexifications and the duals of those have
        kinks where the active top-k set changes, and flat faces along which
        the coordinates outside it move freely.
        """
        c = self._canon
        return isinstance(c, Lp) and 1.0 < c.p < math.inf

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
    # the exponent whose conjugate ``p`` is, when canonicalisation made this
    # form from ``Dual(Lp(dual_of))``: the dual of this form is then
    # ``Lp(dual_of)`` exactly, where conjugating ``p`` again would round.  It
    # takes no part in equality, hashing or the string form.
    _dual_of: float | None = field(default=None, init=False, compare=False, repr=False)

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
    evaluates like ``lp:2``).  It is canonicalised once, so shapes
    :func:`_canonical` refuses are refused here, as is a descriptor nested
    deeper than the recursion limit.
    """
    try:
        g = _parse(text)
        _canonical_form(g)
    except RecursionError:
        raise GaugeParseError("gauge descriptor is nested too deeply") from None
    return g


def _parse(text: str) -> Gauge:
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
        return Convexified(_parse(base_text), _parse_exponent(p_text, text))
    if head == "dual":
        return Dual(_parse(rest))
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

    ``Convexified(Lp(q), p) = Lp(pq)``, ``Convexified(g, inf) = Lp(inf)``,
    nested convexifications multiply the exponents, ``Dual(Lp(p)) = Lp(p')``
    and ``Dual(Dual(g)) = g`` (finite dimension, so reflexive).  The result is
    ``Lp``, ``KyFan``, ``Convexified`` of finite p and a non-Lp base, or ``Dual`` of such.
    Subtrees are read from their cached forms, so each node is reduced once.
    ``dual:conv:p:dual:conv:r:...`` has no closed form: it raises.
    """
    if isinstance(g, (Lp, KyFan)):
        return g
    if isinstance(g, Convexified):
        base = g.base._canon
        if g.p == 1.0:
            return base
        if math.isinf(g.p):
            return Lp(math.inf)
        if isinstance(base, Lp):
            return Lp(base.p * g.p)
        if isinstance(base, Convexified):
            return Convexified(base.base, base.p * g.p)
        return Convexified(base, g.p)
    if isinstance(g, Dual):
        if isinstance(g.base, Dual):  # cancel a written pair: its inner dual may have no closed form
            return g.base.base._canon
        base = g.base._canon
        if isinstance(base, Lp):
            return _dual_lp(base)
        if isinstance(base, Dual):
            return base.base
        if isinstance(base, Convexified) and isinstance(base.base, Dual) and isinstance(base.base.base, Convexified):
            raise GaugeParseError(f"no closed form for {format_gauge(g)}: the dual of a convexified dual:conv: gauge")
        return Dual(base)
    raise GaugeParseError(f"not a gauge descriptor: {g!r}")


def _canonical_form(g) -> Gauge:
    """The cached canonical form of ``g``; rejects anything but a descriptor."""
    if not isinstance(g, Gauge):
        raise GaugeParseError(f"not a gauge descriptor: {g!r}")
    return g._canon


def _dual_lp(base: Lp) -> Lp:
    """``Lp(p')`` for ``base = Lp(p)``, remembering ``p``; a form that was
    itself conjugated gives back the exponent it came from."""
    out = Lp(_conjugate(base.p) if base._dual_of is None else base._dual_of)
    object.__setattr__(out, "_dual_of", base.p)
    return out


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
    return _finite(a)


def _finite(a: np.ndarray) -> np.ndarray:
    """``a``, after checking that it holds no NaN or Inf."""
    if not np.isfinite(a).all():
        raise NumericalFailure("vector contains NaN or Inf")
    return a


def eval_gauge(g: Gauge, v) -> float:
    """Evaluate the gauge on a real vector (any length >= 1)."""
    return _eval(_canonical_form(g), np.abs(_as_vector(v)))


def _eval(c: Gauge, a: np.ndarray) -> float:
    """:func:`_eval_rows` of a nonnegative finite vector, as a one-row array."""
    return float(_eval_rows(c, a[None])[0])


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
    """The canonical gauge ``c`` on each row of a nonnegative finite 2-d array.

    This is the one evaluator: a single vector goes through it as a one-row
    array (:func:`_eval`), and each row's value depends on that row alone.
    Zero rows give 0.  Powers are taken of the row scaled by its peak, so
    they cannot overflow for large ``p``.  The ``Lp``/``Convexified`` root
    is ``np.float_power``, which calls the C library's ``pow`` per entry, as
    Python's float pow does, and so gives its bits; numpy's ``**`` on an
    array may take a SIMD loop that differs in the last bit.  Row peaks are
    taken down the columns of ``a.T``, which is fast for rows only 2 or 3
    wide and exact, as any max is.  The grid oracle passes the transpose of
    its ``(dim, points)`` grid, so there ``a.T`` is already contiguous and
    is not copied.  Row sums stay along the rows, because their pairwise
    order fixes their bits; rows narrower than 8 sum left to right in
    either layout.

    ``Dual(Convexified(B, p))`` is exact on the descending scaled row
    ``phi``, padded with ``phi_n = 0``, and ``q = p'``: the ``a`` largest
    entries are kept and the rest pooled into ``k - a`` equal entries ``L``,
    ``a`` being the first index below ``min(k, n)`` whose entry is at most
    ``L``, or ``n`` if none is.  For ``B = KyFan(k)``, ``L`` keeps the sum,
    and this is the (k, q)-support norm ``‖(phi_<a, L, ..., L)‖_q``
    (Argyriou, Foygel & Srebro, NeurIPS 2012; McDonald, Pontil & Stamos, JMLR
    2016).  For ``B = Dual(KyFan(k))``, with ball ``{v <= 1, sum v^p <= k}``,
    ``L`` keeps the l^q norm, and the capped water-filling value is
    ``sum phi_<a + (k - a) L``.  The ``k - a`` entries ``L`` enter as one,
    ``(k - a)^(1/q) L`` or ``(k - a) L``, so no power of ``L`` can overflow.
    """
    peak = np.ascontiguousarray(a.T).max(axis=0)
    if isinstance(c, Lp) and math.isinf(c.p):
        return peak
    if isinstance(c, Lp) and c.p == 1.0:
        return a.sum(axis=1)
    if isinstance(c, KyFan):
        return np.sort(a, axis=1)[:, ::-1][:, : c.k].sum(axis=1)
    if isinstance(c, Dual) and isinstance(c.base, KyFan):
        return np.maximum(peak, a.sum(axis=1) / min(c.base.k, a.shape[1]))
    if not peak.all():
        out, nz = np.zeros_like(peak), peak > 0.0
        out[nz] = _eval_rows(c, a[nz])
        return out
    if isinstance(c, Dual):
        # c.base is Convexified(B, p), B = KyFan(k) or Dual(KyFan(k)); k > n behaves as
        # k = n, so no index past int64 reaches numpy; a = k: no index below k hits
        support = isinstance(c.base.base, KyFan)
        k = min(c.base.base.k if support else c.base.base.base.k, a.shape[1])
        p, q = c.base.p, _conjugate(c.base.p)
        phi = np.pad(-np.sort(-(a / peak[:, None]), axis=1), ((0, 0), (0, 1)))
        if support:  # T_a
            tails = np.cumsum(phi[:, ::-1], axis=1)[:, ::-1][:, : k + 1]
            hit = (k - np.arange(k + 1)) * phi[:, : k + 1] <= tails
        else:  # S_a^(1/q), peak-scaled by the l^q evaluator, so no power that counts underflows
            tails = _eval_rows(Lp(q), np.triu(np.repeat(phi[:, None], k + 1, axis=1)).reshape(-1, phi.shape[1]))
            tails = tails.reshape(len(a), k + 1)
            hit = (k - np.arange(k + 1)) ** (1.0 / q) * phi[:, : k + 1] <= tails
        hit[:, k] = True
        at = hit.argmax(axis=1)
        kept = np.where(np.arange(phi.shape[1]) < at[:, None], phi, 0.0)
        pooled = tails[np.arange(len(a)), at] * (k - at) ** (-1.0 / p if support else 1.0 / p)
        return peak * _eval_rows(Lp(q if support else 1.0), np.hstack([kept, pooled[:, None]]))
    # Lp with 1 < p < inf, or Convexified: peak * inner((a / peak)^p)^(1/p)
    scaled = (a / peak[:, None]) ** c.p
    inner = scaled.sum(axis=1) if isinstance(c, Lp) else _eval_rows(c.base, scaled)
    return peak * np.float_power(inner, 1.0 / c.p)


# ---------------------------------------------------------------------------
# derived constructions


def dual_gauge(g: Gauge) -> Gauge:
    """Descriptor of the dual norm: the canonical form of ``Dual(g)``.

    Closed forms are produced where they exist: ``Lp(p) -> Lp(p')`` and
    ``Dual(b) -> b``; ``KyFan(k)`` duals evaluate as
    ``max(max|v|, sum|v|/k)``, those of ``conv:p:kyfan:k`` and
    ``conv:p:dual:kyfan:k`` as the (k, p')-support norm and its capped
    water-filling counterpart (:func:`_eval_rows`); ``dual:conv:...`` inside
    another ``dual:conv:`` raises :class:`GaugeParseError`.  Applied twice
    to ``Lp(p)`` it gives back ``Lp(p)`` exactly, not ``Lp(p'')`` rounded.
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
    return _duality_map(c, a)


def _duality_map(c: Lp, a: np.ndarray) -> np.ndarray:
    """:func:`duality_map_seq` of the canonical ``Lp(p)``, ``1 < p < inf``, at a
    finite nonzero vector; nothing is checked."""
    p = c.p
    peak = float(np.abs(a).max())
    w = np.abs(a) / peak
    norm_w = float((w**p).sum() ** (1.0 / p))
    return np.sign(a) * w ** (p - 1.0) * (norm_w ** (2.0 - p)) * peak

"""Empirical modulus-of-continuity profiles for the sphere maps.

For a map ``T`` between normed spheres, the modulus at scale ``t`` is the
largest observed ``distance(T(A), T(B))`` over sampled pairs with
``distance(A, B)`` near ``t``.  Pairs mix three kinds: identical (the modulus
must vanish at 0), small perturbations with log-uniform magnitude, and
independent draws.  Observed distances are folded into fixed logarithmic
bins and post-processed into a monotone envelope.

Every map is a power map between the unit spheres of a base gauge and of its
``e``-convexification, with a proven bound checked per sample (before
binning):

- ``Gp``    : ``A ↦ A^p``, the p-convexification of ``g`` into ``g``;
              bound ``3 p t``.
- ``Gp_inv``: ``A ↦ A^(1/p)``, ``g`` into its p-convexification; bound
              ``t^(1/p)``.
- ``FX``    : the entropy minimizer, ``lp:1`` into ``g``; bound ``t^(1/q)``.
- ``FX_inv``: the norming state, ``g`` into ``lp:1``; bound ``3 q t``.

The entropy maps read their exponent from the gauge: every gauge they accept
canonicalises to ``lp:q``, the q-convexification of ``lp:1``.  On PSD input
``FX`` is ``ρ ↦ ρ^(1/q)``, which is ``Gp_inv`` of ``(lp:1, q)``, and Ando's
inequality for the operator-monotone ``x^(1/q)`` (Ando 1988, "Comparison of
norms |||f(A)−f(B)||| and |||f(|A−B|)|||"; Birman–Koplienko–Solomyak 1975)
gives ``‖ρ^(1/q) − σ^(1/q)‖_q ≤ ‖ρ − σ‖_1^(1/q)``.  ``FX_inv`` is
``A ↦ A^q``, which is ``Gp`` of ``(lp:1, q)``.  ``FX`` also accepts
``lp:1`` itself (``q = 1``, where it is the identity and the bound ``t`` is
attained); ``FX_inv`` needs a smooth gauge, ``q > 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..entropy import entropy_min_general, norming_state
from ..errors import ConfigError, NotSmooth, NumericalFailure
from ..gauge import Gauge, Lp, _canonical_form, convexify, eval_gauge, format_gauge
from ..matnorm import _habs
from ..mazur import _check_power, mazur_forward, mazur_inverse
from . import sampling
from .config import SuiteConfig, _fields_json

__all__ = ["MAP_NAMES", "ModulusProfile", "estimate_modulus"]

MAP_NAMES = ("Gp", "Gp_inv", "FX", "FX_inv")

_T_MIN = 1e-6
_T_MAX = 2.0
_NBINS = 36


@dataclass(frozen=True)
class ModulusProfile:
    """Binned modulus estimate plus the per-sample bound-check tally."""

    map_name: str
    bins: tuple[dict, ...]
    bound_violations: int

    def to_json(self) -> dict:
        return _fields_json(self)

    def to_csv(self) -> str:
        lines = ["t,omega,count,bound"]
        for b in self.bins:
            lines.append(f"{b['t']:.15g},{b['omega']:.15g},{b['count']},{b['bound']:.15g}")
        return "\n".join(lines) + "\n"


def _norm_herm(g: Gauge, h: np.ndarray) -> float:
    return eval_gauge(g, _habs(h))


def _unit_psd(rng: np.random.Generator, n: int, g: Gauge) -> np.ndarray:
    a = sampling.psd([rng], n)[0]
    return a / _norm_herm(g, a)


def _perturb_psd(rng: np.random.Generator, a: np.ndarray, g: Gauge) -> np.ndarray:
    delta = 10.0 ** rng.uniform(-6.5, 0.3)
    b = a + delta * sampling.psd([rng], a.shape[0])[0]
    return b / _norm_herm(g, b)


def _sphere_map(map_name: str, gauge: Gauge, p: float | None, label: str | None = None):
    """``(domain gauge, image gauge, map, bound)`` of one sphere map.

    Every argument and precondition check of the map is made here, so a
    caller can refuse a call before it does any work.  Messages name the map
    ``label``, by default ``map_name``.
    """
    if map_name not in MAP_NAMES:
        raise ConfigError(f"unknown map {map_name!r}; choose from {list(MAP_NAMES)}")
    label = label or map_name
    if map_name in ("Gp", "Gp_inv"):
        if p is None:
            raise ConfigError(f"map {label!r} requires an exponent p")
        _check_power(p)
        base, conv, e = gauge, convexify(gauge, p), p
        power, root = partial(mazur_forward, p=p), partial(mazur_inverse, p=p)
    else:
        if p is not None:
            raise ConfigError(f"map {label!r} takes no exponent p")
        c = _canonical_form(gauge)
        if not (gauge.smooth or (map_name == "FX" and c == Lp(1.0))):
            raise NotSmooth(f"gauge {format_gauge(gauge)} is not smooth")
        base, conv, e = Lp(1.0), gauge, c.p
        power = partial(norming_state, gauge)

        def root(b):
            return entropy_min_general(gauge, b).minimizer

    if map_name in ("Gp", "FX_inv"):  # the e-th power, from conv onto base
        dom, img, apply = conv, base, power

        def bound(t):
            return 3.0 * e * t

    else:
        dom, img, apply = base, conv, root

        def bound(t):
            return t ** (1.0 / e)

    return dom, img, apply, bound


def _profiled_map(map_name: str, gauge: Gauge, p: float | None):
    """:func:`_sphere_map`, refused unless its bound is finite at the largest
    bin: every refusal :func:`estimate_modulus` makes before it samples."""
    sphere = _sphere_map(map_name, gauge, p)
    if not math.isfinite(sphere[3](_T_MAX)):
        raise NumericalFailure(f"the bound of {map_name} overflows at t = {_T_MAX:g}")
    return sphere


def estimate_modulus(map_name: str, cfg: SuiteConfig, gauge: Gauge, p: float | None = None) -> ModulusProfile:
    """Estimate the modulus profile of one sphere map under ``gauge``.

    ``p`` is required for the power maps ``Gp`` / ``Gp_inv``, where it must
    be finite, and refused otherwise: the entropy maps read their exponent
    from ``gauge``, whose smoothness (or, for ``FX``, equality with
    ``lp:1``) is checked before the first sample, as is a finite bound at
    the largest bin (else :class:`NumericalFailure`).  Sample count is
    ``len(cfg.dims) * cfg.samples_per_case``.
    """
    dom, img, apply, bound = _profiled_map(map_name, gauge, p)

    edges = np.geomspace(_T_MIN, _T_MAX, _NBINS + 1)
    omega = np.zeros(_NBINS)
    counts = np.zeros(_NBINS, dtype=int)
    bound_violations = 0

    for n in cfg.dims:
        for i in range(cfg.samples_per_case):
            rng = sampling.make_rng(cfg.seed, "modulus", map_name, n, i)
            kind = i % 8
            a = _unit_psd(rng, n, dom)
            if kind == 0:
                b = a
            elif kind < 6:
                b = _perturb_psd(rng, a, dom)
            else:
                b = _unit_psd(rng, n, dom)
            d = _norm_herm(img, apply(a) - apply(b))

            if kind == 0:
                # identical inputs through a deterministic map: the modulus
                # at 0 must be exactly 0
                if d != 0.0:
                    bound_violations += 1
                continue
            t = _norm_herm(dom, a - b)
            if t <= 0.0:
                continue
            if d > bound(t) * (1.0 + cfg.rel_tol) + cfg.abs_tol:
                bound_violations += 1
            idx = int(np.searchsorted(edges, t, side="right")) - 1
            idx = min(max(idx, 0), _NBINS - 1)
            counts[idx] += 1
            omega[idx] = max(omega[idx], d)

    envelope = np.maximum.accumulate(omega)
    bins = []
    for k in range(_NBINS):
        top = float(edges[k + 1])
        bins.append(
            {
                "t": top,
                "omega": float(envelope[k]),
                "count": int(counts[k]),
                "bound": float(bound(top)),
            }
        )
    return ModulusProfile(map_name=map_name, bins=tuple(bins), bound_violations=bound_violations)

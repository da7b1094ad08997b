"""Empirical modulus-of-continuity profiles for the sphere maps.

For a map ``T`` between normed spheres, the modulus at scale ``t`` is the
largest observed ``distance(T(A), T(B))`` over sampled pairs with
``distance(A, B)`` near ``t``.  Pairs mix three kinds: identical (the modulus
must vanish at 0), small perturbations with log-uniform magnitude, and
independent draws.  Observed distances are folded into fixed logarithmic
bins and post-processed into a monotone envelope.

Two of the maps carry proven Lipschitz-type upper bounds which are checked
per sample (before binning):

- ``Gp``   : p-th power map, unit sphere of the p-convexification into the
             base sphere; bound ``3 p t``.
- ``Gp_inv``: p-th root map, base sphere into the p-convexification sphere;
             bound ``t^(1/p)``.
- ``FX`` / ``FX_inv``: entropy minimizer / norming state; profiled
             empirically with no bound curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..entropy import entropy_min_mat, norming_state
from ..errors import ConfigError
from ..gauge import Gauge, convexify, eval_gauge
from ..mazur import mazur_forward, mazur_inverse
from . import sampling
from .config import SuiteConfig

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
        return {
            "map_name": self.map_name,
            "bins": list(self.bins),
            "bound_violations": self.bound_violations,
        }

    def to_csv(self) -> str:
        lines = ["t,omega,count,bound"]
        for b in self.bins:
            bound = "" if b["bound"] is None else f"{b['bound']:.15g}"
            lines.append(f"{b['t']:.15g},{b['omega']:.15g},{b['count']},{bound}")
        return "\n".join(lines) + "\n"


def _habs(h: np.ndarray) -> np.ndarray:
    return np.sort(np.abs(np.linalg.eigvalsh(h)))[::-1]


def _norm_herm(g: Gauge, h: np.ndarray) -> float:
    return eval_gauge(g, _habs(h))


def _unit_psd(rng: np.random.Generator, n: int, g: Gauge) -> np.ndarray:
    a = sampling.psd(rng, n)
    return a / _norm_herm(g, a)


def _perturb_psd(rng: np.random.Generator, a: np.ndarray, g: Gauge) -> np.ndarray:
    delta = 10.0 ** rng.uniform(-6.5, 0.3)
    b = a + delta * sampling.psd(rng, a.shape[0])
    return b / _norm_herm(g, b)


def estimate_modulus(
    map_name: str,
    cfg: SuiteConfig,
    gauge: Gauge,
    p: float | None = None,
) -> ModulusProfile:
    """Estimate the modulus profile of one sphere map under ``gauge``.

    ``p`` is required for the power maps ``Gp`` / ``Gp_inv`` and refused
    otherwise: no other map reads it.  Sample count is ``len(cfg.dims) * cfg.samples_per_case``.
    """
    if map_name not in MAP_NAMES:
        raise ConfigError(f"unknown map {map_name!r}; choose from {list(MAP_NAMES)}")
    power_map = map_name in ("Gp", "Gp_inv")
    if power_map:
        if p is None:
            raise ConfigError(f"map {map_name!r} requires an exponent p")
        conv = convexify(gauge, p)
    elif p is not None:
        raise ConfigError(f"map {map_name!r} takes no exponent p")

    if map_name == "Gp":
        dom, img = conv, gauge

        def apply(a):
            return mazur_forward(a, p)

        def bound(t):
            return 3.0 * p * t

    elif map_name == "Gp_inv":
        dom, img = gauge, conv

        def apply(a):
            return mazur_inverse(a, p)

        def bound(t):
            return t ** (1.0 / p)

    elif map_name == "FX":
        img = gauge

        def apply(a):
            return entropy_min_mat(gauge, a).minimizer

        bound = None
    else:  # FX_inv
        dom = gauge

        def apply(a):
            return norming_state(gauge, a)

        bound = None

    edges = np.geomspace(_T_MIN, _T_MAX, _NBINS + 1)
    omega = np.zeros(_NBINS)
    counts = np.zeros(_NBINS, dtype=int)
    bound_violations = 0

    for n in cfg.dims:
        for i in range(cfg.samples_per_case):
            rng = sampling.make_rng(cfg.seed, "modulus", map_name, n, i)
            kind = i % 8
            if map_name == "FX":
                a = sampling.state(rng, n)
                if kind == 0:
                    b = a
                elif kind < 6:
                    delta = 10.0 ** rng.uniform(-6.5, -0.1)
                    b = (1.0 - delta) * a + delta * sampling.state(rng, n)
                else:
                    b = sampling.state(rng, n)
                t = float(np.abs(np.linalg.eigvalsh(a - b)).sum())
            else:
                a = _unit_psd(rng, n, dom)
                if kind == 0:
                    b = a
                elif kind < 6:
                    b = _perturb_psd(rng, a, dom)
                else:
                    b = _unit_psd(rng, n, dom)
                t = _norm_herm(dom, a - b)

            if map_name == "FX_inv":
                d = float(np.abs(np.linalg.eigvalsh(apply(a) - apply(b))).sum())
            else:
                d = _norm_herm(img, apply(a) - apply(b))

            if kind == 0:
                # identical inputs through a deterministic map: the modulus
                # at 0 must be exactly 0
                if d != 0.0:
                    bound_violations += 1
                continue
            if bound is not None and t > 0.0:
                if d > bound(t) * (1.0 + cfg.rel_tol) + cfg.abs_tol:
                    bound_violations += 1
            if t <= 0.0:
                continue
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
                "bound": (float(bound(top)) if bound is not None else None),
            }
        )
    return ModulusProfile(map_name=map_name, bins=tuple(bins), bound_violations=bound_violations)

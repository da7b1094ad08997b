"""Randomized verification suites for the norm and map inequalities.

Each suite draws deterministic random instances (see ``sampling``), evaluates
an inequality ``lhs <= rhs`` for every applicable gauge/exponent combination,
and reports violations under the rule ``lhs > rhs * (1 + rel_tol) + abs_tol``.
Suites are registered by name; ``run_inequality_suite`` evaluates one suite
and produces a deterministic :class:`SuiteReport`.

Concurrency model: the sample stream is partitioned by index, each sample is
evaluated independently (its generator is derived from the sample index, not
from a shared stream), and partial results are merged in index order — so the
report bytes cannot depend on the number of threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..entropy import entropy_min_general, entropy_min_mat, norming_state, rel_entropy
from ..errors import UnknownSuite
from ..gauge import Lp, eval_gauge
from ..matnorm import _EPS, matrix_to_json
from ..mazur import MazurParams, mazur_inverse
from . import sampling
from .config import SuiteConfig, SuiteReport, Violation

__all__ = ["SUITE_NAMES", "CORE_SUITE_NAMES", "run_inequality_suite"]

# residual budgets for the fixed-point identities between the unit spheres
_STATE_SIDE_TOL = 1e-6  # minimize-then-map direction, certified by the solver
_SPHERE_SIDE_TOL = 1e-5  # map-then-minimize direction, limited by eigh noise


# ---------------------------------------------------------------------------
# small spectral helpers


def _desc(v: np.ndarray) -> np.ndarray:
    return np.sort(np.asarray(v, dtype=float))[::-1]


def _svals(m: np.ndarray) -> np.ndarray:
    return np.linalg.svd(m, compute_uv=False)


def _habs(h: np.ndarray) -> np.ndarray:
    """Singular values of a Hermitian matrix: |eigenvalues|, descending."""
    return _desc(np.abs(np.linalg.eigvalsh(h)))


def _eigh_clip(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lam, w = np.linalg.eigh(m)
    return np.clip(lam, 0.0, None), w


def _power(lam: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    return (w * lam**p) @ w.conj().T


def _conv(g, s_desc: np.ndarray, p: float) -> float:
    """Norm built from the p-convexified gauge, on known singular values."""
    return eval_gauge(g, s_desc**p) ** (1.0 / p)


def _l1_herm(h: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(h)).sum())


def _l1_gen(m: np.ndarray) -> float:
    return float(_svals(m).sum())


def _psd_log(m: np.ndarray) -> np.ndarray:
    """Matrix log of a (numerically) positive definite Hermitian matrix.

    Eigenvalues are floored at the clamp tolerance so that round-off dust on
    a mathematically positive spectrum cannot produce a NaN.
    """
    lam, w = np.linalg.eigh(m)
    n = lam.size
    floor = max(n * _EPS * float(lam[-1]), 1e-300)
    lam = np.clip(lam, floor, None)
    return (w * np.log(lam)) @ w.conj().T


def _contraction(rng: np.random.Generator, n: int, variant: int) -> np.ndarray:
    """A matrix with operator norm exactly 1, in one of three shapes.

    Variants: scaled Ginibre, scaled Hermitian, or the corner block
    ``[[0, I], [0, 0]]`` (padded when n is odd) — the structured matrix whose
    commutators select block differences.
    """
    if variant == 2 and n >= 2:
        m = n // 2
        b = np.zeros((n, n), dtype=complex)
        b[:m, m : 2 * m] = np.eye(m)
        return b
    if variant == 1:
        h = sampling.hermitian(rng, n)
        return h / _svals(h)[0]
    g = sampling.ginibre(rng, n)
    return g / _svals(g)[0]


def _payload(**kw):
    def build():
        out = {}
        for key, value in kw.items():
            if isinstance(value, np.ndarray):
                out[key] = matrix_to_json(value)
            elif isinstance(value, (np.floating, np.integer)):
                out[key] = float(value)
            else:
                out[key] = value
        return out

    return build


def _fmt(x: float) -> str:
    return str(int(x)) if float(x) == int(x) else repr(float(x))


# ---------------------------------------------------------------------------
# suite workers
#
# Each factory takes the config and returns worker(n, i) -> (cases, records)
# where cases are (label, lhs, rhs, payload_builder) and records are
# (key, value) diagnostic maxima that are tracked but not asserted.


def _holder(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()
    triples = ((2.0, 2.0, 1.0), (3.0, 1.5, 1.0), (4.0, 4.0, 2.0))

    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "holder", n, i)
        a = sampling.ginibre(rng, n)
        b = sampling.ginibre(rng, n)
        sa, sb, sab = _svals(a), _svals(b), _svals(a @ b)
        cases = []
        for gs, g in gauges:
            for p, q, r in triples:
                lhs = _conv(g, sab, r)
                rhs = _conv(g, sa, p) * _conv(g, sb, q)
                label = f"dim={n} i={i} g={gs} pqr=({_fmt(p)},{_fmt(q)},{_fmt(r)})"
                cases.append((label, lhs, rhs, _payload(dim=n, index=i, gauge=gs, p=p, q=q, r=r, A=a, B=b)))
        return cases, []

    return worker


def _ideal(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()

    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "ideal", n, i)
        a = sampling.ginibre(rng, n)
        b = sampling.ginibre(rng, n)
        c = sampling.ginibre(rng, n)
        sb = _svals(b)
        sabc = _svals(a @ b @ c)
        opa = _svals(a)[0]
        opc = _svals(c)[0]
        cases = []
        for gs, g in gauges:
            lhs = eval_gauge(g, sabc)
            rhs = opa * eval_gauge(g, sb) * opc
            cases.append((f"dim={n} i={i} g={gs}", lhs, rhs, _payload(dim=n, index=i, gauge=gs, A=a, B=b, C=c)))
        return cases, []

    return worker


def _contraction_transfer(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()

    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "contraction_transfer", n, i)
        z = sampling.ginibre(rng, n)
        mix = sampling.ucptp_mixture(rng, n)
        w = sampling.apply_mixture(mix, z)
        sz, sw = _svals(z), _svals(w)
        cases = []
        for gs, g in gauges:
            lhs = eval_gauge(g, sw)
            rhs = eval_gauge(g, sz)
            cases.append((f"dim={n} i={i} g={gs}", lhs, rhs, _payload(dim=n, index=i, gauge=gs, z=z, weights=list(map(float, mix[0])))))
        return cases, []

    return worker


def _fan_dominance(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()

    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "fan_dominance", n, i)
        b = sampling.ginibre(rng, n)
        sb = _svals(b)
        variant = int(rng.integers(3))
        if variant == 0:
            sa = _desc(sb * rng.uniform(0.0, 1.0, size=n))
        elif variant == 1:
            # average over random permutations: doubly stochastic mixing
            acc = np.zeros(n)
            for _ in range(3):
                acc += sb[rng.permutation(n)]
            sa = _desc(acc / 3.0)
        else:
            sa = sb * float(rng.uniform(0.2, 1.0))
        # defensive: partial-sum dominance must hold by construction
        if np.any(np.cumsum(sa) > np.cumsum(sb) + 1e-12):
            return [], []
        cases = []
        for gs, g in gauges:
            lhs = eval_gauge(g, sa)
            rhs = eval_gauge(g, sb)
            cases.append(
                (
                    f"dim={n} i={i} g={gs} variant={variant}",
                    lhs,
                    rhs,
                    _payload(dim=n, index=i, gauge=gs, variant=variant, sa=list(map(float, sa)), sb=list(map(float, sb))),
                )
            )
        return cases, []

    return worker


def _lemma41(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()

    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "lemma41", n, i)
        x = sampling.psd(rng, n)
        y = sampling.psd(rng, n)
        lx, wx = _eigh_clip(x)
        ly, wy = _eigh_clip(y)
        sdiff = _habs(x - y)
        cases = []
        for p in cfg.p_grid:
            spow = _habs(_power(lx, wx, p) - _power(ly, wy, p))
            for gs, g in gauges:
                lhs = eval_gauge(g, sdiff**p)
                rhs = eval_gauge(g, spow)
                label = f"dim={n} i={i} g={gs} p={_fmt(p)}"
                cases.append((label, lhs, rhs, _payload(dim=n, index=i, gauge=gs, p=p, x=x, y=y)))
        return cases, []

    return worker


def _lemma42(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()
    thetas = (0.25, 0.5, 0.75, 1.0)

    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "lemma42", n, i)
        x = sampling.psd(rng, n)
        y = sampling.psd(rng, n)
        lx, wx = _eigh_clip(x)
        ly, wy = _eigh_clip(y)
        lxd, lyd = _desc(lx), _desc(ly)
        sdiff = _habs(x - y)
        cases = []
        for theta in thetas:
            q = 1.0 + theta
            sq = _habs(_power(lx, wx, q) - _power(ly, wy, q))
            for gs, g in gauges:
                nd = _conv(g, sdiff, q)
                nmax = max(_conv(g, lxd, q), _conv(g, lyd, q))
                lhs = eval_gauge(g, sq)
                rhs = 3.0 * nd * nmax**theta
                label = f"dim={n} i={i} g={gs} theta={theta}"
                cases.append((label, lhs, rhs, _payload(dim=n, index=i, gauge=gs, theta=theta, x=x, y=y)))
        return cases, []

    return worker


def _cor43(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()

    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "cor43", n, i)
        x = sampling.psd(rng, n)
        y = sampling.psd(rng, n)
        lx, wx = _eigh_clip(x)
        ly, wy = _eigh_clip(y)
        lxd, lyd = _desc(lx), _desc(ly)
        sdiff = _habs(x - y)
        cases = []
        for p in cfg.p_grid:
            spow = _habs(_power(lx, wx, p) - _power(ly, wy, p))
            for gs, g in gauges:
                nd = _conv(g, sdiff, p)
                nmax = max(_conv(g, lxd, p), _conv(g, lyd, p))
                lhs = eval_gauge(g, spow)
                rhs = 3.0 * p * nd * nmax ** (p - 1.0)
                label = f"dim={n} i={i} g={gs} p={_fmt(p)}"
                cases.append((label, lhs, rhs, _payload(dim=n, index=i, gauge=gs, p=p, x=x, y=y)))
        return cases, []

    return worker


def _lemma44(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()

    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "lemma44", n, i)
        variant = int(rng.integers(3))
        if variant == 2 and n >= 2:
            m = n // 2
            x = np.zeros((n, n), dtype=complex)
            x[:m, :m] = sampling.psd(rng, m)
            x[m : 2 * m, m : 2 * m] = sampling.psd(rng, m)
        else:
            x = sampling.psd(rng, n)
        b = _contraction(rng, n, variant)
        lx, wx = _eigh_clip(x)
        lxd = _desc(lx)
        s1 = _svals(x @ b - b @ x)
        cases = []
        for p in cfg.p_grid:
            xp = _power(lx, wx, p)
            scp = _svals(xp @ b - b @ xp)
            for gs, g in gauges:
                lhs1 = _conv(g, s1, p)
                rhs1 = 4.0 * 2.0 ** (1.0 / p) * eval_gauge(g, scp) ** (1.0 / p)
                lbl = f"dim={n} i={i} g={gs} p={_fmt(p)}"
                pay = _payload(dim=n, index=i, gauge=gs, p=p, variant=variant, x=x, b=b)
                cases.append((f"{lbl} first", lhs1, rhs1, pay))
                lhs2 = eval_gauge(g, scp)
                rhs2 = 24.0 * p * _conv(g, lxd, p) ** (p - 1.0) * _conv(g, s1, p)
                cases.append((f"{lbl} second", lhs2, rhs2, pay))
        return cases, []

    return worker


def _lemma45(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()

    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "lemma45", n, i)
        x = sampling.psd(rng, n)
        y = x if int(rng.integers(2)) == 1 else sampling.psd(rng, n)
        b = _contraction(rng, n, int(rng.integers(3)))
        opb = _svals(b)[0]
        lx, wx = _eigh_clip(x)
        ly, wy = _eigh_clip(y)
        lxd, lyd = _desc(lx), _desc(ly)
        lboth = _desc(np.concatenate([lx, ly]))
        s0 = _svals(x @ b + b @ y)
        cases = []
        records = []
        for p in cfg.p_grid:
            m1 = _power(lx, wx, p) @ b + b @ _power(ly, wy, p)
            sm1 = _svals(m1)
            for gs, g in gauges:
                n0 = _conv(g, s0, p)
                nboth = _conv(g, lboth, p)
                lhs1 = eval_gauge(g, sm1)
                rhs1 = 3.0 * nboth ** (p - 1.0) * n0
                lbl = f"dim={n} i={i} g={gs} p={_fmt(p)}"
                pay = _payload(dim=n, index=i, gauge=gs, p=p, x=x, y=y, b=b)
                cases.append((f"{lbl} first", lhs1, rhs1, pay))
                shape = 3.0 * max(_conv(g, lxd, p), _conv(g, lyd, p)) ** (p - 1.0) * n0
                if shape > cfg.abs_tol:
                    records.append(("first_vs_max_shape", lhs1 / shape))
                rhs2 = 2.0 ** (1.0 - 1.0 / p) * opb ** (1.0 - 1.0 / p) * eval_gauge(g, sm1) ** (1.0 / p)
                if p >= 3.0:
                    cases.append((f"{lbl} second", n0, rhs2, pay))
                elif p > 1.0 and rhs2 > cfg.abs_tol:
                    records.append(("second_below_p3", n0 / rhs2))
        return cases, records

    return worker


def _schur(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)

    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "schur", n, i)
        a = sampling.psd(rng, n)
        b = sampling.psd(rng, n)
        xmat = sampling.ginibre(rng, n)
        la, wa = _eigh_clip(a)
        lb, wb = _eigh_clip(b)
        sref = _svals(a @ xmat + xmat @ b)
        cases = []
        for alpha in alphas:
            left = _power(la, wa, 1.0 - alpha) @ xmat @ _power(lb, wb, alpha)
            right = _power(la, wa, alpha) @ xmat @ _power(lb, wb, 1.0 - alpha)
            sm = _svals(left + right)
            for gs, g in gauges:
                lhs = eval_gauge(g, sm)
                rhs = eval_gauge(g, sref)
                label = f"dim={n} i={i} g={gs} alpha={alpha}"
                cases.append((label, lhs, rhs, _payload(dim=n, index=i, gauge=gs, alpha=alpha, A=a, B=b, X=xmat)))
        return cases, []

    return worker


def _lemma47(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()

    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "lemma47", n, i)
        x = sampling.hermitian(rng, n)
        b = _contraction(rng, n, int(rng.integers(3)))
        e, wx = np.linalg.eigh(x)
        eabs = _desc(np.abs(e))
        s1 = _svals(x @ b - b @ x)
        cases = []
        records = []
        for p in cfg.p_grid:
            gp = (wx * (np.sign(e) * np.abs(e) ** p)) @ wx.conj().T
            scp = _svals(gp @ b - b @ gp)
            cp = 8.0 * 2.0 ** (1.0 / p) + 2.0 ** (2.0 - 1.0 / p)
            for gs, g in gauges:
                lbl = f"dim={n} i={i} g={gs} p={_fmt(p)}"
                if p >= 3.0:
                    lhs = _conv(g, s1, p)
                    rhs = cp * eval_gauge(g, scp) ** (1.0 / p)
                    cases.append((lbl, lhs, rhs, _payload(dim=n, index=i, gauge=gs, p=p, x=x, b=b)))
                if p > 1.0:
                    denom = _conv(g, eabs, p) ** (p - 1.0) * _conv(g, s1, p)
                    if denom > cfg.abs_tol:
                        records.append(("forward_free_constant", eval_gauge(g, scp) / denom))
        return cases, records

    return worker


def _entropy_props(cfg: SuiteConfig):
    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "entropy_props", n, i)
        rho = sampling.state(rng, n)
        sig = sampling.psd(rng, n)
        sig2 = sig + sampling.psd(rng, n)
        c = float(rng.uniform(0.2, 5.0))
        d0 = rel_entropy(rho, sig)
        d_mono = rel_entropy(rho, sig2)
        d_scaled = rel_entropy(rho, c * sig)
        lam = rng.exponential(size=3)
        lam = lam / lam.sum()
        rhos = [sampling.state(rng, n) for _ in range(3)]
        sigs = [sampling.psd(rng, n) for _ in range(3)]
        mix_r = sum(w * r for w, r in zip(lam, rhos))
        mix_s = sum(w * s for w, s in zip(lam, sigs))
        d_mix = rel_entropy(mix_r, mix_s)
        d_sum = float(sum(w * rel_entropy(r, s) for w, r, s in zip(lam, rhos, sigs)))
        pay = _payload(dim=n, index=i, rho=rho, sigma=sig, c=c)
        cases = [
            (f"dim={n} i={i} monotone", d_mono, d0, pay),
            (f"dim={n} i={i} scaling", abs(d_scaled - d0 + math.log(c)), 0.0, pay),
            (f"dim={n} i={i} convexity", d_mix, d_sum, pay),
        ]
        return cases, []

    return worker


def _lemma53(cfg: SuiteConfig):
    eps_grid = (0.5, 0.1, 0.01)

    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "lemma53", n, i)
        a = sampling.psd(rng, n)
        b = sampling.psd(rng, n)
        cases = []
        for eps in eps_grid:
            diff = _psd_log(a + eps * b) - _psd_log(b + eps * a)
            lhs = float(_habs(diff)[0])
            rhs = -math.log(eps)
            label = f"dim={n} i={i} eps={eps}"
            cases.append((label, lhs, rhs, _payload(dim=n, index=i, eps=eps, A=a, B=b)))
        return cases, []

    return worker


def _smooth_convex_gauges(cfg: SuiteConfig):
    return tuple((s, g) for s, g in cfg.parsed_gauges() if g.smooth)


def _lemma54(cfg: SuiteConfig):
    gauges = _smooth_convex_gauges(cfg)

    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "lemma54", n, i)
        rho1 = sampling.state(rng, n)
        other = sampling.state(rng, n)
        t = float(rng.uniform(0.0, 0.5))
        rho2 = (1.0 - t) * rho1 + t * other
        dist = _l1_herm(rho1 - rho2)
        cases = []
        for gs, g in gauges:
            f1 = entropy_min_mat(g, rho1, tol=1e-8).minimizer
            f2 = entropy_min_mat(g, rho2, tol=1e-8).minimizer
            mean_vals = _desc(np.clip(np.linalg.eigvalsh(0.5 * (f1 + f2)), 0.0, None))
            lhs = 1.0 - math.sqrt(dist)
            rhs = eval_gauge(g, mean_vals)
            label = f"dim={n} i={i} g={gs}"
            cases.append((label, lhs, rhs, _payload(dim=n, index=i, gauge=gs, rho1=rho1, rho2=rho2, dist=dist)))
        return cases, []

    return worker


def _roundtrip(cfg: SuiteConfig):
    gauges = _smooth_convex_gauges(cfg)

    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "roundtrip", n, i)
        rho = sampling.state(rng, n)
        # spectra kept away from zero: the map-then-minimize direction feeds
        # eigenvalues through a p-th-power-like compression, so spectral
        # ratios must stay above the eigensolver noise floor
        spectrum = _desc(rng.uniform(0.05, 1.0, size=n))
        frame = sampling.unitary(rng, n)
        u2 = sampling.unitary(rng, n)
        v2 = sampling.unitary(rng, n)
        tvals = rng.uniform(0.05, 1.0, size=n)
        tvals = tvals / tvals.sum()
        general_trace = u2 @ np.diag(tvals).astype(complex) @ v2
        u3 = sampling.unitary(rng, n)
        v3 = sampling.unitary(rng, n)
        cases = []
        for gs, g in gauges:
            psd_unit = (frame * (spectrum / eval_gauge(g, spectrum))) @ frame.conj().T
            psd_unit = 0.5 * (psd_unit + psd_unit.conj().T)
            general_unit = u3 @ np.diag(spectrum / eval_gauge(g, spectrum)).astype(complex) @ v3
            lbl = f"dim={n} i={i} g={gs}"

            rep = entropy_min_mat(g, rho)
            back = norming_state(g, rep.minimizer)
            cases.append(
                (
                    f"{lbl} state-roundtrip",
                    _l1_herm(back - rho),
                    _STATE_SIDE_TOL,
                    _payload(dim=n, index=i, gauge=gs, rho=rho),
                )
            )

            rho_a = norming_state(g, psd_unit)
            back_a = entropy_min_mat(g, rho_a).minimizer
            cases.append(
                (
                    f"{lbl} sphere-roundtrip",
                    _l1_herm(back_a - psd_unit),
                    _SPHERE_SIDE_TOL,
                    _payload(dim=n, index=i, gauge=gs, A=psd_unit),
                )
            )

            rho_b = norming_state(g, general_unit)
            back_b = entropy_min_general(g, rho_b)
            cases.append(
                (
                    f"{lbl} sphere-roundtrip-general",
                    _l1_gen(back_b - general_unit),
                    _SPHERE_SIDE_TOL,
                    _payload(dim=n, index=i, gauge=gs, A=general_unit),
                )
            )

            f_gen = entropy_min_general(g, general_trace)
            back_t = norming_state(g, f_gen)
            cases.append(
                (
                    f"{lbl} state-roundtrip-general",
                    _l1_gen(back_t - general_trace),
                    _STATE_SIDE_TOL,
                    _payload(dim=n, index=i, gauge=gs, A=general_trace),
                )
            )
        return cases, []

    return worker


def _mazur_entropy(cfg: SuiteConfig):
    ps = tuple(p for p in cfg.p_grid)

    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "mazur_entropy", n, i)
        rho = sampling.state(rng, n)
        cases = []
        for p in ps:
            g = Lp(p)
            f = entropy_min_mat(g, rho).minimizer
            root = mazur_inverse(MazurParams(Lp(1.0), p), rho)
            lhs = _l1_herm(f - root)
            label = f"dim={n} i={i} p={_fmt(p)}"
            cases.append((label, lhs, _STATE_SIDE_TOL, _payload(dim=n, index=i, p=p, rho=rho)))
        return cases, []

    return worker


_SUITES = {
    "holder": _holder,
    "ideal": _ideal,
    "contraction_transfer": _contraction_transfer,
    "fan_dominance": _fan_dominance,
    "lemma41": _lemma41,
    "lemma42": _lemma42,
    "cor43": _cor43,
    "lemma44": _lemma44,
    "lemma45": _lemma45,
    "schur": _schur,
    "lemma47": _lemma47,
    "entropy_props": _entropy_props,
    "lemma53": _lemma53,
    "lemma54": _lemma54,
    "roundtrip": _roundtrip,
    "mazur_entropy": _mazur_entropy,
}

SUITE_NAMES = tuple(_SUITES)

# the purely-inequality suites; the fixed-point and consistency suites have
# their own acceptance scales
CORE_SUITE_NAMES = tuple(s for s in SUITE_NAMES if s not in ("roundtrip", "mazur_entropy"))


def run_inequality_suite(name: str, cfg: SuiteConfig, threads: int = 1) -> SuiteReport:
    """Run one registered suite; the report is independent of ``threads``."""
    try:
        factory = _SUITES[name]
    except KeyError:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {list(SUITE_NAMES)}") from None
    worker = factory(cfg)
    jobs = [(n, i) for n in cfg.dims for i in range(cfg.samples_per_case)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda job: worker(*job), jobs, chunksize=16))
    else:
        results = [worker(*job) for job in jobs]

    cases_run = 0
    worst = 0.0
    violations = []
    recorded: dict[str, float] = {}
    for cases, records in results:
        for label, lhs, rhs, payload_fn in cases:
            cases_run += 1
            if math.isfinite(lhs) and math.isfinite(rhs) and rhs > cfg.abs_tol:
                worst = max(worst, lhs / rhs)
            if lhs > rhs * (1.0 + cfg.rel_tol) + cfg.abs_tol:
                ratio = lhs / max(rhs, cfg.abs_tol) if cfg.abs_tol > 0 else lhs / max(rhs, 1e-300)
                if not math.isfinite(ratio):
                    ratio = 1e308
                violations.append(
                    Violation(
                        case=label,
                        lhs=lhs if math.isfinite(lhs) else 1e308,
                        rhs=rhs if math.isfinite(rhs) else 1e308,
                        ratio=ratio,
                        payload=payload_fn() if payload_fn else {},
                    )
                )
        for key, value in records:
            if math.isfinite(value):
                recorded[key] = max(recorded.get(key, 0.0), value)
    return SuiteReport(
        suite_name=name,
        config=cfg,
        cases_run=cases_run,
        violations=tuple(violations),
        worst_ratio=worst,
        passed=not violations,
        recorded=recorded,
    )

"""Block workers against the per-sample workers they replaced.

The reference below is the one-sample-at-a-time form of every suite with a
block worker, and of the case loop that merged them, kept as it was before
the workers were batched per block: one ``eval_gauge`` call per gauge and
spectrum, and one ``rel_entropy`` call per pair (in the per-pair form it
had then).  The layouts that are easy to get wrong when batching include
``fan_dominance`` (its defensive skip drops samples), ``lemma41``
(``_desc(v) ** p``, which numpy powers with its scalar loop), ``lemma44``
(the block-diagonal ``x`` of variant 2 at odd n), ``lemma45``/``lemma47``
(conditional cases and recorded maxima, and spectra of two widths),
``entropy_props`` (row sums over masked spectra) and ``lemma53`` (matrix
logs).  Reports must be byte-identical, at default tolerances and at zero
tolerances, where round-off ties become violations with labels and payloads.

``lemma54``, ``roundtrip`` and ``mazur_entropy`` still run sample by sample.
Their reference solves once per gauge through the maps of
``_reference_maps``, which validate and decompose every matrix on every
call, where the suites decompose each sampled state once.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from spectral_mazur import (
    Lp,
    MazurParams,
    SuiteConfig,
    check_state,
    eigh_psd,
    eval_gauge,
    mazur_inverse,
    parse_gauge,
    run_inequality_suite,
)
from spectral_mazur.verify import dumps_json, sampling
from spectral_mazur.verify import suites as suites_mod
from spectral_mazur.verify.config import SuiteReport, Violation
from spectral_mazur.matnorm import as_matrix, matrix_to_json

import _reference_maps as ref_maps

# ---------------------------------------------------------------------------
# the per-sample reference


def _desc(v):
    return np.sort(np.asarray(v, dtype=float))[::-1]


def _svals(m):
    return np.linalg.svd(m, compute_uv=False)


def _habs(h):
    return _desc(np.abs(np.linalg.eigvalsh(h)))


def _eigh_clip(m):
    lam, w = np.linalg.eigh(m)
    return np.clip(lam, 0.0, None), w


def _power(lam, w, p):
    return (w * lam**p) @ w.conj().T


def _conv(g, s_desc, p):
    return eval_gauge(g, s_desc**p) ** (1.0 / p)


def _contraction(rng, n, variant):
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


def _fmt(x):
    return str(int(x)) if float(x) == int(x) else repr(float(x))


_EPS = float(np.finfo(np.float64).eps)


def _psd_log(m):
    lam, w = np.linalg.eigh(m)
    n = lam.size
    floor = max(n * _EPS * float(lam[-1]), 1e-300)
    lam = np.clip(lam, floor, None)
    return (w * np.log(lam)) @ w.conj().T


def _rel_entropy(rho, sigma):
    r, wr = check_state(rho)
    lam, ws = eigh_psd(sigma)
    n = lam.size
    tau = n * _EPS * float(lam[-1])
    on_support = lam > tau
    mix = ws.conj().T @ as_matrix(rho) @ ws
    diag = np.clip(np.diag(mix).real, 0.0, None)
    if float(diag[~on_support].sum()) > 1e-10:
        return math.inf
    tau_r = r.size * _EPS * float(r[-1])
    pos = r > tau_r
    term_rho = float(np.sum(r[pos] * np.log(r[pos])))
    term_sigma = float(np.sum(diag[on_support] * np.log(lam[on_support])))
    return term_rho - term_sigma


def _holder(cfg):
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


def _ideal(cfg):
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


def _contraction_transfer(cfg):
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


def _fan_dominance(cfg):
    gauges = cfg.parsed_gauges()

    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "fan_dominance", n, i)
        b = sampling.ginibre(rng, n)
        sb = _svals(b)
        variant = int(rng.integers(3))
        if variant == 0:
            sa = _desc(sb * rng.uniform(0.0, 1.0, size=n))
        elif variant == 1:
            acc = np.zeros(n)
            for _ in range(3):
                acc += sb[rng.permutation(n)]
            sa = _desc(acc / 3.0)
        else:
            sa = sb * float(rng.uniform(0.2, 1.0))
        if np.any(np.cumsum(sa) > np.cumsum(sb) + 1e-12):
            return [], []
        cases = []
        for gs, g in gauges:
            lhs = eval_gauge(g, sa)
            rhs = eval_gauge(g, sb)
            payload = _payload(dim=n, index=i, gauge=gs, variant=variant, sa=list(map(float, sa)), sb=list(map(float, sb)))
            cases.append((f"dim={n} i={i} g={gs} variant={variant}", lhs, rhs, payload))
        return cases, []

    return worker


def _lemma41(cfg):
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


def _lemma42(cfg):
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


def _cor43(cfg):
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


def _lemma44(cfg):
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


def _lemma45(cfg):
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


def _schur(cfg):
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


def _lemma47(cfg):
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


def _entropy_props(cfg):
    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "entropy_props", n, i)
        rho = sampling.state(rng, n)
        sig = sampling.psd(rng, n)
        sig2 = sig + sampling.psd(rng, n)
        c = float(rng.uniform(0.2, 5.0))
        d0 = _rel_entropy(rho, sig)
        d_mono = _rel_entropy(rho, sig2)
        d_scaled = _rel_entropy(rho, c * sig)
        lam = rng.exponential(size=3)
        lam = lam / lam.sum()
        rhos = [sampling.state(rng, n) for _ in range(3)]
        sigs = [sampling.psd(rng, n) for _ in range(3)]
        mix_r = sum(w * r for w, r in zip(lam, rhos))
        mix_s = sum(w * s for w, s in zip(lam, sigs))
        d_mix = _rel_entropy(mix_r, mix_s)
        d_sum = float(sum(w * _rel_entropy(r, s) for w, r, s in zip(lam, rhos, sigs)))
        pay = _payload(dim=n, index=i, rho=rho, sigma=sig, c=c)
        return [
            (f"dim={n} i={i} monotone", d_mono, d0, pay),
            (f"dim={n} i={i} scaling", abs(d_scaled - d0 + math.log(c)), 0.0, pay),
            (f"dim={n} i={i} convexity", d_mix, d_sum, pay),
        ], []

    return worker


def _lemma53(cfg):
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
            cases.append((f"dim={n} i={i} eps={eps}", lhs, rhs, _payload(dim=n, index=i, eps=eps, A=a, B=b)))
        return cases, []

    return worker


def _l1_herm(h):
    return float(np.abs(np.linalg.eigvalsh(h)).sum())


def _l1_gen(m):
    return float(_svals(m).sum())


def _lemma54(cfg):
    gauges = tuple((s, g) for s, g in cfg.parsed_gauges() if g.smooth)

    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "lemma54", n, i)
        rho1 = sampling.state(rng, n)
        other = sampling.state(rng, n)
        t = float(rng.uniform(0.0, 0.5))
        rho2 = (1.0 - t) * rho1 + t * other
        dist = _l1_herm(rho1 - rho2)
        lhs = 1.0 - math.sqrt(dist)
        cases = []
        for gs, g in gauges:
            f1 = ref_maps.entropy_min_mat(g, rho1, tol=1e-8).minimizer
            f2 = ref_maps.entropy_min_mat(g, rho2, tol=1e-8).minimizer
            rhs = eval_gauge(g, _desc(np.clip(np.linalg.eigvalsh(0.5 * (f1 + f2)), 0.0, None)))
            cases.append((f"dim={n} i={i} g={gs}", lhs, rhs, _payload(dim=n, index=i, gauge=gs, rho1=rho1, rho2=rho2, dist=dist)))
        return cases, []

    return worker


def _roundtrip(cfg):
    gauges = tuple((s, g) for s, g in cfg.parsed_gauges() if g.smooth)

    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "roundtrip", n, i)
        rho = sampling.state(rng, n)
        spectrum = _desc(rng.uniform(0.05, 1.0, size=n))
        frame = sampling.unitary(rng, n)
        u2 = sampling.unitary(rng, n)
        v2 = sampling.unitary(rng, n)
        tvals = rng.uniform(0.05, 1.0, size=n)
        tvals = tvals / tvals.sum()
        general_trace = u2 @ np.diag(tvals).astype(complex) @ v2
        u3 = sampling.unitary(rng, n)
        v3 = sampling.unitary(rng, n)
        # read at call time, so a test can tighten both sides' budgets to 0
        state_tol, sphere_tol = suites_mod._STATE_SIDE_TOL, suites_mod._SPHERE_SIDE_TOL
        cases = []
        for gs, g in gauges:
            unit = spectrum / eval_gauge(g, spectrum)
            psd_unit = (frame * unit) @ frame.conj().T
            psd_unit = 0.5 * (psd_unit + psd_unit.conj().T)
            general_unit = u3 @ np.diag(unit).astype(complex) @ v3
            back = ref_maps.norming_state(g, ref_maps.entropy_min_mat(g, rho).minimizer)
            back_a = ref_maps.entropy_min_mat(g, ref_maps.norming_state(g, psd_unit)).minimizer
            back_b = ref_maps.entropy_min_general(g, ref_maps.norming_state(g, general_unit))
            back_t = ref_maps.norming_state(g, ref_maps.entropy_min_general(g, general_trace))
            for part, lhs, rhs, fields in (
                ("state-roundtrip", _l1_herm(back - rho), state_tol, dict(rho=rho)),
                ("sphere-roundtrip", _l1_herm(back_a - psd_unit), sphere_tol, dict(A=psd_unit)),
                ("sphere-roundtrip-general", _l1_gen(back_b - general_unit), sphere_tol, dict(A=general_unit)),
                ("state-roundtrip-general", _l1_gen(back_t - general_trace), state_tol, dict(A=general_trace)),
            ):
                cases.append((f"dim={n} i={i} g={gs} {part}", lhs, rhs, _payload(dim=n, index=i, gauge=gs, **fields)))
        return cases, []

    return worker


def _mazur_entropy(cfg):
    def worker(n, i):
        rng = sampling.make_rng(cfg.seed, "mazur_entropy", n, i)
        rho = sampling.state(rng, n)
        cases = []
        for p in cfg.p_grid:
            f = ref_maps.entropy_min_mat(Lp(p), rho).minimizer
            root = mazur_inverse(MazurParams(Lp(1.0), p), rho)
            lhs = _l1_herm(f - root)
            cases.append((f"dim={n} i={i} p={_fmt(p)}", lhs, suites_mod._STATE_SIDE_TOL, _payload(dim=n, index=i, p=p, rho=rho)))
        return cases, []

    return worker


REFERENCE = {
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
}

# the suites whose solvers take one matrix at a time; their workers still run
# sample by sample, so only the default block size is cut differently
ENTROPY_REFERENCE = {
    "lemma54": _lemma54,
    "roundtrip": _roundtrip,
    "mazur_entropy": _mazur_entropy,
}


def _reference_report(name, cfg):
    worker = {**REFERENCE, **ENTROPY_REFERENCE}[name](cfg)
    cases_run = 0
    worst = 0.0
    violations = []
    recorded = {}
    for n in cfg.dims:
        for i in range(cfg.samples_per_case):
            cases, records = worker(n, i)
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
                            payload=payload_fn(),
                        )
                    )
            for key, value in records:
                if math.isfinite(value):
                    recorded[key] = max(recorded.get(key, 0.0), value)
    return SuiteReport(name, cfg, cases_run, tuple(violations), worst, not violations, recorded)


# ---------------------------------------------------------------------------
# the comparison

DIMS = (1, 2, 3, 5, 16)
# zero tolerances turn round-off ties into violations; 2.0 and 1e3 make the
# ``rhs > abs_tol`` and ``denominator > abs_tol`` guards drop cases and records
CONFIGS = {
    (seed, tol): SuiteConfig(seed=seed, dims=DIMS, samples_per_case=9, rel_tol=tol, abs_tol=tol)
    for seed, tol in ((1, 0.0), (2, 0.0), (1, 1e-10), (2, 1e-10), (1, 2.0), (2, 1e3))
}
# the entropy suites solve per sample and gauge, so they run the same configs
# with fewer samples
ENTROPY_CONFIGS = {key: dataclasses.replace(cfg, samples_per_case=2) for key, cfg in CONFIGS.items()}


def _assert_reference_bytes(monkeypatch, name, cfg, blocks=(1, 7, suites_mod._BLOCK_SAMPLES)):
    want = dumps_json(_reference_report(name, cfg).to_json())
    for block in blocks:
        monkeypatch.setattr(suites_mod, "_BLOCK_SAMPLES", block)
        for threads in (1, 4):
            got = dumps_json(run_inequality_suite(name, cfg, threads=threads).to_json())
            assert got == want, (block, threads)
    return want


@pytest.mark.parametrize("name", sorted(REFERENCE))
@pytest.mark.parametrize("seed,tol", sorted(CONFIGS))
def test_block_workers_give_the_reference_report_bytes(monkeypatch, name, seed, tol):
    _assert_reference_bytes(monkeypatch, name, CONFIGS[seed, tol])


def test_zero_tolerances_produce_violations_to_compare():
    # round-off ties at zero tolerance exercise labels and payloads
    for name in ("holder", "fan_dominance", "lemma41", "lemma45"):
        assert _reference_report(name, CONFIGS[1, 0.0]).violations, name


@pytest.mark.parametrize("name", sorted(REFERENCE) + sorted(ENTROPY_REFERENCE))
def test_every_case_equals_the_reference_case(name):
    # the report keeps only the worst ratio of passing cases, so compare
    # each case's label and both sides bit for bit
    cfg = (ENTROPY_CONFIGS if name in ENTROPY_REFERENCE else CONFIGS)[2, 1e-10]
    reference, blocks = {**REFERENCE, **ENTROPY_REFERENCE}[name](cfg), suites_mod._SUITES[name](cfg)
    for n in DIMS:
        want = [c[:3] for i in range(cfg.samples_per_case) for c in reference(n, i)[0]]
        block = blocks(n, range(cfg.samples_per_case))
        got = [(block.describe(k)[0], lhs, rhs) for k, (lhs, rhs) in enumerate(zip(block.lhs.tolist(), block.rhs.tolist()))]
        assert got == want, n


class _Wide(np.random.Generator):
    """Uniform draws stretched by 2, so that some fan_dominance samples fail
    partial-sum dominance and are skipped."""

    def uniform(self, low=0.0, high=1.0, size=None):
        return 2.0 * super().uniform(low, high, size)


def test_fan_dominance_skips_samples_like_the_reference(monkeypatch):
    make_rng = sampling.make_rng
    monkeypatch.setattr(sampling, "make_rng", lambda *key: _Wide(make_rng(*key).bit_generator))
    cfg = CONFIGS[1, 1e-10]
    text = _assert_reference_bytes(monkeypatch, "fan_dominance", cfg)
    full = len(DIMS) * cfg.samples_per_case * len(cfg.gauges)
    assert 0 < json.loads(text)["cases_run"] < full


def test_every_block_worker_has_a_reference():
    assert set(REFERENCE) == set(suites_mod.SUITE_NAMES) - {"lemma54", "roundtrip", "mazur_entropy"}
    assert set(REFERENCE) | set(ENTROPY_REFERENCE) == set(suites_mod.SUITE_NAMES)


@pytest.mark.parametrize("name", sorted(ENTROPY_REFERENCE))
@pytest.mark.parametrize("seed,tol", sorted(ENTROPY_CONFIGS))
def test_entropy_suites_give_the_reference_report_bytes(monkeypatch, name, seed, tol):
    # blocks of one sample, on one thread and on four; the default block
    # size is run by the violation test below
    _assert_reference_bytes(monkeypatch, name, ENTROPY_CONFIGS[seed, tol], blocks=(1,))


@pytest.mark.parametrize("name", ["roundtrip", "mazur_entropy"])
def test_entropy_suite_violations_give_the_reference_bytes(monkeypatch, name):
    # with no residual budget every case is a violation, so labels and
    # payloads are compared too
    monkeypatch.setattr(suites_mod, "_STATE_SIDE_TOL", 0.0)
    monkeypatch.setattr(suites_mod, "_SPHERE_SIDE_TOL", 0.0)
    cfg = ENTROPY_CONFIGS[1, 0.0]
    text = _assert_reference_bytes(monkeypatch, name, cfg, blocks=(suites_mod._BLOCK_SAMPLES,))
    assert len(json.loads(text)["violations"]) > 0


@pytest.mark.parametrize("name", sorted(set(REFERENCE) - {"entropy_props", "lemma53"}))
def test_a_block_calls_eval_gauge_rows_once_per_canonical_gauge_and_width(monkeypatch, name):
    calls = []
    evaluate = suites_mod.eval_gauge_rows

    def counted(g, a):
        calls.append((g, a.shape[1]))
        return evaluate(g, a)

    monkeypatch.setattr(suites_mod, "eval_gauge_rows", counted)
    cfg = SuiteConfig(seed=1, dims=(5,), samples_per_case=12)
    canonical = {suites_mod._canonical_form(parse_gauge(s)) for s in cfg.gauges}
    assert len(canonical) < len(cfg.gauges)  # lp:2 and conv:2:lp:1 share one
    widths = 2 if name == "lemma45" else 1  # lemma45 also gauges x's and y's spectra joined, width 2n
    suites_mod._SUITES[name](cfg)(5, range(12))
    assert len(calls) == len(set(calls)) <= len(canonical) * widths

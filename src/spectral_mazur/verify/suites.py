"""Randomized verification suites for the norm and map inequalities.

Each suite draws deterministic random instances (see ``sampling``), evaluates
an inequality ``lhs <= rhs`` for every applicable gauge/exponent combination,
and reports violations under the rule ``lhs > rhs * (1 + rel_tol) + abs_tol``.
``run_inequality_suite`` evaluates one registered suite and produces a
deterministic :class:`SuiteReport`.

Protocol: a suite is one function ``suite(cfg, n, idx, rngs) -> _Cases``
that evaluates a block of samples, the consecutive indices ``idx`` at
dimension n, with one generator per sample in ``rngs``.  The runner
(``_block``) owns what every suite shares.  It keys each generator by
``(seed, suite name, n, index)`` and never by the block, so neither the
block size nor the number of threads can change what a sample is.  It turns
a floating-point error into :class:`NumericalFailure`, and names the suite
and dimension in every numerical failure, a failed LAPACK call among them.
``_Cases.case`` puts ``dim={n} i={index}`` in front of each label and
``dim``, ``index`` in front of each payload.  A suite keys each case kind
by ``(label tail, parameters)`` and states its samples' payload fields once
per block (``_fields``): a payload is the parameters, then the sample's
fields.  ``fan_dominance`` (its label names a
sample's variant) and the per-sample suites (a ``roundtrip`` payload matrix
differs per gauge) describe their cases themselves; a payload field there
may be a zero-argument callable, called only to describe a violation.

Blocks: the samples of dimension n are cut into blocks of
``_block_samples(n)`` consecutive indices, and a worker evaluates one block.
A block holds as many samples as fit ``_BLOCK_ENTRIES = MAX_DIM ** 2``
matrix entries, and at least one: 1 024 at n = 2, 64 at n = 8, one at
n = 64.  So each stacked array of one matrix per sample holds at most one
``MAX_DIM`` matrix's entries, and a suite's memory stays bounded at every
dimension and sample count.  A suite draws
the whole block through the stacked samplers of ``sampling``, which give
every generator the calls it would get alone; draws that depend on a
sample's variant go by variant group.  It runs LAPACK, matmul and
``rel_entropy`` once per stacked array.  It then builds every spectrum array
it needs and evaluates them with one ``eval_gauge_rows`` call per canonical
gauge and width.  ``lemma41``, ``lemma42`` and ``cor43`` draw and power one
PSD pair in ``_pair_powers``.  Per matrix, per row and per entry these give
the same bits as one call per sample; powers are taken on arrays with
positive strides only (see ``_desc``).  ``lemma54``, ``roundtrip`` and
``mazur_entropy`` draw their block the same way but then solve sample by
sample (``_per_sample``), because their solvers take one matrix at a time;
they solve once per canonical gauge (or exponent), and each sampled state is
validated and diagonalised once by ``check_state`` (``roundtrip``'s
``general_trace`` by ``entropy._check_general``), whose result every solve
of that state takes in place of the matrix.  Blocks are merged, and then
released, in index order, which keeps cases and violations in sample order,
so the report bytes do not depend on the number of threads; on one thread a
run holds one block at a time.

Within a block, the suites with the largest working set hold only what
their next step reads: ``roundtrip`` drops each sample's two unitaries once
its general trace-norm-one matrix is built, takes each round trip's residual
as that trip ends, and rebuilds a unit-sphere matrix only to describe a
violation; ``entropy_props`` draws and evaluates in two stages, the
one-state pairs (each ``rho`` against its three sigmas in one call, so it is
decomposed once) and then the three-state mixtures (one pair per call), and
releases each stage's matrices once its relative entropies are taken.
Hermitian parts and normalisations are formed in place (``x += x†``, ``x *=
0.5``), by the ufuncs and order of the expressions they replace.  Each
generator gets the same calls in the same order, so no bit moves.
"""

from __future__ import annotations

import math
import os
from typing import Callable

import numpy as np

from ..entropy import _check_general, check_state, entropy_min_general, entropy_min_mat, norming_state, rel_entropy
from ..errors import NumericalFailure, UnknownSuite
from ..gauge import Lp, _canonical_form, _format_exponent, eval_gauge, eval_gauge_rows
from ..matnorm import _EPS, _desc, _eigh, _eigh_psd, _habs, _l1_herm, _psd_spectrum, _rebuild, _svals, _svd_powers, matrix_to_json, trace_norm
from . import sampling
from .config import MAX_DIM, SuiteConfig, SuiteReport, Violation

__all__ = ["SUITE_NAMES", "CORE_SUITE_NAMES", "run_inequality_suite"]

# residual budgets for the fixed-point identities between the unit spheres
_STATE_SIDE_TOL = 1e-6  # minimize-then-map direction, certified by the solver
_SPHERE_SIDE_TOL = 1e-5  # map-then-minimize direction, limited by eigh noise

# matrix entries per block: a stacked array of one matrix per sample holds
# no more than one MAX_DIM matrix, whatever the dimension and sample count
_BLOCK_ENTRIES = MAX_DIM**2


# ---------------------------------------------------------------------------
# spectral helpers; each takes one matrix or a stack of them, and decomposes
# it through ``matnorm``


def _gauge_table(gauges, spectra: dict) -> dict:
    """``table[gs][key]`` is ``eval_gauge_rows(g, spectra[key])`` for every
    ``(gs, g)`` of ``gauges`` and every key of ``spectra``.

    The arrays of one width are stacked, and descriptors with one canonical
    form share their values, so a block makes one call per canonical gauge
    and width.  Every row's value depends on that row alone, so stacking
    changes no bit.
    """
    widths: dict[int, list] = {}
    for key, a in spectra.items():
        widths.setdefault(a.shape[1], []).append((key, a))
    canon: dict = {}
    for gs, g in gauges:
        canon.setdefault(_canonical_form(g), []).append(gs)
    table: dict = {gs: {} for gs, _ in gauges}
    for c, names in canon.items():
        for group in widths.values():
            values = eval_gauge_rows(c, np.concatenate([a for _, a in group]))
            lo = 0
            for key, a in group:
                for gs in names:
                    table[gs][key] = values[lo : lo + len(a)]
                lo += len(a)
    return table


def _root(values: np.ndarray, p: float) -> np.ndarray:
    """The norm built from the p-convexified gauge, from the gauge of ``s ** p``."""
    return values ** (1.0 / p)


def _psd_log(m: np.ndarray) -> np.ndarray:
    """Matrix log of (numerically) positive definite Hermitian matrices.

    Eigenvalues are floored at the clamp tolerance so that round-off dust on
    a mathematically positive spectrum cannot produce a NaN.
    """
    lam, w = _eigh_psd(m)
    floor = np.maximum(lam.shape[-1] * _EPS * lam[..., -1:], 1e-300)
    return _rebuild(w, np.log(np.clip(lam, floor, None)))


def _pick(rngs: list, rows: np.ndarray) -> list:
    """The generators of the rows where ``rows`` is true."""
    return [rng for rng, keep in zip(rngs, rows.tolist()) if keep]


def _corner(n: int, variants: np.ndarray) -> np.ndarray:
    """Rows of variant 2 when there is room for the corner block: n >= 2."""
    return (variants == 2) & (n >= 2)


def _contraction(rngs: list, n: int, variants) -> np.ndarray:
    """One matrix with operator norm exactly 1 per generator, in one of three shapes.

    Variants: scaled Ginibre, scaled Hermitian, or the corner block
    ``[[0, I], [0, 0]]`` (padded when n is odd) — the structured matrix whose
    commutators select block differences; at n = 1 variant 2 is Ginibre.
    Each variant group draws from its own generators, one draw each, and the
    drawn matrices are scaled by their operator norms.
    """
    variants = np.asarray(variants)
    corner = _corner(n, variants)
    herm = variants == 1
    b = np.zeros((len(rngs), n, n), dtype=complex)
    if corner.any():
        m = n // 2
        b[corner, :m, m : 2 * m] = np.eye(m)
    for rows, draw in ((herm, sampling.hermitian), (~(herm | corner), sampling.ginibre)):
        if rows.any():
            b[rows] = draw(_pick(rngs, rows), n)
    scale = ~corner
    if scale.any():
        b[scale] = b[scale] / _svals(b[scale])[:, :1, None]
    return b


def _payload(kw: dict) -> dict:
    return {key: matrix_to_json(v) if isinstance(v, np.ndarray) else v for key, v in kw.items()}


# ---------------------------------------------------------------------------
# case columns


class _Cases:
    """The cases of one block of samples ``idx`` at dimension n: one
    ``(rows,)`` column per case kind.

    Column row j belongs to the block's sample ``rows[j]`` (every sample
    unless ``rows`` names the kept ones); the cases of a sample come out in
    the order their kinds were added, after those of the samples before it.
    ``describe(row, key)`` gives the label tail and payload fields of the
    case of kind ``key`` for the block's sample ``row``, and is called only
    for violations (and a NaN side), so a payload field may be kept as a
    zero-argument callable that ``describe`` calls: ``roundtrip`` rebuilds
    its unit-sphere matrices only there.  ``records`` are ``(key, values)``
    diagnostics whose maxima are tracked but not asserted.
    """

    def __init__(self, n: int, idx: range, describe: Callable[[int, object], tuple[str, dict]], rows=None):
        self.n, self.idx, self.describe = n, idx, describe
        self.rows = range(len(idx)) if rows is None else rows
        self.keys, self.lhs, self.rhs, self.records = [], [], [], []

    def add(self, key, lhs: np.ndarray, rhs: np.ndarray):
        self.keys.append(key)
        self.lhs.append(lhs)
        self.rhs.append(rhs)

    def record(self, name: str, num: np.ndarray, den: np.ndarray, tol: float):
        """Record ``num / den`` for the rows where ``den > tol``."""
        keep = den > tol
        self.records.append((name, num[keep] / den[keep]))

    def sides(self) -> tuple[np.ndarray, np.ndarray]:
        """Both sides of every case, as 1-d arrays in report order."""
        return np.array(self.lhs, dtype=float).T.ravel(), np.array(self.rhs, dtype=float).T.ravel()

    def case(self, k: int) -> tuple[str, dict]:
        """Case k's label and payload fields, led by its dimension and sample index."""
        row = self.rows[k // len(self.keys)]
        tail, fields = self.describe(row, self.keys[k % len(self.keys)])
        i = self.idx[row]
        return f"dim={self.n} i={i} {tail}", dict(dim=self.n, index=i, **fields)


def _fields(sample_fields: Callable[[int], dict]) -> Callable[[int, tuple], tuple[str, dict]]:
    """``describe`` for case keys ``(label tail, parameters)``: a payload is
    the parameters, then the fields ``sample_fields(row)`` of its sample."""
    return lambda j, key: (key[0], {**key[1], **sample_fields(j)})


def _per_sample(n: int, idx: range, drawn, body) -> _Cases:
    """The cases of the suites whose solvers take one matrix at a time.

    ``drawn`` is the block's draw as a tuple of stacked arrays (or lists),
    one entry per sample; ``body(*row) -> [(label tail, lhs, rhs, payload
    fields)]`` runs sample by sample on one sample's entries, and gives
    every sample the same case kinds in the same order.  A case keeps the
    payload ``body`` gave it: a ``roundtrip`` payload matrix differs per gauge.
    A payload field may be a zero-argument callable, which ``describe`` calls,
    so a matrix that only a violation reads is built only for one.
    """
    out = [body(*(a[j] for a in drawn)) for j in range(len(idx))]

    def describe(j, c):
        tail, _, _, fields = out[j][c]
        return tail, {key: v() if callable(v) else v for key, v in fields.items()}

    cases = _Cases(n, idx, describe)
    for c in range(len(out[0])):
        cases.add(c, np.array([o[c][1] for o in out]), np.array([o[c][2] for o in out]))
    return cases


# ---------------------------------------------------------------------------
# suites: each gives the cases of the samples ``idx`` of dimension n, drawn
# from ``rngs``, one generator per sample


def _holder(cfg: SuiteConfig, n: int, idx: range, rngs: list) -> _Cases:
    gauges = cfg.parsed_gauges()
    triples = ((2.0, 2.0, 1.0), (3.0, 1.5, 1.0), (4.0, 4.0, 2.0))
    a, b = sampling.ginibre(rngs, n), sampling.ginibre(rngs, n)
    sa, sb, sab = _svals(a), _svals(b), _svals(a @ b)
    spectra = {}
    for p, q, r in triples:
        spectra["A", p], spectra["B", q], spectra["AB", r] = sa**p, sb**q, sab**r
    table = _gauge_table(gauges, spectra)
    cases = _Cases(n, idx, _fields(lambda j: dict(A=a[j], B=b[j])))
    for gs, _ in gauges:
        t = table[gs]
        for p, q, r in triples:
            tail = f"g={gs} pqr=({','.join(map(_format_exponent, (p, q, r)))})"
            cases.add((tail, dict(gauge=gs, p=p, q=q, r=r)), _root(t["AB", r], r), _root(t["A", p], p) * _root(t["B", q], q))
    return cases


def _ideal(cfg: SuiteConfig, n: int, idx: range, rngs: list) -> _Cases:
    gauges = cfg.parsed_gauges()
    a, b, c = (sampling.ginibre(rngs, n) for _ in range(3))
    table = _gauge_table(gauges, {"ABC": _svals(a @ b @ c), "B": _svals(b)})
    opa = _svals(a)[:, 0]
    opc = _svals(c)[:, 0]
    cases = _Cases(n, idx, _fields(lambda j: dict(A=a[j], B=b[j], C=c[j])))
    for gs, _ in gauges:
        cases.add((f"g={gs}", dict(gauge=gs)), table[gs]["ABC"], opa * table[gs]["B"] * opc)
    return cases


def _contraction_transfer(cfg: SuiteConfig, n: int, idx: range, rngs: list) -> _Cases:
    gauges = cfg.parsed_gauges()
    z = sampling.ginibre(rngs, n)
    mix = sampling.ucptp_mixture(rngs, n)
    w, weights = sampling.apply_mixture(mix, z), mix[0]
    table = _gauge_table(gauges, {"z": _svals(z), "w": _svals(w)})
    cases = _Cases(n, idx, _fields(lambda j: dict(z=z[j], weights=list(map(float, weights[j])))))
    for gs, _ in gauges:
        cases.add((f"g={gs}", dict(gauge=gs)), table[gs]["w"], table[gs]["z"])
    return cases


def _fan_dominance(cfg: SuiteConfig, n: int, idx: range, rngs: list) -> _Cases:
    gauges = cfg.parsed_gauges()
    sb = _svals(sampling.ginibre(rngs, n))
    variants = np.array([int(rng.integers(3)) for rng in rngs])
    sa = np.empty_like(sb)
    rows = variants == 0
    if rows.any():
        sa[rows] = _desc(sb[rows] * np.array([rng.uniform(0.0, 1.0, size=n) for rng in _pick(rngs, rows)]))
    rows = variants == 1
    if rows.any():
        # average over random permutations: doubly stochastic mixing
        perms = np.array([[rng.permutation(n) for _ in range(3)] for rng in _pick(rngs, rows)])
        acc = np.zeros((len(perms), n))
        for k in range(3):
            acc += np.take_along_axis(sb[rows], perms[:, k], axis=1)
        sa[rows] = _desc(acc / 3.0)
    rows = variants == 2
    if rows.any():
        sa[rows] = sb[rows] * np.array([float(rng.uniform(0.2, 1.0)) for rng in _pick(rngs, rows)])[:, None]
    # defensive: partial-sum dominance must hold by construction
    kept = np.flatnonzero(~np.any(np.cumsum(sa, axis=1) > np.cumsum(sb, axis=1) + 1e-12, axis=1))

    # not ``_fields``: the label names the sample's variant
    def describe(j, gs):
        variant = int(variants[j])
        return f"g={gs} variant={variant}", dict(gauge=gs, variant=variant, sa=list(map(float, sa[j])), sb=list(map(float, sb[j])))

    cases = _Cases(n, idx, describe, rows=kept)
    if kept.size:
        table = _gauge_table(gauges, {"a": sa[kept], "b": sb[kept]})
        for gs, _ in gauges:
            cases.add(gs, table[gs]["a"], table[gs]["b"])
    return cases


def _pair_powers(n: int, rngs: list, exponents) -> tuple[np.ndarray, np.ndarray, dict]:
    """The block's PSD pair x, y and, per exponent e, the spectra ``("pow", e)`` of x^e - y^e
    and ``("diff" | "x" | "y", e)``, the e-th powers of the descending spectra of x - y, x, y."""
    x, y = sampling.psd(rngs, n), sampling.psd(rngs, n)
    (lx, wx), (ly, wy) = _eigh_psd(x), _eigh_psd(y)
    desc = {"diff": _habs(x - y), "x": _desc(lx), "y": _desc(ly)}
    spectra = {}
    for e in exponents:
        spectra["pow", e] = _habs(_rebuild(wx, lx**e) - _rebuild(wy, ly**e))
        spectra.update({(name, e): d**e for name, d in desc.items()})
    return x, y, spectra


def _lemma41(cfg: SuiteConfig, n: int, idx: range, rngs: list) -> _Cases:
    gauges = cfg.parsed_gauges()
    x, y, spectra = _pair_powers(n, rngs, cfg.p_grid)
    table = _gauge_table(gauges, {key: s for key, s in spectra.items() if key[0] in ("diff", "pow")})
    cases = _Cases(n, idx, _fields(lambda j: dict(x=x[j], y=y[j])))
    for p in cfg.p_grid:
        for gs, _ in gauges:
            cases.add((f"g={gs} p={_format_exponent(p)}", dict(gauge=gs, p=p)), table[gs]["diff", p], table[gs]["pow", p])
    return cases


def _lemma42(cfg: SuiteConfig, n: int, idx: range, rngs: list) -> _Cases:
    gauges = cfg.parsed_gauges()
    thetas = (0.25, 0.5, 0.75, 1.0)
    x, y, spectra = _pair_powers(n, rngs, [1.0 + theta for theta in thetas])
    table = _gauge_table(gauges, spectra)
    cases = _Cases(n, idx, _fields(lambda j: dict(x=x[j], y=y[j])))
    for theta in thetas:
        q = 1.0 + theta
        for gs, _ in gauges:
            t = table[gs]
            nmax = np.maximum(_root(t["x", q], q), _root(t["y", q], q))
            cases.add((f"g={gs} theta={theta}", dict(gauge=gs, theta=theta)), t["pow", q], 3.0 * _root(t["diff", q], q) * nmax**theta)
    return cases


def _cor43(cfg: SuiteConfig, n: int, idx: range, rngs: list) -> _Cases:
    gauges = cfg.parsed_gauges()
    x, y, spectra = _pair_powers(n, rngs, cfg.p_grid)
    table = _gauge_table(gauges, spectra)
    cases = _Cases(n, idx, _fields(lambda j: dict(x=x[j], y=y[j])))
    for p in cfg.p_grid:
        for gs, _ in gauges:
            t = table[gs]
            nmax = np.maximum(_root(t["x", p], p), _root(t["y", p], p))
            key = f"g={gs} p={_format_exponent(p)}", dict(gauge=gs, p=p)
            cases.add(key, t["pow", p], 3.0 * p * _root(t["diff", p], p) * nmax ** (p - 1.0))
    return cases


def _lemma44(cfg: SuiteConfig, n: int, idx: range, rngs: list) -> _Cases:
    gauges = cfg.parsed_gauges()
    variants = np.array([int(rng.integers(3)) for rng in rngs])
    # variant 2: block-diagonal x, two half-size draws per generator
    split = _corner(n, variants)
    x = np.zeros((len(idx), n, n), dtype=complex)
    if split.any():
        m, halves = n // 2, _pick(rngs, split)
        x[split, :m, :m] = sampling.psd(halves, m)
        x[split, m : 2 * m, m : 2 * m] = sampling.psd(halves, m)
    if not split.all():
        x[~split] = sampling.psd(_pick(rngs, ~split), n)
    b = _contraction(rngs, n, variants)
    lx, wx = _eigh_psd(x)
    lxd = _desc(lx)
    s1 = _svals(x @ b - b @ x)
    spectra = {}
    for p in cfg.p_grid:
        xp = _rebuild(wx, lx**p)
        spectra["comm", p] = _svals(xp @ b - b @ xp)
        spectra["s1", p] = s1**p
        spectra["x", p] = lxd**p
    table = _gauge_table(gauges, spectra)
    cases = _Cases(n, idx, _fields(lambda j: dict(variant=int(variants[j]), x=x[j], b=b[j])))
    for p in cfg.p_grid:
        for gs, _ in gauges:
            t = table[gs]
            tail, params = f"g={gs} p={_format_exponent(p)}", dict(gauge=gs, p=p)
            conv_s1 = _root(t["s1", p], p)
            cases.add((f"{tail} first", params), conv_s1, 4.0 * 2.0 ** (1.0 / p) * t["comm", p] ** (1.0 / p))
            cases.add((f"{tail} second", params), t["comm", p], 24.0 * p * _root(t["x", p], p) ** (p - 1.0) * conv_s1)
    return cases


def _lemma45(cfg: SuiteConfig, n: int, idx: range, rngs: list) -> _Cases:
    gauges = cfg.parsed_gauges()
    x = sampling.psd(rngs, n)
    drawn = np.array([int(rng.integers(2)) != 1 for rng in rngs])  # else y = x
    y = x.copy()
    if drawn.any():
        y[drawn] = sampling.psd(_pick(rngs, drawn), n)
    b = _contraction(rngs, n, [int(rng.integers(3)) for rng in rngs])
    opb = _svals(b)[:, 0]
    lx, wx = _eigh_psd(x)
    ly, wy = lx.copy(), wx.copy()
    if drawn.any():  # only the drawn y need their own decomposition
        ly[drawn], wy[drawn] = _eigh_psd(y[drawn])
    desc = {"both": _desc(np.concatenate([lx, ly], axis=-1)), "x": _desc(lx), "y": _desc(ly)}
    s0 = _svals(x @ b + b @ y)
    spectra = {}
    for p in cfg.p_grid:
        spectra["m1", p] = _svals(_rebuild(wx, lx**p) @ b + b @ _rebuild(wy, ly**p))
        spectra["s0", p] = s0**p
        spectra.update({(name, p): d**p for name, d in desc.items()})
    table = _gauge_table(gauges, spectra)
    cases = _Cases(n, idx, _fields(lambda j: dict(x=x[j], y=y[j], b=b[j])))
    for p in cfg.p_grid:
        for gs, _ in gauges:
            t = table[gs]
            tail, params = f"g={gs} p={_format_exponent(p)}", dict(gauge=gs, p=p)
            n0 = _root(t["s0", p], p)
            lhs1 = t["m1", p]
            cases.add((f"{tail} first", params), lhs1, 3.0 * _root(t["both", p], p) ** (p - 1.0) * n0)
            nmax = np.maximum(_root(t["x", p], p), _root(t["y", p], p))
            cases.record("first_vs_max_shape", lhs1, 3.0 * nmax ** (p - 1.0) * n0, cfg.abs_tol)
            rhs2 = 2.0 ** (1.0 - 1.0 / p) * opb ** (1.0 - 1.0 / p) * lhs1 ** (1.0 / p)
            if p >= 3.0:
                cases.add((f"{tail} second", params), n0, rhs2)
            elif p > 1.0:
                cases.record("second_below_p3", n0, rhs2, cfg.abs_tol)
    return cases


def _schur(cfg: SuiteConfig, n: int, idx: range, rngs: list) -> _Cases:
    gauges = cfg.parsed_gauges()
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    a, b, xmat = sampling.psd(rngs, n), sampling.psd(rngs, n), sampling.ginibre(rngs, n)
    la, wa = _eigh_psd(a)
    lb, wb = _eigh_psd(b)
    spectra = {"ref": _svals(a @ xmat + xmat @ b)}
    # alpha and 1 - alpha share one sum: 1 - alpha is exact on the grid,
    # and the two terms only trade places, which IEEE addition ignores
    pair = {alpha: min(alpha, 1.0 - alpha) for alpha in alphas}
    for alpha in sorted(set(pair.values())):
        left = _rebuild(wa, la ** (1.0 - alpha)) @ xmat @ _rebuild(wb, lb**alpha)
        right = _rebuild(wa, la**alpha) @ xmat @ _rebuild(wb, lb ** (1.0 - alpha))
        spectra[alpha] = _svals(left + right)
    table = _gauge_table(gauges, spectra)
    cases = _Cases(n, idx, _fields(lambda j: dict(A=a[j], B=b[j], X=xmat[j])))
    for alpha in alphas:
        for gs, _ in gauges:
            cases.add((f"g={gs} alpha={alpha}", dict(gauge=gs, alpha=alpha)), table[gs][pair[alpha]], table[gs]["ref"])
    return cases


def _lemma47(cfg: SuiteConfig, n: int, idx: range, rngs: list) -> _Cases:
    gauges = cfg.parsed_gauges()
    x = sampling.hermitian(rngs, n)
    b = _contraction(rngs, n, [int(rng.integers(3)) for rng in rngs])
    e, wx = _eigh(x)
    eabs = _desc(np.abs(e))
    s1 = _svals(x @ b - b @ x)
    spectra = {}
    for p in cfg.p_grid:
        gp = _rebuild(wx, np.sign(e) * np.abs(e) ** p)
        spectra["comm", p] = _svals(gp @ b - b @ gp)
        if p > 1.0:
            spectra["s1", p] = s1**p
            spectra["e", p] = eabs**p
    table = _gauge_table(gauges, spectra)
    cases = _Cases(n, idx, _fields(lambda j: dict(x=x[j], b=b[j])))
    for p in cfg.p_grid:
        cp = 8.0 * 2.0 ** (1.0 / p) + 2.0 ** (2.0 - 1.0 / p)
        for gs, _ in gauges:
            t = table[gs]
            if p >= 3.0:
                key = f"g={gs} p={_format_exponent(p)}", dict(gauge=gs, p=p)
                cases.add(key, _root(t["s1", p], p), cp * t["comm", p] ** (1.0 / p))
            if p > 1.0:
                denom = _root(t["e", p], p) ** (p - 1.0) * _root(t["s1", p], p)
                cases.record("forward_free_constant", t["comm", p], denom, cfg.abs_tol)
    return cases


def _entropy_props(cfg: SuiteConfig, n: int, idx: range, rngs: list) -> _Cases:
    # two stages, each drawing what it evaluates, in the generators' order;
    # a stage's matrices are released once its values are taken
    rho = sampling.state(rngs, n)
    sig = sampling.psd(rngs, n)
    sig2 = sig + sampling.psd(rngs, n)
    c = np.array([float(rng.uniform(0.2, 5.0)) for rng in rngs])
    sig3 = np.stack([sig, sig2, c[:, None, None] * sig], axis=1)
    del sig2
    # each rho is decomposed once for its three sigmas
    d0, d_mono, d_scaled = rel_entropy(rho[:, None], sig3).T
    del sig3
    lam = np.array([rng.exponential(size=3) for rng in rngs])
    lam = lam / lam.sum(axis=1, keepdims=True)
    thrice = [rng for rng in rngs for _ in range(3)]  # three draws per generator
    rhos = sampling.state(thrice, n).reshape(len(idx), 3, n, n)
    sigs = sampling.psd(thrice, n).reshape(len(idx), 3, n, n)
    mix_r = sum(lam[:, k, None, None] * rhos[:, k] for k in range(3))
    mix_s = sum(lam[:, k, None, None] * sigs[:, k] for k in range(3))
    d_mix = rel_entropy(mix_r, mix_s)
    del mix_r, mix_s
    # one pair per call: each pair's value is its own, and one call holds
    # a third of the stage's decompositions
    d_sum = sum(lam[:, k] * rel_entropy(rhos[:, k], sigs[:, k]) for k in range(3))
    cases = _Cases(n, idx, _fields(lambda j: dict(rho=rho[j], sigma=sig[j], c=float(c[j]))))
    cases.add(("monotone", {}), d_mono, d0)
    cases.add(("scaling", {}), np.abs(d_scaled - d0 + np.log(c)), np.zeros(len(idx)))
    cases.add(("convexity", {}), d_mix, d_sum)
    return cases


def _lemma53(cfg: SuiteConfig, n: int, idx: range, rngs: list) -> _Cases:
    a, b = sampling.psd(rngs, n), sampling.psd(rngs, n)
    cases = _Cases(n, idx, _fields(lambda j: dict(A=a[j], B=b[j])))
    for eps in (0.5, 0.1, 0.01):
        logs = _psd_log(np.stack([a + eps * b, b + eps * a]))
        cases.add((f"eps={eps}", dict(eps=eps)), _habs(logs[0] - logs[1])[:, 0], np.full(len(idx), -math.log(eps)))
        del logs  # else alive while the next eps builds its own
    return cases


def _by_canonical(gauges, solve):
    """``(gs, solve(g))`` for each gauge in order, solving once per canonical
    form: the solvers and maps read nothing of a descriptor but that form."""
    solved = {}
    for gs, g in gauges:
        c = _canonical_form(g)
        if c not in solved:
            solved[c] = solve(g)
        yield gs, solved[c]


def _lemma54(cfg: SuiteConfig, n: int, idx: range, rngs: list) -> _Cases:
    gauges = [(gs, g) for gs, g in cfg.parsed_gauges() if g.smooth]

    def body(rho1, other, t):
        rho2 = (1.0 - t) * rho1 + t * other
        dist = _l1_herm(rho1 - rho2)
        lhs = 1.0 - math.sqrt(dist)
        st1, st2 = check_state(rho1), check_state(rho2)

        def solve(g):
            f1 = entropy_min_mat(g, st1).minimizer
            f2 = entropy_min_mat(g, st2).minimizer
            return eval_gauge(g, _psd_spectrum(0.5 * (f1 + f2)))

        return [(f"g={gs}", lhs, rhs, dict(gauge=gs, rho1=rho1, rho2=rho2, dist=dist)) for gs, rhs in _by_canonical(gauges, solve)]

    drawn = sampling.state(rngs, n), sampling.state(rngs, n), [float(rng.uniform(0.0, 0.5)) for rng in rngs]
    return _per_sample(n, idx, drawn, body)


def _roundtrip(cfg: SuiteConfig, n: int, idx: range, rngs: list) -> _Cases:
    gauges = [(gs, g) for gs, g in cfg.parsed_gauges() if g.smooth]

    def body(rho, spectrum, frame, general_trace, u3, v3):
        st, st_t = check_state(rho), _check_general(general_trace)

        def solve(g):
            """``(part, lhs, rhs, payload fields)`` of the four round trips.

            Each residual is taken as its round trip ends, which releases
            that trip's matrices before the next one starts.  A unit-sphere
            matrix is rebuilt, by the same operations, only to describe a
            violation: its payload field is the callable that builds it.
            """
            unit = spectrum / eval_gauge(g, spectrum)

            def psd_unit():
                return _rebuild(frame, unit, herm=True)

            def general_unit():
                return u3 @ np.diag(unit).astype(complex) @ v3

            def sphere_trip(norm, minimize, start):
                a = start()
                return norm(minimize(g, norming_state(g, a)).minimizer - a)

            return (
                ("state-roundtrip", _l1_herm(norming_state(g, entropy_min_mat(g, st).minimizer) - rho), _STATE_SIDE_TOL, dict(rho=rho)),
                ("sphere-roundtrip", sphere_trip(_l1_herm, entropy_min_mat, psd_unit), _SPHERE_SIDE_TOL, dict(A=psd_unit)),
                ("sphere-roundtrip-general", sphere_trip(trace_norm, entropy_min_general, general_unit), _SPHERE_SIDE_TOL, dict(A=general_unit)),
                ("state-roundtrip-general", trace_norm(norming_state(g, entropy_min_general(g, st_t).minimizer) - general_trace), _STATE_SIDE_TOL, dict(A=general_trace)),
            )

        return [
            (f"g={gs} {part}", lhs, rhs, dict(gauge=gs, **fields))
            for gs, parts in _by_canonical(gauges, solve)
            for part, lhs, rhs, fields in parts
        ]

    rho = sampling.state(rngs, n)
    # spectra kept away from zero: the map-then-minimize direction feeds
    # eigenvalues through a p-th-power-like compression, so spectral
    # ratios must stay above the eigensolver noise floor
    spectrum = [_desc(rng.uniform(0.05, 1.0, size=n)) for rng in rngs]
    frame, u2, v2 = sampling.unitary(rngs, n), sampling.unitary(rngs, n), sampling.unitary(rngs, n)
    tvals = [rng.uniform(0.05, 1.0, size=n) for rng in rngs]
    # each sample's general trace-norm-one matrix; nothing else reads u2, v2
    general = [u @ np.diag(t / t.sum()).astype(complex) @ v for u, t, v in zip(u2, tvals, v2)]
    del u2, v2
    drawn = rho, spectrum, frame, general, sampling.unitary(rngs, n), sampling.unitary(rngs, n)
    return _per_sample(n, idx, drawn, body)


def _mazur_entropy(cfg: SuiteConfig, n: int, idx: range, rngs: list) -> _Cases:
    def body(rho):
        st = check_state(rho)
        # mazur_inverse(rho, p) for every p, from one SVD of rho
        roots = _svd_powers(rho, [1.0 / p for p in cfg.p_grid])
        return [
            (f"p={_format_exponent(p)}", _l1_herm(entropy_min_mat(Lp(p), st).minimizer - root), _STATE_SIDE_TOL, dict(p=p, rho=rho))
            for p, root in zip(cfg.p_grid, roots)
        ]

    return _per_sample(n, idx, (sampling.state(rngs, n),), body)


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
CORE_SUITE_NAMES = tuple(s for s, suite in _SUITES.items() if suite not in (_roundtrip, _mazur_entropy))


def _violation(cfg: SuiteConfig, lhs: float, rhs: float, label: str, fields: dict) -> Violation:
    ratio = lhs / max(rhs, cfg.abs_tol) if cfg.abs_tol > 0 else lhs / max(rhs, 1e-300)
    if not math.isfinite(ratio):
        ratio = 1e308
    return Violation(
        case=label,
        lhs=lhs if math.isfinite(lhs) else 1e308,
        rhs=rhs if math.isfinite(rhs) else 1e308,
        ratio=ratio,
        payload=_payload(fields),
    )


def _block(name: str, cfg: SuiteConfig, n: int, idx: range) -> _Cases:
    """Suite ``name``'s cases for the samples ``idx`` of dimension n.

    Each sample draws from its own generator, keyed by ``(seed, name, n,
    index)`` alone.  An overflow, a division by zero, an invalid operation
    or a failed LAPACK call in the suite is a :class:`NumericalFailure`
    naming the suite and dimension, as is any other numerical failure in it,
    rather than a warning, an inf or NaN side, or a traceback.
    """
    rngs = [sampling.make_rng(cfg.seed, name, n, i) for i in idx]
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _SUITES[name](cfg, n, idx, rngs)
    except (FloatingPointError, NumericalFailure) as exc:
        raise NumericalFailure(f"suite {name} dim={n}: {exc}") from exc


def _block_samples(n: int) -> int:
    """Samples per block at dimension n: as many n-by-n matrices as fit
    ``_BLOCK_ENTRIES`` entries, and at least one."""
    return max(1, _BLOCK_ENTRIES // (n * n))


def _jobs(cfg: SuiteConfig) -> list[tuple[int, range]]:
    """The blocks ``(n, indices)`` of a run, dimension by dimension, in index order."""
    count = cfg.samples_per_case
    jobs = []
    for n in cfg.dims:
        size = _block_samples(n)
        jobs += [(n, range(lo, min(lo + size, count))) for lo in range(0, count, size)]
    return jobs


def run_inequality_suite(name: str, cfg: SuiteConfig, threads: int = 1) -> SuiteReport:
    """Run one registered suite; the report is independent of ``threads``,
    of which at most one per CPU run, and one runs in the calling thread.

    More than one worker runs on a ``concurrent.futures.ThreadPoolExecutor``,
    imported here rather than at module top: one worker runs in the calling
    thread, and neither it nor ``import spectral_mazur`` loads the pool's
    modules (``concurrent.futures``, ``logging``, ``queue``, ...).
    """
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {list(SUITE_NAMES)}")
    jobs = _jobs(cfg)
    workers = min(threads, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return _merge(name, cfg, pool.map(lambda job: _block(name, cfg, *job), jobs))
    return _merge(name, cfg, (_block(name, cfg, *job) for job in jobs))


def _merge(name: str, cfg: SuiteConfig, blocks) -> SuiteReport:
    """Fold blocks, in index order, into the report, each released before
    the next is asked for, so a run on one thread holds one block at a time.

    IEEE division, multiplication, addition and max give the same bits on
    arrays as on one case at a time, so the result does not depend on how
    the cases were cut into blocks.  A case with a NaN side raises
    :class:`NumericalFailure`.
    """
    cases_run = 0
    worst = 0.0
    violations = []
    recorded: dict[str, float] = {}
    for block in blocks:
        lhs, rhs = block.sides()
        nan = np.isnan(lhs) | np.isnan(rhs)
        if nan.any():
            # a NaN side compares false both ways: it would pass silently
            label, _ = block.case(int(np.flatnonzero(nan)[0]))
            raise NumericalFailure(f"suite {name}: case {label!r} evaluated to NaN")
        cases_run += lhs.size
        ok = np.isfinite(lhs) & np.isfinite(rhs) & (rhs > cfg.abs_tol)
        if ok.any():
            worst = max(worst, float((lhs[ok] / rhs[ok]).max()))
        for k in np.flatnonzero(lhs > rhs * (1.0 + cfg.rel_tol) + cfg.abs_tol).tolist():
            violations.append(_violation(cfg, float(lhs[k]), float(rhs[k]), *block.case(k)))
        for key, values in block.records:
            values = values[np.isfinite(values)]
            if values.size:
                recorded[key] = max(recorded.get(key, 0.0), float(values.max()))
        # bound to the loop's names, block k would stay alive while the
        # next iteration builds block k + 1
        del block, lhs, rhs
    return SuiteReport(
        suite_name=name,
        config=cfg,
        cases_run=cases_run,
        violations=tuple(violations),
        worst_ratio=worst,
        passed=not violations,
        recorded=recorded,
    )

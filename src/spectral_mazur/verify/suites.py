"""Randomized verification suites for the norm and map inequalities.

Each suite draws deterministic random instances (see ``sampling``), evaluates
an inequality ``lhs <= rhs`` for every applicable gauge/exponent combination,
and reports violations under the rule ``lhs > rhs * (1 + rel_tol) + abs_tol``.
Suites are registered by name; ``run_inequality_suite`` evaluates one suite
and produces a deterministic :class:`SuiteReport`.

Concurrency model: the samples of each dimension are cut into blocks of at
most ``_BLOCK_SAMPLES`` consecutive indices, and a worker evaluates one block.
Every sample still draws from its own generator, keyed by
``(seed, suite, dim, index)`` and never by its block, so neither the block
size nor the number of threads can change what a sample is.  A worker stacks
its block's matrices and runs LAPACK, matmul and ``rel_entropy`` once per
stacked array.  It then builds every spectrum array it needs and evaluates
them with one ``eval_gauge_rows`` call per canonical gauge and width.  Per
matrix and per row these give the same bits as one call per sample.
``lemma54``, ``roundtrip`` and ``mazur_entropy`` still run sample by sample,
because their solvers take one matrix at a time; they solve once per
canonical gauge (or exponent), and each sampled state is validated and
diagonalised once by ``check_state``, whose result every solve of that state
takes in place of the matrix.  Blocks are merged in index order, which keeps
cases and violations in sample order, so the report bytes do not depend on
the number of threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from ..entropy import check_state, entropy_min_general, entropy_min_mat, norming_state, rel_entropy
from ..errors import NumericalFailure, UnknownSuite
from ..gauge import Lp, _canonical_form, eval_gauge, eval_gauge_rows
from ..matnorm import _EPS, _adj, matrix_to_json
from ..mazur import mazur_inverse
from . import sampling
from .config import SuiteConfig, SuiteReport, Violation

__all__ = ["SUITE_NAMES", "CORE_SUITE_NAMES", "run_inequality_suite"]

# residual budgets for the fixed-point identities between the unit spheres
_STATE_SIDE_TOL = 1e-6  # minimize-then-map direction, certified by the solver
_SPHERE_SIDE_TOL = 1e-5  # map-then-minimize direction, limited by eigh noise

# samples per block: bounds the stacked arrays at MAX_DIM for any sample count
_BLOCK_SAMPLES = 64


# ---------------------------------------------------------------------------
# spectral helpers; each takes one matrix or a stack of them


def _desc(v: np.ndarray) -> np.ndarray:
    return np.sort(np.asarray(v, dtype=float), axis=-1)[..., ::-1]


def _svals(m: np.ndarray) -> np.ndarray:
    return np.linalg.svd(m, compute_uv=False)


def _habs(h: np.ndarray) -> np.ndarray:
    """Singular values of a Hermitian matrix: |eigenvalues|, descending."""
    return _desc(np.abs(np.linalg.eigvalsh(h)))


def _eigh_clip(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lam, w = np.linalg.eigh(m)
    return np.clip(lam, 0.0, None), w


def _power(lam: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    return (w * (lam**p)[..., None, :]) @ _adj(w)


def _spow(x: np.ndarray, e: float) -> np.ndarray:
    """``x ** e`` entry by entry with the scalar pow of Python floats.

    numpy's array pow differs from it in the last bit on a few percent of
    entries; the per-sample formulas powered Python floats.
    """
    return np.array([v**e for v in x.tolist()])


def _pow_desc(d: np.ndarray, p: float) -> np.ndarray:
    """``d ** p`` for stacked ``_desc`` rows, entry by entry as ``_desc(v) ** p``.

    numpy sends a 1-d negative-stride view such as ``_desc(v)`` to its scalar
    pow loop and every 2-d layout to its SIMD loop, which differ in the last
    bit, so the rows are powered as one 1-d negative-stride view.
    """
    flat = np.ascontiguousarray(d[:, ::-1]).ravel()[::-1]
    return (flat**p)[::-1].reshape(d.shape)[:, ::-1]


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
    return _spow(values, 1.0 / p)


def _l1_herm(h: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(h)).sum())


def _l1_gen(m: np.ndarray) -> float:
    return float(_svals(m).sum())


def _psd_log(m: np.ndarray) -> np.ndarray:
    """Matrix log of (numerically) positive definite Hermitian matrices.

    Eigenvalues are floored at the clamp tolerance so that round-off dust on
    a mathematically positive spectrum cannot produce a NaN.
    """
    lam, w = np.linalg.eigh(m)
    floor = np.maximum(lam.shape[-1] * _EPS * lam[..., -1:], 1e-300)
    return (w * np.log(np.clip(lam, floor, None))[..., None, :]) @ _adj(w)


def _contraction(rng: np.random.Generator, n: int, variant: int) -> tuple[np.ndarray, bool]:
    """A draw for a matrix with operator norm exactly 1, in one of three shapes.

    Variants: scaled Ginibre, scaled Hermitian, or the corner block
    ``[[0, I], [0, 0]]`` (padded when n is odd) — the structured matrix whose
    commutators select block differences.  Returns the matrix and whether it
    still has to be scaled by its operator norm (see :func:`_contractions`).
    """
    if variant == 2 and n >= 2:
        m = n // 2
        b = np.zeros((n, n), dtype=complex)
        b[:m, m : 2 * m] = np.eye(m)
        return b, False
    if variant == 1:
        return sampling.hermitian(rng, n), True
    return sampling.ginibre(rng, n), True


def _contractions(draws) -> np.ndarray:
    """Stack :func:`_contraction` draws, scaling those that need it."""
    b = np.stack([m for m, _ in draws])
    scale = np.array([s for _, s in draws])
    if scale.any():
        b[scale] = b[scale] / _svals(b[scale])[:, :1, None]
    return b


def _draws(cfg: SuiteConfig, suite: str, n: int, indices: range, draw) -> list:
    """``draw(rng)`` for each sample of the block, from the sample's own generator."""
    return [draw(sampling.make_rng(cfg.seed, suite, n, i)) for i in indices]


def _stack(draws) -> tuple[np.ndarray, ...]:
    """Per-sample tuples of matrices to one stacked array per position."""
    return tuple(map(np.stack, zip(*draws)))


def _payload(kw: dict) -> dict:
    out = {}
    for key, value in kw.items():
        if isinstance(value, np.ndarray):
            out[key] = matrix_to_json(value)
        elif isinstance(value, (np.floating, np.integer)):
            out[key] = float(value)
        else:
            out[key] = value
    return out


def _fmt(x: float) -> str:
    return str(int(x)) if float(x) == int(x) else repr(float(x))


# ---------------------------------------------------------------------------
# blocks
#
# Each factory takes the config and returns worker(n, indices) -> _Block for
# the samples ``indices`` of dimension n.


class _Block:
    """The cases of one block, in report order.

    ``lhs``/``rhs`` are 1-d arrays; ``describe(k)`` gives case k's label and
    payload fields, and is called only for violations.  ``records`` are
    ``(key, values)`` diagnostics whose maxima are tracked but not asserted.
    """

    __slots__ = ("lhs", "rhs", "describe", "records")

    def __init__(self, lhs, rhs, describe: Callable[[int], tuple[str, dict]], records=()):
        self.lhs = np.asarray(lhs, dtype=float)
        self.rhs = np.asarray(rhs, dtype=float)
        self.describe = describe
        self.records = records


_EMPTY = _Block((), (), None)


class _Cases:
    """Case columns of a block: one ``(rows,)`` array per case kind.

    Row j is the block's j-th sample; the cases of a sample come out in the
    order they were added, after those of the samples before it.
    """

    def __init__(self):
        self.keys, self.lhs, self.rhs, self.records = [], [], [], []

    def add(self, key, lhs: np.ndarray, rhs: np.ndarray):
        self.keys.append(key)
        self.lhs.append(lhs)
        self.rhs.append(rhs)

    def record(self, name: str, num: np.ndarray, den: np.ndarray, tol: float):
        """Record ``num / den`` for the rows where ``den > tol``."""
        keep = den > tol
        self.records.append((name, num[keep] / den[keep]))

    def block(self, describe: Callable[[int, object], tuple[str, dict]]) -> _Block:
        keys = self.keys
        return _Block(
            np.array(self.lhs, dtype=float).T.ravel(),
            np.array(self.rhs, dtype=float).T.ravel(),
            lambda k: describe(k // len(keys), keys[k % len(keys)]),
            self.records,
        )


def _per_sample(body):
    """Block worker running ``body(n, i) -> [(label, lhs, rhs, payload fields)]``
    sample by sample, for the suites whose solvers take one matrix at a time."""

    def worker(n, indices):
        cases = [case for i in indices for case in body(n, i)]
        return _Block([c[1] for c in cases], [c[2] for c in cases], lambda k: (cases[k][0], cases[k][3]))

    return worker


# ---------------------------------------------------------------------------
# suite workers


def _holder(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()
    triples = ((2.0, 2.0, 1.0), (3.0, 1.5, 1.0), (4.0, 4.0, 2.0))

    def worker(n, idx):
        a, b = _stack(_draws(cfg, "holder", n, idx, lambda rng: (sampling.ginibre(rng, n), sampling.ginibre(rng, n))))
        sa, sb, sab = _svals(a), _svals(b), _svals(a @ b)
        spectra = {}
        for p, q, r in triples:
            spectra["A", p], spectra["B", q], spectra["AB", r] = sa**p, sb**q, sab**r
        table = _gauge_table(gauges, spectra)
        cases = _Cases()
        for gs, _ in gauges:
            t = table[gs]
            for p, q, r in triples:
                cases.add((gs, p, q, r), _root(t["AB", r], r), _root(t["A", p], p) * _root(t["B", q], q))

        def describe(j, key):
            gs, p, q, r = key
            label = f"dim={n} i={idx[j]} g={gs} pqr=({_fmt(p)},{_fmt(q)},{_fmt(r)})"
            return label, dict(dim=n, index=idx[j], gauge=gs, p=p, q=q, r=r, A=a[j], B=b[j])

        return cases.block(describe)

    return worker


def _ideal(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()

    def worker(n, idx):
        a, b, c = _stack(_draws(cfg, "ideal", n, idx, lambda rng: tuple(sampling.ginibre(rng, n) for _ in range(3))))
        table = _gauge_table(gauges, {"ABC": _svals(a @ b @ c), "B": _svals(b)})
        opa = _svals(a)[:, 0]
        opc = _svals(c)[:, 0]
        cases = _Cases()
        for gs, _ in gauges:
            cases.add(gs, table[gs]["ABC"], opa * table[gs]["B"] * opc)

        def describe(j, gs):
            return f"dim={n} i={idx[j]} g={gs}", dict(dim=n, index=idx[j], gauge=gs, A=a[j], B=b[j], C=c[j])

        return cases.block(describe)

    return worker


def _contraction_transfer(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()

    def worker(n, idx):
        def draw(rng):
            z = sampling.ginibre(rng, n)
            mix = sampling.ucptp_mixture(rng, n)
            return z, sampling.apply_mixture(mix, z), mix[0]

        z, w, weights = _stack(_draws(cfg, "contraction_transfer", n, idx, draw))
        table = _gauge_table(gauges, {"z": _svals(z), "w": _svals(w)})
        cases = _Cases()
        for gs, _ in gauges:
            cases.add(gs, table[gs]["w"], table[gs]["z"])

        def describe(j, gs):
            return f"dim={n} i={idx[j]} g={gs}", dict(dim=n, index=idx[j], gauge=gs, z=z[j], weights=list(map(float, weights[j])))

        return cases.block(describe)

    return worker


def _fan_dominance(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()

    def worker(n, idx):
        def draw(rng):
            b = sampling.ginibre(rng, n)
            variant = int(rng.integers(3))
            if variant == 0:
                mix = rng.uniform(0.0, 1.0, size=n)
            elif variant == 1:
                mix = [rng.permutation(n) for _ in range(3)]
            else:
                mix = float(rng.uniform(0.2, 1.0))
            return b, variant, mix

        draws = _draws(cfg, "fan_dominance", n, idx, draw)
        sbs = _svals(np.stack([b for b, _, _ in draws]))
        rows = []  # (index, variant, sa, sb) of the samples kept
        for i, (_, variant, mix), sb in zip(idx, draws, sbs):
            if variant == 0:
                sa = _desc(sb * mix)
            elif variant == 1:
                # average over random permutations: doubly stochastic mixing
                acc = np.zeros(n)
                for perm in mix:
                    acc += sb[perm]
                sa = _desc(acc / 3.0)
            else:
                sa = sb * mix
            # defensive: partial-sum dominance must hold by construction
            if not np.any(np.cumsum(sa) > np.cumsum(sb) + 1e-12):
                rows.append((i, variant, sa, sb))
        if not rows:
            return _EMPTY
        table = _gauge_table(gauges, {"a": np.array([r[2] for r in rows]), "b": np.array([r[3] for r in rows])})
        cases = _Cases()
        for gs, _ in gauges:
            cases.add(gs, table[gs]["a"], table[gs]["b"])

        def describe(j, gs):
            i, variant, sa, sb = rows[j]
            payload = dict(dim=n, index=i, gauge=gs, variant=variant, sa=list(map(float, sa)), sb=list(map(float, sb)))
            return f"dim={n} i={i} g={gs} variant={variant}", payload

        return cases.block(describe)

    return worker


def _psd_pair(cfg: SuiteConfig, suite: str, n: int, idx: range):
    return _stack(_draws(cfg, suite, n, idx, lambda rng: (sampling.psd(rng, n), sampling.psd(rng, n))))


def _lemma41(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()

    def worker(n, idx):
        x, y = _psd_pair(cfg, "lemma41", n, idx)
        lx, wx = _eigh_clip(x)
        ly, wy = _eigh_clip(y)
        sdiff = _habs(x - y)
        spectra = {}
        for p in cfg.p_grid:
            spectra["diff", p] = _pow_desc(sdiff, p)
            spectra["pow", p] = _habs(_power(lx, wx, p) - _power(ly, wy, p))
        table = _gauge_table(gauges, spectra)
        cases = _Cases()
        for p in cfg.p_grid:
            for gs, _ in gauges:
                cases.add((gs, p), table[gs]["diff", p], table[gs]["pow", p])

        def describe(j, key):
            gs, p = key
            return f"dim={n} i={idx[j]} g={gs} p={_fmt(p)}", dict(dim=n, index=idx[j], gauge=gs, p=p, x=x[j], y=y[j])

        return cases.block(describe)

    return worker


def _lemma42(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()
    thetas = (0.25, 0.5, 0.75, 1.0)

    def worker(n, idx):
        x, y = _psd_pair(cfg, "lemma42", n, idx)
        lx, wx = _eigh_clip(x)
        ly, wy = _eigh_clip(y)
        desc = {"diff": _habs(x - y), "x": _desc(lx), "y": _desc(ly)}
        spectra = {}
        for theta in thetas:
            q = 1.0 + theta
            spectra["pow", q] = _habs(_power(lx, wx, q) - _power(ly, wy, q))
            spectra.update({(name, q): _pow_desc(d, q) for name, d in desc.items()})
        table = _gauge_table(gauges, spectra)
        cases = _Cases()
        for theta in thetas:
            q = 1.0 + theta
            for gs, _ in gauges:
                t = table[gs]
                nmax = np.maximum(_root(t["x", q], q), _root(t["y", q], q))
                cases.add((gs, theta), t["pow", q], 3.0 * _root(t["diff", q], q) * _spow(nmax, theta))

        def describe(j, key):
            gs, theta = key
            return f"dim={n} i={idx[j]} g={gs} theta={theta}", dict(dim=n, index=idx[j], gauge=gs, theta=theta, x=x[j], y=y[j])

        return cases.block(describe)

    return worker


def _cor43(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()

    def worker(n, idx):
        x, y = _psd_pair(cfg, "cor43", n, idx)
        lx, wx = _eigh_clip(x)
        ly, wy = _eigh_clip(y)
        desc = {"diff": _habs(x - y), "x": _desc(lx), "y": _desc(ly)}
        spectra = {}
        for p in cfg.p_grid:
            spectra["pow", p] = _habs(_power(lx, wx, p) - _power(ly, wy, p))
            spectra.update({(name, p): _pow_desc(d, p) for name, d in desc.items()})
        table = _gauge_table(gauges, spectra)
        cases = _Cases()
        for p in cfg.p_grid:
            for gs, _ in gauges:
                t = table[gs]
                nmax = np.maximum(_root(t["x", p], p), _root(t["y", p], p))
                cases.add((gs, p), t["pow", p], 3.0 * p * _root(t["diff", p], p) * _spow(nmax, p - 1.0))

        def describe(j, key):
            gs, p = key
            return f"dim={n} i={idx[j]} g={gs} p={_fmt(p)}", dict(dim=n, index=idx[j], gauge=gs, p=p, x=x[j], y=y[j])

        return cases.block(describe)

    return worker


def _lemma44(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()

    def worker(n, idx):
        def draw(rng):
            variant = int(rng.integers(3))
            if variant == 2 and n >= 2:
                m = n // 2
                x = np.zeros((n, n), dtype=complex)
                x[:m, :m] = sampling.psd(rng, m)
                x[m : 2 * m, m : 2 * m] = sampling.psd(rng, m)
            else:
                x = sampling.psd(rng, n)
            return variant, x, _contraction(rng, n, variant)

        draws = _draws(cfg, "lemma44", n, idx, draw)
        x = np.stack([d[1] for d in draws])
        b = _contractions([d[2] for d in draws])
        lx, wx = _eigh_clip(x)
        lxd = _desc(lx)
        s1 = _svals(x @ b - b @ x)
        spectra = {}
        for p in cfg.p_grid:
            xp = _power(lx, wx, p)
            spectra["comm", p] = _svals(xp @ b - b @ xp)
            spectra["s1", p] = s1**p
            spectra["x", p] = _pow_desc(lxd, p)
        table = _gauge_table(gauges, spectra)
        cases = _Cases()
        for p in cfg.p_grid:
            for gs, _ in gauges:
                t = table[gs]
                conv_s1 = _root(t["s1", p], p)
                cases.add((gs, p, "first"), conv_s1, 4.0 * 2.0 ** (1.0 / p) * _spow(t["comm", p], 1.0 / p))
                cases.add((gs, p, "second"), t["comm", p], 24.0 * p * _spow(_root(t["x", p], p), p - 1.0) * conv_s1)

        def describe(j, key):
            gs, p, part = key
            payload = dict(dim=n, index=idx[j], gauge=gs, p=p, variant=draws[j][0], x=x[j], b=b[j])
            return f"dim={n} i={idx[j]} g={gs} p={_fmt(p)} {part}", payload

        return cases.block(describe)

    return worker


def _lemma45(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()

    def worker(n, idx):
        def draw(rng):
            x = sampling.psd(rng, n)
            y = x if int(rng.integers(2)) == 1 else sampling.psd(rng, n)
            return x, y, _contraction(rng, n, int(rng.integers(3)))

        draws = _draws(cfg, "lemma45", n, idx, draw)
        x, y = _stack([d[:2] for d in draws])
        b = _contractions([d[2] for d in draws])
        opb = _svals(b)[:, 0]
        lx, wx = _eigh_clip(x)
        ly, wy = _eigh_clip(y)
        desc = {"both": _desc(np.concatenate([lx, ly], axis=-1)), "x": _desc(lx), "y": _desc(ly)}
        s0 = _svals(x @ b + b @ y)
        spectra = {}
        for p in cfg.p_grid:
            spectra["m1", p] = _svals(_power(lx, wx, p) @ b + b @ _power(ly, wy, p))
            spectra["s0", p] = s0**p
            spectra.update({(name, p): _pow_desc(d, p) for name, d in desc.items()})
        table = _gauge_table(gauges, spectra)
        cases = _Cases()
        for p in cfg.p_grid:
            for gs, _ in gauges:
                t = table[gs]
                n0 = _root(t["s0", p], p)
                lhs1 = t["m1", p]
                cases.add((gs, p, "first"), lhs1, 3.0 * _spow(_root(t["both", p], p), p - 1.0) * n0)
                nmax = np.maximum(_root(t["x", p], p), _root(t["y", p], p))
                cases.record("first_vs_max_shape", lhs1, 3.0 * _spow(nmax, p - 1.0) * n0, cfg.abs_tol)
                rhs2 = 2.0 ** (1.0 - 1.0 / p) * _spow(opb, 1.0 - 1.0 / p) * _spow(lhs1, 1.0 / p)
                if p >= 3.0:
                    cases.add((gs, p, "second"), n0, rhs2)
                elif p > 1.0:
                    cases.record("second_below_p3", n0, rhs2, cfg.abs_tol)

        def describe(j, key):
            gs, p, part = key
            payload = dict(dim=n, index=idx[j], gauge=gs, p=p, x=x[j], y=y[j], b=b[j])
            return f"dim={n} i={idx[j]} g={gs} p={_fmt(p)} {part}", payload

        return cases.block(describe)

    return worker


def _schur(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)

    def worker(n, idx):
        def draw(rng):
            return sampling.psd(rng, n), sampling.psd(rng, n), sampling.ginibre(rng, n)

        a, b, xmat = _stack(_draws(cfg, "schur", n, idx, draw))
        la, wa = _eigh_clip(a)
        lb, wb = _eigh_clip(b)
        spectra = {"ref": _svals(a @ xmat + xmat @ b)}
        for alpha in alphas:
            left = _power(la, wa, 1.0 - alpha) @ xmat @ _power(lb, wb, alpha)
            right = _power(la, wa, alpha) @ xmat @ _power(lb, wb, 1.0 - alpha)
            spectra[alpha] = _svals(left + right)
        table = _gauge_table(gauges, spectra)
        cases = _Cases()
        for alpha in alphas:
            for gs, _ in gauges:
                cases.add((gs, alpha), table[gs][alpha], table[gs]["ref"])

        def describe(j, key):
            gs, alpha = key
            payload = dict(dim=n, index=idx[j], gauge=gs, alpha=alpha, A=a[j], B=b[j], X=xmat[j])
            return f"dim={n} i={idx[j]} g={gs} alpha={alpha}", payload

        return cases.block(describe)

    return worker


def _lemma47(cfg: SuiteConfig):
    gauges = cfg.parsed_gauges()

    def worker(n, idx):
        draws = _draws(cfg, "lemma47", n, idx, lambda rng: (sampling.hermitian(rng, n), _contraction(rng, n, int(rng.integers(3)))))
        x = np.stack([d[0] for d in draws])
        b = _contractions([d[1] for d in draws])
        e, wx = np.linalg.eigh(x)
        eabs = _desc(np.abs(e))
        s1 = _svals(x @ b - b @ x)
        spectra = {}
        for p in cfg.p_grid:
            gp = (wx * (np.sign(e) * np.abs(e) ** p)[..., None, :]) @ _adj(wx)
            spectra["comm", p] = _svals(gp @ b - b @ gp)
            if p > 1.0:
                spectra["s1", p] = s1**p
                spectra["e", p] = _pow_desc(eabs, p)
        table = _gauge_table(gauges, spectra)
        cases = _Cases()
        for p in cfg.p_grid:
            cp = 8.0 * 2.0 ** (1.0 / p) + 2.0 ** (2.0 - 1.0 / p)
            for gs, _ in gauges:
                t = table[gs]
                if p >= 3.0:
                    cases.add((gs, p), _root(t["s1", p], p), cp * _spow(t["comm", p], 1.0 / p))
                if p > 1.0:
                    denom = _spow(_root(t["e", p], p), p - 1.0) * _root(t["s1", p], p)
                    cases.record("forward_free_constant", t["comm", p], denom, cfg.abs_tol)

        def describe(j, key):
            gs, p = key
            return f"dim={n} i={idx[j]} g={gs} p={_fmt(p)}", dict(dim=n, index=idx[j], gauge=gs, p=p, x=x[j], b=b[j])

        return cases.block(describe)

    return worker


def _entropy_props(cfg: SuiteConfig):
    def worker(n, idx):
        def draw(rng):
            rho = sampling.state(rng, n)
            sig = sampling.psd(rng, n)
            sig2 = sig + sampling.psd(rng, n)
            c = float(rng.uniform(0.2, 5.0))
            lam = rng.exponential(size=3)
            lam = lam / lam.sum()
            rhos = [sampling.state(rng, n) for _ in range(3)]
            sigs = [sampling.psd(rng, n) for _ in range(3)]
            mix_r = sum(w * r for w, r in zip(lam, rhos))
            mix_s = sum(w * s for w, s in zip(lam, sigs))
            return rho, np.stack([sig, sig2, c * sig]), mix_r, mix_s, np.stack(rhos), np.stack(sigs), lam, c

        rho, sig3, mix_r, mix_s, rhos, sigs, lam, c = _stack(_draws(cfg, "entropy_props", n, idx, draw))
        # each rho is decomposed once for its three sigmas
        d0, d_mono, d_scaled = rel_entropy(rho[:, None], sig3).T
        d_mix = rel_entropy(mix_r, mix_s)
        d_parts = rel_entropy(rhos, sigs)
        d_sum = sum(lam[:, k] * d_parts[:, k] for k in range(3))
        cases = _Cases()
        cases.add("monotone", d_mono, d0)
        # math.log, as the per-sample formula took it: numpy's array log may
        # differ from it in the last bit
        log_c = np.array([math.log(v) for v in c.tolist()])
        cases.add("scaling", np.abs(d_scaled - d0 + log_c), np.zeros(len(idx)))
        cases.add("convexity", d_mix, d_sum)

        def describe(j, part):
            return f"dim={n} i={idx[j]} {part}", dict(dim=n, index=idx[j], rho=rho[j], sigma=sig3[j, 0], c=float(c[j]))

        return cases.block(describe)

    return worker


def _lemma53(cfg: SuiteConfig):
    eps_grid = (0.5, 0.1, 0.01)

    def worker(n, idx):
        a, b = _psd_pair(cfg, "lemma53", n, idx)
        cases = _Cases()
        for eps in eps_grid:
            logs = _psd_log(np.stack([a + eps * b, b + eps * a]))
            cases.add(eps, _habs(logs[0] - logs[1])[:, 0], np.full(len(idx), -math.log(eps)))

        def describe(j, eps):
            return f"dim={n} i={idx[j]} eps={eps}", dict(dim=n, index=idx[j], eps=eps, A=a[j], B=b[j])

        return cases.block(describe)

    return worker


def _smooth_convex_gauges(cfg: SuiteConfig):
    return tuple((s, g) for s, g in cfg.parsed_gauges() if g.smooth)


def _by_canonical(gauges, solve):
    """``(gs, solve(g))`` for each gauge in order, solving once per canonical
    form: the solvers and maps read nothing of a descriptor but that form."""
    solved = {}
    for gs, g in gauges:
        c = _canonical_form(g)
        if c not in solved:
            solved[c] = solve(g)
        yield gs, solved[c]


def _lemma54(cfg: SuiteConfig):
    gauges = _smooth_convex_gauges(cfg)

    def body(n, i):
        rng = sampling.make_rng(cfg.seed, "lemma54", n, i)
        rho1 = sampling.state(rng, n)
        other = sampling.state(rng, n)
        t = float(rng.uniform(0.0, 0.5))
        rho2 = (1.0 - t) * rho1 + t * other
        dist = _l1_herm(rho1 - rho2)
        lhs = 1.0 - math.sqrt(dist)
        st1, st2 = check_state(rho1), check_state(rho2)

        def solve(g):
            f1 = entropy_min_mat(g, st1).minimizer
            f2 = entropy_min_mat(g, st2).minimizer
            return eval_gauge(g, _desc(np.clip(np.linalg.eigvalsh(0.5 * (f1 + f2)), 0.0, None)))

        return [
            (f"dim={n} i={i} g={gs}", lhs, rhs, dict(dim=n, index=i, gauge=gs, rho1=rho1, rho2=rho2, dist=dist))
            for gs, rhs in _by_canonical(gauges, solve)
        ]

    return _per_sample(body)


def _roundtrip(cfg: SuiteConfig):
    gauges = _smooth_convex_gauges(cfg)

    def body(n, i):
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
        st = check_state(rho)

        def solve(g):
            """``(part, lhs, rhs, payload fields)`` of the four round trips."""
            unit = spectrum / eval_gauge(g, spectrum)
            psd_unit = (frame * unit) @ frame.conj().T
            psd_unit = 0.5 * (psd_unit + psd_unit.conj().T)
            general_unit = u3 @ np.diag(unit).astype(complex) @ v3
            back = norming_state(g, entropy_min_mat(g, st).minimizer)
            back_a = entropy_min_mat(g, norming_state(g, psd_unit)).minimizer
            back_b = entropy_min_general(g, norming_state(g, general_unit))
            back_t = norming_state(g, entropy_min_general(g, general_trace))
            return (
                ("state-roundtrip", _l1_herm(back - rho), _STATE_SIDE_TOL, dict(rho=rho)),
                ("sphere-roundtrip", _l1_herm(back_a - psd_unit), _SPHERE_SIDE_TOL, dict(A=psd_unit)),
                ("sphere-roundtrip-general", _l1_gen(back_b - general_unit), _SPHERE_SIDE_TOL, dict(A=general_unit)),
                ("state-roundtrip-general", _l1_gen(back_t - general_trace), _STATE_SIDE_TOL, dict(A=general_trace)),
            )

        return [
            (f"dim={n} i={i} g={gs} {part}", lhs, rhs, dict(dim=n, index=i, gauge=gs, **fields))
            for gs, parts in _by_canonical(gauges, solve)
            for part, lhs, rhs, fields in parts
        ]

    return _per_sample(body)


def _mazur_entropy(cfg: SuiteConfig):
    ps = tuple(p for p in cfg.p_grid)

    def body(n, i):
        rng = sampling.make_rng(cfg.seed, "mazur_entropy", n, i)
        rho = sampling.state(rng, n)
        st = check_state(rho)
        cases = []
        for p in ps:
            g = Lp(p)
            f = entropy_min_mat(g, st).minimizer
            root = mazur_inverse(rho, p)
            cases.append((f"dim={n} i={i} p={_fmt(p)}", _l1_herm(f - root), _STATE_SIDE_TOL, dict(dim=n, index=i, p=p, rho=rho)))
        return cases

    return _per_sample(body)


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


def run_inequality_suite(name: str, cfg: SuiteConfig, threads: int = 1) -> SuiteReport:
    """Run one registered suite; the report is independent of ``threads``."""
    try:
        factory = _SUITES[name]
    except KeyError:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {list(SUITE_NAMES)}") from None
    worker = factory(cfg)
    count = cfg.samples_per_case
    jobs = [(n, range(lo, min(lo + _BLOCK_SAMPLES, count))) for n in cfg.dims for lo in range(0, count, _BLOCK_SAMPLES)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return _merge(name, cfg, pool.map(lambda job: worker(*job), jobs))
    return _merge(name, cfg, (worker(*job) for job in jobs))


def _merge(name: str, cfg: SuiteConfig, blocks) -> SuiteReport:
    """Fold blocks, in index order, into the report.

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
        lhs, rhs = block.lhs, block.rhs
        nan = np.isnan(lhs) | np.isnan(rhs)
        if nan.any():
            # a NaN side compares false both ways: it would pass silently
            label, _ = block.describe(int(np.flatnonzero(nan)[0]))
            raise NumericalFailure(f"suite {name}: case {label!r} evaluated to NaN")
        cases_run += lhs.size
        ok = np.isfinite(lhs) & np.isfinite(rhs) & (rhs > cfg.abs_tol)
        if ok.any():
            worst = max(worst, float((lhs[ok] / rhs[ok]).max()))
        for k in np.flatnonzero(lhs > rhs * (1.0 + cfg.rel_tol) + cfg.abs_tol).tolist():
            violations.append(_violation(cfg, float(lhs[k]), float(rhs[k]), *block.describe(k)))
        for key, values in block.records:
            values = values[np.isfinite(values)]
            if values.size:
                recorded[key] = max(recorded.get(key, 0.0), float(values.max()))
    return SuiteReport(
        suite_name=name,
        config=cfg,
        cases_run=cases_run,
        violations=tuple(violations),
        worst_ratio=worst,
        passed=not violations,
        recorded=recorded,
    )

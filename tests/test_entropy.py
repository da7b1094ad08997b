"""Relative entropy, sphere-constrained minimization, norming states.

The solver is cross-checked against three independent routes: the spectral
closed form for lp gauges (p-th root of the spectrum), a dense grid search
over the feasible sphere, and random feasible competitors.  The maps are
also compared bit for bit, errors included, with their earlier form in
``_reference_maps``, which decomposed and validated on every call.
"""

import math

import numpy as np
import pytest

from spectral_mazur import (
    KyFan,
    Lp,
    SuiteConfig,
    check_state,
    duality_map_mat,
    eigh_psd,
    entropy_min_bruteforce,
    entropy_min_general,
    entropy_min_mat,
    entropy_min_seq,
    eval_gauge,
    norming_state,
    parse_gauge,
    polar,
    rel_entropy,
    trace_norm,
    write_matrix,
)
from spectral_mazur import entropy as entropy_mod
from spectral_mazur import gauge as gauge_mod
from spectral_mazur.entropy import EntropyMinReport
from spectral_mazur.errors import (
    DimensionTooLarge,
    NoConvergence,
    NotProbability,
    NotSmooth,
    NotState,
    NotUnitNorm,
    NotUnitTraceNorm,
    NumericalFailure,
)
from spectral_mazur.cli import main
from spectral_mazur.verify import sampling
from spectral_mazur.verify import suites as suites_mod

import _reference_maps as ref_maps

SOLVER_GAUGES = ("lp:1.5", "lp:2", "lp:3", "lp:4", "conv:2:lp:1", "conv:3:lp:2", "dual:lp:1.5")


def _rand_state(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _haar(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _closed_form(r, p):
    y = r ** (1.0 / p)
    return y / np.sum(y**p) ** (1.0 / p)


# ---------------------------------------------------------------------------
# relative entropy


def test_rel_entropy_frozen_values():
    assert rel_entropy(np.diag([1.0, 0.0]), np.diag([0.5, 0.5])) == pytest.approx(math.log(2.0), abs=1e-12)
    assert rel_entropy(np.diag([0.5, 0.5]), np.diag([1.0, 0.0])) == math.inf
    rho = np.diag([0.3, 0.7])
    assert rel_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_rel_entropy_scaling_shift():
    rng = np.random.default_rng(0)
    rho = _rand_state(rng, 4)
    sigma = _rand_state(rng, 4) * 2.0
    for c in (0.25, 1.7, 8.0):
        assert rel_entropy(rho, c * sigma) == pytest.approx(rel_entropy(rho, sigma) - math.log(c), abs=1e-9)


def test_rel_entropy_unitary_invariance():
    rng = np.random.default_rng(1)
    rho, sigma = _rand_state(rng, 5), _rand_state(rng, 5) * 1.3
    u = _haar(rng, 5)
    assert rel_entropy(u @ rho @ u.conj().T, u @ sigma @ u.conj().T) == pytest.approx(
        rel_entropy(rho, sigma), abs=1e-9
    )


def test_rel_entropy_nonnegative_on_states():
    rng = np.random.default_rng(2)
    for n in (2, 3, 6):
        rho, sigma = _rand_state(rng, n), _rand_state(rng, n)
        assert rel_entropy(rho, sigma) >= -1e-12


def test_rel_entropy_supported_singular_sigma():
    # sigma singular but supporting rho: finite, equals the reduced value
    rho = np.diag([0.4, 0.6, 0.0])
    sigma = np.diag([0.5, 0.5, 0.0])
    expect = 0.4 * math.log(0.4 / 0.5) + 0.6 * math.log(0.6 / 0.5)
    assert rel_entropy(rho, sigma) == pytest.approx(expect, abs=1e-12)


def test_check_state_rejections():
    with pytest.raises(NotState):
        check_state(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(NotState):
        check_state(np.array([[0.5, 0.4], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(NotState):
        check_state(np.diag([1.5, -0.5]))  # indefinite


def _rand_psd(rng, n, rank=None):
    g = rng.normal(size=(n, rank or n)) + 1j * rng.normal(size=(n, rank or n))
    return g @ g.conj().T


def test_rel_entropy_on_stacks_equals_each_pair_bit_for_bit():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 9, 16):
        rho = np.stack([_rand_state(rng, n) for _ in range(4)])
        sigma = np.stack([[_rand_psd(rng, n) for _ in range(4)] for _ in range(3)])
        sigma[0, 1] = _rand_psd(rng, n, rank=max(n - 1, 1))  # a support leak for n > 1
        sigma[2, 3] = rho[3]  # D(rho || rho) = 0 up to round-off
        got = rel_entropy(rho, sigma)  # (4,) states broadcast against (3, 4) sigmas
        assert got.shape == (3, 4)
        want = [[rel_entropy(rho[j], sigma[k, j]) for j in range(4)] for k in range(3)]
        assert got.tolist() == want, n
        assert rel_entropy(rho, sigma[1]).tolist() == want[1]


def test_rel_entropy_support_leak_in_a_stack_is_inf():
    rho = np.stack([np.diag([0.5, 0.5]), np.diag([1.0, 0.0])])
    sigma = np.stack([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])])
    got = rel_entropy(rho, sigma)
    assert got[0] == math.inf and got[1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "bad_rho,bad_sigma",
    [
        (np.array([[0.5, 0.4], [0.1, 0.5]]), None),  # not Hermitian
        (np.diag([0.7, 0.7]), None),  # trace 1.4
        (np.diag([1.5, -0.5]), None),  # not PSD
        (None, np.eye(3)),  # dimension mismatch
    ],
)
def test_rel_entropy_on_stacks_raises_what_the_pair_raises(bad_rho, bad_sigma):
    good = np.diag([0.25, 0.75])
    rho = good if bad_rho is None else bad_rho
    sigma = np.eye(2) if bad_sigma is None else bad_sigma
    with pytest.raises(NotState) as single:
        rel_entropy(rho, sigma)
    with pytest.raises(NotState) as stacked:
        rel_entropy(np.stack([good, rho, good]), sigma if bad_sigma is not None else np.stack([np.eye(2)] * 3))
    assert str(stacked.value) == str(single.value)


def test_rel_entropy_rejects_stacks_that_do_not_broadcast():
    rho = np.stack([np.diag([0.25, 0.75])] * 2)
    with pytest.raises(NotState):
        rel_entropy(rho, np.stack([np.eye(2)] * 3))


# ---------------------------------------------------------------------------
# spectrum-level minimization


def test_seq_closed_form_lp():
    rng = np.random.default_rng(3)
    for p in (1.5, 2.0, 3.0, 4.0):
        for n in (2, 4, 8):
            x = rng.random(n) + 0.01
            r = x / x.sum()
            y = entropy_min_seq(Lp(p), r)
            assert np.allclose(y, _closed_form(r, p), atol=1e-9), (p, n)


def test_seq_frozen_uniform_lp2():
    y = entropy_min_seq(Lp(2.0), np.array([0.5, 0.5]))
    assert np.allclose(y, 2.0**-0.5, atol=1e-12)


def test_seq_frozen_objective_lp3():
    # objective value verified against a 2-million-point scan of the sphere
    r = np.array([0.3, 0.7])
    rep = entropy_min_mat(Lp(3.0), np.diag(r))
    assert rep.objective == pytest.approx(-0.4072428680365956, abs=1e-9)


def test_seq_trace_gauge_returns_input():
    r = np.array([0.2, 0.5, 0.3])
    y = entropy_min_seq(Lp(1.0), r)
    assert np.array_equal(y, r)


def test_seq_descriptor_gauges_match_canonical_lp():
    rng = np.random.default_rng(4)
    x = rng.random(5) + 0.05
    r = x / x.sum()
    assert np.allclose(entropy_min_seq(parse_gauge("conv:2:lp:1"), r), _closed_form(r, 2.0), atol=1e-9)
    assert np.allclose(entropy_min_seq(parse_gauge("conv:3:lp:2"), r), _closed_form(r, 6.0), atol=1e-9)
    assert np.allclose(entropy_min_seq(parse_gauge("dual:lp:1.5"), r), _closed_form(r, 3.0), atol=1e-9)


def test_seq_zero_weights_stay_zero():
    r = np.array([0.0, 0.4, 0.6, 0.0])
    y = entropy_min_seq(Lp(2.0), r)
    assert y[0] == 0.0 and y[3] == 0.0
    assert np.allclose(y[1:3], _closed_form(r[1:3], 2.0), atol=1e-9)


def test_seq_permutation_equivariance():
    rng = np.random.default_rng(5)
    x = rng.random(6) + 0.01
    r = x / x.sum()
    perm = rng.permutation(6)
    y = entropy_min_seq(Lp(4.0), r)
    y_perm = entropy_min_seq(Lp(4.0), r[perm])
    assert np.allclose(y_perm, y[perm], atol=1e-10)


def test_seq_preconditions():
    with pytest.raises(NotProbability):
        entropy_min_seq(Lp(2.0), np.array([0.5, 0.6]))
    with pytest.raises(NotProbability):
        entropy_min_seq(Lp(2.0), np.array([1.5, -0.5]))
    with pytest.raises(NotSmooth):
        entropy_min_seq(Lp(math.inf), np.array([0.5, 0.5]))
    with pytest.raises(NotSmooth):
        entropy_min_seq(KyFan(2), np.array([0.5, 0.5]))


def test_seq_no_convergence_reports_residual(monkeypatch):
    monkeypatch.setattr(entropy_mod, "_MAX_ITER", 0)
    with pytest.raises(NoConvergence) as exc:
        entropy_min_seq(Lp(4.0), np.array([0.1, 0.2, 0.7]))
    assert exc.value.residual > 0.0


# ---------------------------------------------------------------------------
# matrix-level minimization


def test_mat_report_fields_and_certificate():
    rng = np.random.default_rng(6)
    rho = _rand_state(rng, 5)
    rep = entropy_min_mat(Lp(3.0), rho)
    assert isinstance(rep, EntropyMinReport)
    assert rep.fixed_point_residual <= 1e-8
    assert rep.iterations >= 0
    assert eval_gauge(Lp(3.0), np.linalg.eigvalsh(rep.minimizer)) == pytest.approx(1.0, abs=1e-9)
    d = rep.to_json()
    assert set(d) == {"minimizer", "objective", "fixed_point_residual", "iterations"}


def test_mat_minimizer_commutes_with_input():
    rng = np.random.default_rng(7)
    rho = _rand_state(rng, 5)
    sig = entropy_min_mat(Lp(2.0), rho).minimizer
    comm = rho @ sig - sig @ rho
    assert np.max(np.abs(comm)) <= 1e-8


def test_mat_unitary_equivariance():
    rng = np.random.default_rng(8)
    rho = _rand_state(rng, 4)
    u = _haar(rng, 4)
    a = entropy_min_mat(Lp(3.0), u @ rho @ u.conj().T).minimizer
    b = u @ entropy_min_mat(Lp(3.0), rho).minimizer @ u.conj().T
    assert np.max(np.abs(a - b)) <= 1e-7


def test_mat_degenerate_spectrum_is_symmetric():
    rho = np.diag([0.25, 0.25, 0.5])
    y = np.diag(entropy_min_mat(Lp(2.0), rho).minimizer).real
    assert y[0] == pytest.approx(y[1], abs=1e-12)
    assert np.allclose(y, _closed_form(np.diag(rho), 2.0), atol=1e-9)


def test_mat_objective_equals_rel_entropy_of_minimizer():
    rng = np.random.default_rng(9)
    rho = _rand_state(rng, 4)
    rep = entropy_min_mat(Lp(2.0), rho)
    assert rep.objective == pytest.approx(rel_entropy(rho, rep.minimizer), abs=1e-8)


def test_mat_beats_random_feasible_competitors():
    rng = np.random.default_rng(10)
    for s in ("lp:1.5", "lp:2", "lp:3"):
        g = parse_gauge(s)
        rho = _rand_state(rng, 3)
        rep = entropy_min_mat(g, rho)
        for _ in range(100):
            z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            cand = z @ z.conj().T
            cand = cand / eval_gauge(g, np.linalg.eigvalsh(cand))
            assert rel_entropy(rho, cand) >= rep.objective - 1e-9, s


def test_mat_rejects_non_state():
    with pytest.raises(NotState):
        entropy_min_mat(Lp(2.0), np.diag([0.7, 0.7]))


# ---------------------------------------------------------------------------
# brute-force oracle agreement


def test_bruteforce_matches_closed_form_two_dims():
    r = np.array([0.3, 0.7])
    rep = entropy_min_bruteforce(Lp(2.0), np.diag(r))
    assert rep.pitch > 0.0
    y_exact = _closed_form(r, 2.0)
    assert np.abs(np.diag(rep.minimizer).real - y_exact).sum() <= 2.0 * rep.pitch


def test_bruteforce_matches_solver_three_dims():
    rng = np.random.default_rng(11)
    for s in ("lp:1.5", "lp:2", "conv:2:lp:2"):
        g = parse_gauge(s)
        x = rng.random(3) + 0.1
        r = x / x.sum()
        brute = entropy_min_bruteforce(g, np.diag(r))
        solved = entropy_min_mat(g, np.diag(r)).minimizer
        dist = trace_norm(brute.minimizer - solved)
        assert dist <= 2.0 * brute.pitch, (s, dist, brute.pitch)
        assert brute.objective >= entropy_min_mat(g, np.diag(r)).objective - 1e-9


def _reference_bruteforce(g, r):
    """The grid oracle's scan written one point at a time through ``eval_gauge``.

    Same grids, refinement, tie rule and pitch as ``entropy_min_bruteforce``;
    returns ``(minimizer spectrum, objective, pitch)``.
    """
    supp = np.flatnonzero(r > 0.0)
    rs = r[supp]

    def objective_at(w):
        nw = eval_gauge(g, w)
        if nw <= 0.0:
            return math.inf, None
        y = w / nw
        if np.any((rs > 0.0) & (y <= 0.0)):
            return math.inf, y
        return float(np.sum(rs * np.log(rs / y))), y

    def scan(points):
        best = (math.inf, None, None)
        for w in points:
            val, y = objective_at(w)
            if val < best[0]:
                best = (val, y, w)
        return best

    def point(a, b=None):
        if b is None:
            return np.array([a, 1.0 - a])
        cand = np.array([a, b, 0.0])
        cand[2] = 1.0 - cand[0] - cand[1]
        return cand

    if supp.size == 2:
        val, y, w = scan(point(t) for t in np.linspace(0.0, 1.0, 2001))
        h = 1.0 / 2000
        fine_t = np.linspace(max(0.0, w[0] - h), min(1.0, w[0] + h), 2001)
        val, y, w = min((scan(point(t) for t in fine_t), (val, y, w)), key=lambda b: b[0])
        step = float(fine_t[1] - fine_t[0])
        neighbours = [point(t) for t in (w[0] - step, w[0] + step) if 0.0 <= t <= 1.0]
    else:
        base = [np.array([i, j, 60 - i - j]) / 60 for i in range(61) for j in range(61 - i)]
        val, y, w = scan(base)
        axis = np.linspace(-1.0 / 60, 1.0 / 60, 81)
        fine = (point(w[0] + da, w[1] + db) for da in axis for db in axis)
        val, y, w = min((scan(c for c in fine if np.all(c >= 0.0)), (val, y, w)), key=lambda b: b[0])
        step = float(axis[1] - axis[0])
        deltas = ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step))
        neighbours = [c for c in (point(w[0] + da, w[1] + db) for da, db in deltas) if np.all(c >= 0.0)]
    pitch = 1e-12
    for nb in neighbours:
        _, yn = objective_at(nb)
        if yn is not None:
            pitch = max(pitch, float(np.abs(yn - y).sum()))
    y_full = np.zeros(r.size)
    y_full[supp] = y
    return y_full, val, pitch


@pytest.mark.parametrize("n", [2, 3])
def test_bruteforce_matches_per_point_reference(n):
    rng = np.random.default_rng(40 + n)
    states = [rng.dirichlet(np.full(n, 2.0)) for _ in range(2)]
    if n == 3:
        states.append(np.array([0.6, 0.0, 0.4]))  # support of size 2 inside dim 3
    # kyfan:2 takes the row-by-row fallback of the array evaluation
    for r in states:
        for s in ("lp:1.5", "lp:2", "lp:3", "conv:2:lp:2", "kyfan:2"):
            g = parse_gauge(s)
            rep = entropy_min_bruteforce(g, np.diag(r))
            y, objective, pitch = _reference_bruteforce(g, r)
            # neighbouring grid points lie at least 1e-7 apart on the sphere,
            # so agreement to 1e-15 means the same grid point won
            assert np.abs(np.diag(rep.minimizer).real - y).max() <= 1e-15, (r, s)
            assert abs(rep.objective - objective) <= 1e-12 * abs(objective), (r, s)
            assert abs(rep.pitch - pitch) <= 1e-12 * pitch, (r, s)


def test_bruteforce_calls_no_solver_code(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the grid oracle called the solver's code")

    for mod, name in ((entropy_mod, "_solve_support"), (entropy_mod, "duality_map_seq"), (gauge_mod, "duality_map_seq")):
        monkeypatch.setattr(mod, name, forbidden)
    for n in (2, 3):
        rep = entropy_min_bruteforce(Lp(2.0), np.diag(np.full(n, 1.0 / n)))
        assert rep.pitch > 0.0


def test_bruteforce_preconditions():
    with pytest.raises(DimensionTooLarge):
        entropy_min_bruteforce(Lp(2.0), np.eye(4) / 4.0)
    with pytest.raises(NotState):
        entropy_min_bruteforce(Lp(2.0), np.array([[0.5, 0.2], [0.2, 0.5]]))  # not diagonal


# ---------------------------------------------------------------------------
# norming state and polar extension


def test_norming_state_frozen_identity_matrix():
    a = np.eye(2, dtype=complex) / math.sqrt(2.0)
    out = norming_state(Lp(2.0), a)
    assert np.allclose(out, np.eye(2) / 2.0, atol=1e-12)


def test_norming_state_trace_one():
    rng = np.random.default_rng(12)
    for s in ("lp:1.5", "lp:2", "lp:4"):
        g = parse_gauge(s)
        m = _rand_state(rng, 4)  # PSD
        m = m / eval_gauge(g, np.linalg.eigvalsh(m))
        out = norming_state(g, m)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10), s
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-12


def test_norming_state_requires_unit_norm():
    with pytest.raises(NotUnitNorm):
        norming_state(Lp(2.0), np.eye(2))


def test_roundtrip_state_to_sphere_and_back():
    rng = np.random.default_rng(13)
    for s in SOLVER_GAUGES:
        g = parse_gauge(s)
        rho = _rand_state(rng, 4)
        sig = entropy_min_mat(g, rho).minimizer
        back = norming_state(g, sig)
        assert trace_norm(back - rho) <= 1e-6, s


def test_roundtrip_sphere_to_state_and_back():
    rng = np.random.default_rng(14)
    for s in SOLVER_GAUGES:
        g = parse_gauge(s)
        vals = np.sort(rng.uniform(0.05, 1.0, size=4))[::-1]
        u = _haar(rng, 4)
        a = (u * (vals / eval_gauge(g, vals))) @ u.conj().T
        a = 0.5 * (a + a.conj().T)
        rho = norming_state(g, a)
        back = entropy_min_mat(g, rho).minimizer
        assert trace_norm(back - a) <= 1e-5, s


def test_general_polar_extension():
    rng = np.random.default_rng(15)
    g = Lp(2.0)
    # non-Hermitian input with unit trace norm
    u, v = _haar(rng, 3), _haar(rng, 3)
    tvals = rng.uniform(0.1, 1.0, size=3)
    tvals /= tvals.sum()
    a = u @ np.diag(tvals).astype(complex) @ v
    out = entropy_min_general(g, a)
    # the minimizer inherits the polar isometry of the input
    assert eval_gauge(g, np.linalg.svd(out, compute_uv=False)) == pytest.approx(1.0, abs=1e-9)
    # PSD input reduces to the state-level result
    rho = _rand_state(rng, 3)
    assert np.allclose(entropy_min_general(g, rho), entropy_min_mat(g, rho).minimizer, atol=1e-10)


def test_general_requires_unit_trace_norm():
    with pytest.raises(NotUnitTraceNorm):
        entropy_min_general(Lp(2.0), np.eye(3))


def test_general_roundtrip_non_hermitian():
    rng = np.random.default_rng(16)
    g = Lp(3.0)
    u, v = _haar(rng, 4), _haar(rng, 4)
    vals = np.sort(rng.uniform(0.1, 1.0, size=4))[::-1]
    a = u @ np.diag(vals / eval_gauge(g, vals)).astype(complex) @ v
    rho = norming_state(g, a)
    assert trace_norm(rho) == pytest.approx(1.0, abs=1e-9)
    back = entropy_min_general(g, rho)
    assert trace_norm(back - a) <= 1e-5


# ---------------------------------------------------------------------------
# the maps against their earlier form: one decomposition per map call and an
# unchecked solver loop must change no bit and no error

CONTRACT_GAUGES = ("lp:1.5", "lp:2", "lp:4", "conv:3:lp:2", "dual:lp:1.5")


def _unit_norm(g, a):
    return a / eval_gauge(g, np.linalg.svd(a, compute_uv=False))


def _map_inputs(rng, n=4):
    """Matrices of each shape the maps meet, before normalisation."""
    u, v = _haar(rng, n), _haar(rng, n)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    vals = rng.uniform(0.1, 1.0, size=n)
    low = vals.copy()
    low[: n // 2] = 0.0
    return {
        "psd": _rand_psd(rng, n),
        "psd-rank-deficient": _rand_psd(rng, n, rank=2),
        "hermitian-indefinite": (u * (signs * vals)) @ u.conj().T,
        "general": rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
        "general-rank-deficient": u @ np.diag(low).astype(complex) @ v,
    }


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _outcome(fn, *args):
    """What ``fn(*args)`` gives, in a form that compares bit for bit: the
    error type it raises, or the bytes of its matrix (and, for a report, its
    scalar fields)."""
    try:
        out = fn(*args)
    except Exception as exc:  # the type is what is compared
        return type(exc)
    if isinstance(out, EntropyMinReport):
        return out.minimizer.tobytes(), out.objective, out.fixed_point_residual, out.iterations
    return out.tobytes()


@pytest.mark.parametrize("s", CONTRACT_GAUGES)
def test_norming_state_equals_its_earlier_form_bit_for_bit(s):
    g = parse_gauge(s)
    for kind, a in _map_inputs(np.random.default_rng(50)).items():
        a = _unit_norm(g, a)
        want = _outcome(ref_maps.norming_state, g, a)
        assert isinstance(want, bytes), kind
        assert _outcome(norming_state, g, a) == want, kind


def _cut_closed_form(rho, g):
    """The closed-form minimizer ``w y w†``, ``y = r^(1/p)`` normalised, of a
    state with spectrum ``r``, whose round-off weights (``r_j <= n eps max r``)
    are outside the support."""
    lam, w = check_state(rho)
    r = np.where(lam > lam.size * np.finfo(float).eps * lam[-1], lam, 0.0)
    return (w * _closed_form(r, gauge_mod._canonical_form(g).p)) @ w.conj().T


@pytest.mark.parametrize("s", CONTRACT_GAUGES + ("lp:1",))
def test_entropy_min_general_equals_its_earlier_form_bit_for_bit(s):
    # the modulus of a rank-deficient input keeps round-off eigenvalues,
    # which are outside the support now: those inputs get the closed form on
    # the rest (the earlier form differed from it by up to 5.5e-9 here)
    g = parse_gauge(s)
    for kind, a in _map_inputs(np.random.default_rng(51)).items():
        a = a / trace_norm(a)
        if kind.endswith("rank-deficient"):
            parts = polar(a)
            want = parts.isometry @ _cut_closed_form(parts.modulus / np.trace(parts.modulus).real, g)
            assert trace_norm(entropy_min_general(g, a) - want) <= 1e-7, kind
        else:
            assert _outcome(entropy_min_general, g, a) == _outcome(ref_maps.entropy_min_general, g, a), kind


def _rank_deficient_state(rng):
    """A rank-2 state of dimension 5 whose spectrum keeps round-off
    eigenvalues near 1e-17 (at seed 52: 0, 7.6e-18, 2.6e-17, 0.26, 0.74)."""
    low = _rand_psd(rng, 5, rank=2)
    return low / np.trace(low).real


@pytest.mark.parametrize("s", CONTRACT_GAUGES + ("lp:1",))
def test_entropy_min_mat_equals_its_earlier_form_given_a_matrix_or_its_checked_state(s):
    # a full-rank state gives the bits it gave before.  On the rank-deficient
    # state the earlier form failed at lp:1.5 (NumericalFailure, after numpy's
    # warnings on a zero iterate) and gave the round-off eigenvalues weights
    # r_j^(1/p) at the other gauges (3e-3 in trace norm at conv:3:lp:2); they
    # are outside the support now, as in rel_entropy, and the map gives the
    # closed form r^(1/p) on the rest
    g = parse_gauge(s)
    rng = np.random.default_rng(52)
    low = _rank_deficient_state(rng)
    rho = _rand_state(rng, 5)
    want = _outcome(ref_maps.entropy_min_mat, g, rho)
    assert _outcome(entropy_min_mat, g, rho) == want
    assert _outcome(entropy_min_mat, g, check_state(rho)) == want
    rep = entropy_min_mat(g, low)
    assert _outcome(entropy_min_mat, g, check_state(low)) == _outcome(entropy_min_mat, g, low)
    assert rep.fixed_point_residual <= 1e-8
    assert trace_norm(rep.minimizer - _cut_closed_form(low, g)) <= 1e-7


def test_map_entropy_min_solves_a_rank_deficient_state(tmp_path, capsys):
    path = tmp_path / "rho.json"
    write_matrix(path, _rank_deficient_state(np.random.default_rng(52)))
    assert main(["map", "entropy-min", str(path), "--gauge", "lp:1.5", "--out", str(tmp_path / "out.json")]) == 0
    assert capsys.readouterr().err == ""


def test_check_state_unpacks_as_spectrum_and_basis():
    rho = _rand_state(np.random.default_rng(53), 3)
    state = check_state(rho)
    lam, w = state
    assert isinstance(state, tuple) and len(state) == 2
    want_lam, want_w = eigh_psd(rho)
    assert _same_bits(lam, want_lam) and _same_bits(w, want_w)


def test_the_maps_raise_what_they_raised_before():
    g = Lp(2.0)
    inputs = _map_inputs(np.random.default_rng(54))
    for kind, a in inputs.items():
        big = 2.0 * _unit_norm(g, a)  # norm 2: not on the unit sphere
        assert _outcome(norming_state, g, big) is NotUnitNorm, kind
        assert _outcome(ref_maps.norming_state, g, big) is NotUnitNorm, kind
        wide = 2.0 * a / trace_norm(a)
        assert _outcome(entropy_min_general, g, wide) is NotUnitTraceNorm, kind
        assert _outcome(ref_maps.entropy_min_general, g, wide) is NotUnitTraceNorm, kind
    kyfan = KyFan(2)
    for kind in ("psd", "general"):
        unit = _unit_norm(kyfan, inputs[kind])
        assert _outcome(norming_state, kyfan, unit) is NotSmooth, kind
        assert _outcome(ref_maps.norming_state, kyfan, unit) is NotSmooth, kind
    rho = _rand_state(np.random.default_rng(55), 3)
    assert _outcome(ref_maps.entropy_min_mat, kyfan, rho) is NotSmooth
    assert _outcome(entropy_min_mat, kyfan, rho) is NotSmooth
    assert _outcome(entropy_min_mat, kyfan, check_state(rho)) is NotSmooth


@pytest.mark.parametrize("s", CONTRACT_GAUGES + ("kyfan:2",))
def test_duality_map_mat_equals_its_earlier_form_bit_for_bit(s):
    g = parse_gauge(s)
    inputs = _map_inputs(np.random.default_rng(57))
    for kind, a in {**inputs, "zero": np.zeros((4, 4))}.items():
        want = _outcome(ref_maps.duality_map_mat, g, a)
        assert _outcome(duality_map_mat, g, a) == want, kind
        assert isinstance(want, bytes) == (g.smooth and kind != "zero"), kind


def test_a_non_finite_solver_iterate_raises_numerical_failure(monkeypatch):
    monkeypatch.setattr(entropy_mod, "_line_search", lambda *args: math.nan)
    with pytest.raises(NumericalFailure, match="NaN or Inf"):
        entropy_min_seq(Lp(4.0), np.array([0.1, 0.2, 0.7]))


class _LinalgCalls:
    """Counts the LAPACK entry points of ``numpy.linalg`` while installed."""

    NAMES = ("eigh", "eigvalsh", "svd")

    def __init__(self, monkeypatch):
        self.args = {name: [] for name in self.NAMES}
        for name in self.NAMES:
            monkeypatch.setattr(np.linalg, name, self._counted(name, getattr(np.linalg, name)))

    def _counted(self, name, fn):
        def counted(a, *args, **kwargs):
            self.args[name].append(np.array(a, copy=True))
            return fn(a, *args, **kwargs)

        return counted

    def counts(self):
        return {name: len(calls) for name, calls in self.args.items()}

    def reset(self):
        for calls in self.args.values():
            calls.clear()


def test_each_map_diagonalises_its_input_once(monkeypatch):
    g = Lp(3.0)
    inputs = _map_inputs(np.random.default_rng(56))
    psd, general = _unit_norm(g, inputs["psd"]), _unit_norm(g, inputs["general"])
    trace_one = inputs["general"] / trace_norm(inputs["general"])
    calls = _LinalgCalls(monkeypatch)
    norming_state(g, psd)
    assert calls.counts() == {"eigh": 1, "eigvalsh": 0, "svd": 0}
    calls.reset()
    norming_state(g, general)
    assert calls.counts() == {"eigh": 1, "eigvalsh": 0, "svd": 1}
    calls.reset()
    entropy_min_general(g, trace_one)
    assert calls.counts() == {"eigh": 1, "eigvalsh": 0, "svd": 1}
    calls.reset()
    duality_map_mat(g, psd)
    assert calls.counts() == {"eigh": 1, "eigvalsh": 0, "svd": 0}
    calls.reset()
    duality_map_mat(g, general)
    assert calls.counts() == {"eigh": 1, "eigvalsh": 0, "svd": 1}


def _sampled_states(suite, seed, n, i):
    """The states a sample of ``suite`` draws and minimizes: its first draw,
    and for ``lemma54`` the mixture ``rho2`` too."""
    rng = sampling.make_rng(seed, suite, n, i)
    rho = sampling.state(rng, n)
    if suite != "lemma54":
        return [rho]
    other = sampling.state(rng, n)
    t = float(rng.uniform(0.0, 0.5))
    return [rho, (1.0 - t) * rho + t * other]


@pytest.mark.parametrize("suite", ["lemma54", "roundtrip", "mazur_entropy"])
def test_a_suite_sample_diagonalises_each_sampled_state_once(monkeypatch, suite):
    cfg = SuiteConfig(seed=1, dims=(4,), samples_per_case=1)
    smooth = {suites_mod._canonical_form(g) for _, g in cfg.parsed_gauges() if g.smooth}
    assert len(smooth) > 1 and len(cfg.p_grid) > 1  # several solves per state
    calls = _LinalgCalls(monkeypatch)
    suites_mod._SUITES[suite](cfg)(4, range(1))
    for rho in _sampled_states(suite, cfg.seed, 4, 0):
        assert sum(np.array_equal(a, 0.5 * (rho + rho.conj().T)) for a in calls.args["eigh"]) == 1

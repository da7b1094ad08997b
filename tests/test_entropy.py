"""Relative entropy, sphere-constrained minimization, norming states.

The solver is cross-checked against three independent routes: the spectral
closed form for lp gauges (p-th root of the spectrum), a dense grid search
over the feasible sphere, and random feasible competitors.  The maps are
also compared bit for bit, errors included, with their earlier form in
``_reference_maps``, which decomposed and validated on every call.
"""

import math
import tracemalloc

import numpy as np
import pytest

from spectral_mazur import (
    KyFan,
    Lp,
    SuiteConfig,
    check_state,
    duality_map_mat,
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
from spectral_mazur.matnorm import _eigh_psd, as_matrix
from spectral_mazur.verify import suites as suites_mod

import _reference_maps as ref_maps
import _reference_sampling as ref_sampling

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


def test_check_state_keeps_its_tighter_hermitian_check():
    # an asymmetry between check_state's 1e-12 and _eigh_psd's 1e-10 of the
    # scale: check_state decomposes with _eigh_psd's core, not through its check
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[0, 1] = 1e-11
    with pytest.raises(NotState, match="^density matrix must be Hermitian$"):
        check_state(rho)
    lam, _ = _eigh_psd(as_matrix(rho))
    assert lam == pytest.approx([0.5, 0.5])


def _rand_psd(rng, n, rank=None):
    g = rng.normal(size=(n, rank or n)) + 1j * rng.normal(size=(n, rank or n))
    return g @ g.conj().T


def test_rel_entropy_on_stacks_equals_each_pair_bit_for_bit():
    rng = np.random.default_rng(3)
    # from n = 8 numpy sums a row pairwise, masked zeros included
    for n in (1, 2, 5, 9, 16, 64):
        rho = np.stack([_rand_state(rng, n) for _ in range(4)])
        for j in (2, 3):  # rank-deficient states: the support mask drops entries
            low = _rand_psd(rng, n, rank=max(n // 2, 1))
            rho[j] = low / np.trace(low).real
        sigma = np.stack([[_rand_psd(rng, n) for _ in range(4)] for _ in range(3)])
        sigma[0, 1] = _rand_psd(rng, n, rank=max(n - 1, 1))  # a support leak for n > 1
        sigma[2, 3] = rho[3]  # D(rho || rho) = 0 up to round-off, on a deficient support
        if n > 1:
            r = check_state(rho[2])[0]
            assert (r <= n * np.finfo(float).eps * r[-1]).sum() >= n - max(n // 2, 1)
            assert math.isfinite(rel_entropy(rho[3], sigma[2, 3]))
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


def test_bruteforce_pitch_is_no_radius_but_its_objective_is_a_certificate():
    # draw 79 of default_rng(0) Dirichlet(0.7) at dim 3: near a vanishing
    # eigenvalue the grid winner lies several pitches from the true minimizer
    # on the flat lp:4 sphere, yet the solver's objective beats the grid's
    r = np.array([0.33211995968240676, 0.0013491112468248239, 0.6665309290707686])
    g = Lp(4.0)
    brute = entropy_min_bruteforce(g, np.diag(r))
    sol = entropy_min_mat(g, np.diag(r))
    assert trace_norm(sol.minimizer - brute.minimizer) > 4.0 * brute.pitch
    assert sol.objective <= brute.objective - 3e-6


def _reference_bruteforce(g, r):
    """The grid oracle's scan written one point at a time through ``eval_gauge``.

    Same grids, refinement, tie rule and pitch as ``entropy_min_bruteforce``,
    and the same renormalised state; returns ``(minimizer spectrum,
    objective, pitch)``.
    """
    r = r / r.sum()
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
def test_bruteforce_matches_per_point_reference(monkeypatch, n):
    rng = np.random.default_rng(40 + n)
    # kyfan:2 takes the row-by-row fallback of the array evaluation
    gauges = ("lp:1.5", "lp:2", "lp:3", "conv:2:lp:2", "kyfan:2")
    cases = [(rng.dirichlet(np.full(n, 2.0)), gauges) for _ in range(2)]
    if n == 3:
        cases.append((np.array([0.6, 0.0, 0.4]), gauges))  # support of size 2 inside dim 3
        # winners near an edge: part of the fine grid leaves the simplex
        cases += [(np.array(r), ("lp:1.5", "kyfan:2")) for r in ([0.97, 0.02, 0.01], [0.999, 0.0005, 0.0005])]
    else:
        cases.append((np.array([1.0 - 1e-5, 1e-5]), ("lp:1.5", "kyfan:2")))
    # each grid is scanned as built when it lies in the simplex, and as a
    # filtered copy when it does not; both must match the reference
    dropped = []
    rays = entropy_mod._rays

    def recorded(*coords):
        w = rays(*coords)
        dropped.append(w.shape[1] < np.size(coords[0]))
        return w

    monkeypatch.setattr(entropy_mod, "_rays", recorded)
    for r, names in cases:
        for s in names:
            g = parse_gauge(s)
            rep = entropy_min_bruteforce(g, np.diag(r))
            y, objective, pitch = _reference_bruteforce(g, r)
            assert rep.minimizer.tobytes() == np.diag(y).astype(complex).tobytes(), (r, s)
            assert rep.objective.hex() == objective.hex(), (r, s)
            assert rep.pitch.hex() == pitch.hex(), (r, s)
    # at n = 2 the fine grid is clipped to [0, 1], so only n = 3 drops points
    assert not all(dropped) and (any(dropped) or n == 2)


# (state, gauge, objective, pitch, minimizer diagonal), recorded from the
# grid oracle while its roots were Python's scalar pow and its row peaks and
# masks were reduced along the rows
BRUTEFORCE_PINS = (
    ([0.3, 0.7], "lp:1.5", -0.20362143401829724, 1.1905585447502531e-06, [0.44814049357839153, 0.7883735020438216]),
    ([0.3, 0.7], "lp:4", -0.4581482265411695, 1.6027767136828075e-06, [0.7400827850543318, 0.91469122952468]),
    ([0.3, 0.7], "kyfan:2", 0.0, 1.0000000000842668e-06, [0.3, 0.7]),
    ([0.3, 0.7], "dual:kyfan:2", -0.6108643020548935, 1.9999980003237994e-06, [1.0, 1.0]),
    ([0.3, 0.7], "conv:2:kyfan:2", -0.30543215102742544, 1.3265956094743458e-06, [0.5477226797875764, 0.836659946481434]),
    ([0.3, 0.7], "conv:3:lp:2", -0.5090535850457383, 1.7193807938520322e-06, [0.8181888797555731, 0.9422865535227988]),
    ([0.3, 0.7], "dual:conv:2:kyfan:2", -0.30543215102742544, 1.3265956094743458e-06, [0.5477226797875764, 0.836659946481434]),
    ([0.2, 0.5, 0.3], "lp:1.5", -0.3432175776218034, 0.001209667123478697, [0.3419980113823715, 0.6301520451941621, 0.4479108903398879]),
    ([0.2, 0.5, 0.3], "lp:4", -0.7722394014366925, 0.0019755609547226216, [0.6683346278597725, 0.8408080802106815, 0.7405110182457508]),
    ([0.2, 0.5, 0.3], "kyfan:2", -0.33650583350462826, 0.0015615240474706193, [0.5, 0.5, 0.5]),
    ([0.2, 0.5, 0.3], "dual:kyfan:2", -0.6931471805599453, 0.0016666666666668162, [0.4, 1.0, 0.6000000000000001]),
    ([0.2, 0.5, 0.3], "conv:2:kyfan:2", -0.6830794237846008, 0.0022084659894102687, [0.7071067811865475, 0.7071067811865475, 0.7071067811865475]),
    ([0.2, 0.5, 0.3], "conv:3:lp:2", -0.8580439123226266, 0.00220101420306118, [0.7648763211048832, 0.8906376569199719, 0.8184795134195114]),
    ([0.2, 0.5, 0.3], "dual:conv:2:kyfan:2", -0.34657359027997264, 0.0011785113019777138, [0.282842712474619, 0.7071067811865475, 0.42426406871192857]),
    ([0.05, 0.15, 0.8], "lp:1.5", -0.20428961434586973, 0.0009728803784909146, [0.13598711692045895, 0.2821066072585207, 0.8617850233076928]),
    ([0.05, 0.15, 0.8], "lp:4", -0.45965205644376095, 0.0017961201857385478, [0.47284531507168287, 0.6225229687634386, 0.9456906301433657]),
    ([0.05, 0.15, 0.8], "kyfan:2", -0.11246702892376167, 0.0010000000000000564, [0.2, 0.2, 0.8]),
    ([0.05, 0.15, 0.8], "dual:kyfan:2", -0.5004024235381879, 0.0016666666666668162, [0.25, 0.75, 1.0]),
    ([0.05, 0.15, 0.8], "conv:2:kyfan:2", -0.3626682406928555, 0.0014912083085836803, [0.4472135954999579, 0.4472135954999579, 0.8944271909999159]),
    ([0.05, 0.15, 0.8], "conv:3:lp:2", -0.5107243506590755, 0.0021833274084861465, [0.6062983514310368, 0.7288989659384187, 0.9635642046439545]),
    ([0.05, 0.15, 0.8], "dual:conv:2:kyfan:2", -0.2502012117690939, 0.001006607768896453, [0.11180339887498948, 0.33541019662496846, 0.8944271909999159]),
    ([0.6, 0.0, 0.4], "lp:1.5", -0.22433722233641679, 1.242995269712388e-06, [0.7113786311978785, 0.0, 0.5428835573171469]),
    ([0.6, 0.0, 0.4], "lp:4", -0.5047587502568531, 1.6626782270989793e-06, [0.8801118884869155, 0.0, 0.7952705231610618]),
    ([0.6, 0.0, 0.4], "kyfan:2", 0.0, 9.999999999177334e-07, [0.6, 0.0, 0.4]),
    ([0.6, 0.0, 0.4], "dual:kyfan:2", -0.6730116670092565, 1.9999980003237994e-06, [1.0, 0.0, 1.0]),
    ([0.6, 0.0, 0.4], "conv:2:kyfan:2", -0.3365058335043971, 1.3928380935279705e-06, [0.7745969732381761, 0.0, 0.6324551597151028]),
    ([0.6, 0.0, 0.4], "conv:3:lp:2", -0.5608430558410216, 1.7667736964543934e-06, [0.9183859711439017, 0.0, 0.8583741222301013]),
    ([0.6, 0.0, 0.4], "dual:conv:2:kyfan:2", -0.3365058335043971, 1.3928380935279705e-06, [0.7745969732381761, 0.0, 0.6324551597151028]),
)


@pytest.mark.parametrize("r, s, objective, pitch, y", BRUTEFORCE_PINS, ids=[f"{pin[0]}-{pin[1]}" for pin in BRUTEFORCE_PINS])
def test_bruteforce_bits_are_pinned(r, s, objective, pitch, y):
    # every output bit of the oracle, for 1- to 3-wide rows through the
    # Lp, Ky Fan, convexified and dual row kernels
    rep = entropy_min_bruteforce(parse_gauge(s), np.diag(r))
    assert rep.objective.hex() == objective.hex()
    assert rep.pitch.hex() == pitch.hex()
    assert rep.minimizer.tobytes() == np.diag(y).astype(complex).tobytes()


@pytest.mark.parametrize("s", ["lp:1.5", "lp:2", "lp:3", "conv:2:lp:2"])
def test_bruteforce_at_dim_3_traces_under_0_85_mb(s):
    # criterion 3's gauges on the 6 561-point fine grid, held as (3, points)
    # rows: the peak, 0.79 MB, is inside the gauge evaluator.  With (points,
    # 3) rows, masked and transposed copies, it was 1.08 MB.  The warm-up call
    # keeps one-time caches out of the measurement
    g, rho = parse_gauge(s), np.diag([0.2, 0.5, 0.3])
    entropy_min_bruteforce(g, rho)
    tracemalloc.start()
    try:
        entropy_min_bruteforce(g, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.85e6


@pytest.mark.parametrize("imag", [0.3, 6e-13], ids=["0.3", "6e-13"])
def test_bruteforce_refuses_a_diagonal_the_solver_refuses(imag):
    # a diagonal with imaginary parts was read by its real parts alone: at
    # 0.3 the oracle returned objective -0.3466.  2 * 6e-13 is past
    # check_state's 1e-12 Hermitian rule
    m = np.diag([0.5 + imag * 1j, 0.5 - imag * 1j])
    for solve in (entropy_min_bruteforce, entropy_min_mat):
        with pytest.raises(NotState, match="must be Hermitian"):
            solve(Lp(2.0), m)


def test_bruteforce_accepts_a_diagonal_the_solver_accepts():
    m = np.diag([0.5 + 4e-13j, 0.5 - 4e-13j])
    assert entropy_min_mat(Lp(2.0), m).objective == pytest.approx(-math.log(2.0) / 2.0, abs=1e-9)
    assert entropy_min_bruteforce(Lp(2.0), m).objective.hex() == entropy_min_bruteforce(Lp(2.0), m.real).objective.hex()


def test_bruteforce_calls_no_solver_code(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the grid oracle called the solver's code")

    for mod, name in ((entropy_mod, "_solve_support"), (entropy_mod, "duality_map_seq"), (gauge_mod, "duality_map_seq")):
        monkeypatch.setattr(mod, name, forbidden)
    for n in (2, 3):
        rep = entropy_min_bruteforce(Lp(2.0), np.diag(np.full(n, 1.0 / n)))
        assert rep.pitch > 0.0


@pytest.mark.parametrize("r", [[1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
def test_bruteforce_rank_one_state_is_its_own_minimizer(r):
    rep = entropy_min_bruteforce(Lp(2.0), np.diag(r))
    assert np.array_equal(rep.minimizer, np.diag(r).astype(complex))
    assert rep.objective == 0.0 and rep.pitch == 1e-12


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
    out = entropy_min_general(g, a).minimizer
    # the minimizer inherits the polar isometry of the input
    assert eval_gauge(g, np.linalg.svd(out, compute_uv=False)) == pytest.approx(1.0, abs=1e-9)
    # a state is minimized as it stands
    rho = _rand_state(rng, 3)
    assert _outcome(entropy_min_general, g, rho) == _outcome(entropy_min_mat, g, rho)


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
    back = entropy_min_general(g, rho).minimizer
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
            assert trace_norm(entropy_min_general(g, a).minimizer - want) <= 1e-7, kind
        elif kind == "psd":  # a state: minimized as it stands
            assert _outcome(entropy_min_general, g, a) == _outcome(entropy_min_mat, g, a), kind
        else:
            got = _outcome(lambda g, a: entropy_min_general(g, a).minimizer, g, a)
            assert got == _outcome(ref_maps.entropy_min_general, g, a), kind


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
    want_lam, want_w = _eigh_psd(as_matrix(rho))
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


def test_map_entropy_min_decomposes_psd_input_without_svd(tmp_path, monkeypatch):
    # PSD input: check_state's eigh; general input: the polar SVD and the
    # modulus's eigh, after a check_state that stops at its Hermitian check
    inputs = _map_inputs(np.random.default_rng(57))
    calls = _LinalgCalls(monkeypatch)
    for kind, want in (("psd", {"eigh": 1, "eigvalsh": 0, "svd": 0}), ("general", {"eigh": 1, "eigvalsh": 0, "svd": 1})):
        path = tmp_path / f"{kind}.json"
        write_matrix(path, inputs[kind] / trace_norm(inputs[kind]))
        calls.reset()
        assert main(["map", "entropy-min", str(path), "--gauge", "lp:3", "--out", str(tmp_path / "out.json")]) == 0
        assert calls.counts() == want, kind


def _sampled_states(suite, seed, n, i):
    """The states a sample of ``suite`` draws and minimizes: its first draw,
    and for ``lemma54`` the mixture ``rho2`` too."""
    rng = ref_sampling.make_rng(seed, suite, n, i)
    rho = ref_sampling.state(rng, n)
    if suite != "lemma54":
        return [rho]
    other = ref_sampling.state(rng, n)
    t = float(rng.uniform(0.0, 0.5))
    return [rho, (1.0 - t) * rho + t * other]


@pytest.mark.parametrize("suite", ["lemma54", "roundtrip", "mazur_entropy"])
def test_a_suite_sample_diagonalises_each_sampled_state_once(monkeypatch, suite):
    cfg = SuiteConfig(seed=1, dims=(4,), samples_per_case=1)
    smooth = {suites_mod._canonical_form(g) for _, g in cfg.parsed_gauges() if g.smooth}
    assert len(smooth) > 1 and len(cfg.p_grid) > 1  # several solves per state
    calls = _LinalgCalls(monkeypatch)
    suites_mod._block(suite, cfg, 4, range(1))
    for rho in _sampled_states(suite, cfg.seed, 4, 0):
        assert sum(np.array_equal(a, 0.5 * (rho + rho.conj().T)) for a in calls.args["eigh"]) == 1


# SVDs of one block of 3 samples at dimension 4: schur decomposes the
# reference sum and one sum per {alpha, 1 - alpha} pair, mazur_entropy
# takes all six roots of each sampled state from one SVD of it
BLOCK_SVDS = {"schur": 4, "mazur_entropy": 3}


@pytest.mark.parametrize("suite", sorted(suites_mod.SUITE_NAMES))
def test_a_block_decomposes_no_input_twice(monkeypatch, suite):
    cfg = SuiteConfig(seed=1, dims=(4,), samples_per_case=3)
    calls = _LinalgCalls(monkeypatch)
    suites_mod._block(suite, cfg, 4, range(3))
    for name, args in calls.args.items():
        seen = [a.tobytes() for a in args]
        assert len(set(seen)) == len(seen), name
    if suite in BLOCK_SVDS:
        assert calls.counts()["svd"] == BLOCK_SVDS[suite]

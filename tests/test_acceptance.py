"""End-to-end acceptance checks, one test per criterion.

Each test exercises a headline guarantee of the package at full stated
scale and tolerance, and prints a single summary line with the measured
numbers (visible with ``pytest -s`` or on failure).
"""

import time

import numpy as np

from spectral_mazur import (
    Lp,
    entropy_min_bruteforce,
    entropy_min_mat,
    format_gauge,
    mazur_forward,
    mazur_inverse,
    norm_ui,
    norming_state,
    parse_gauge,
    trace_norm,
)
from spectral_mazur.cli import main
from spectral_mazur.verify import (
    CORE_SUITE_NAMES,
    SuiteConfig,
    estimate_modulus,
    run_inequality_suite,
    sampling,
)
from spectral_mazur.verify.config import DEFAULT_GAUGES, DEFAULT_P_GRID
from spectral_mazur.matnorm import _eigh_psd, as_matrix

DIMS16 = (2, 3, 5, 8, 16)
SMOOTH_GAUGES = ("lp:1.5", "lp:2", "lp:4", "conv:2:lp:1", "conv:3:lp:2")


def _spread_state(rng, n):
    """Random density matrix with eigenvalues bounded away from zero."""
    lam = rng.uniform(0.05, 1.0, size=n)
    lam = lam / lam.sum()
    u = sampling.unitary([rng], n)[0]
    return (u * lam) @ u.conj().T


def _spread_unit_psd(rng, g, n):
    """Random PSD matrix of unit gauge norm with moderate spectral spread."""
    lam = rng.uniform(0.05, 1.0, size=n)
    u = sampling.unitary([rng], n)[0]
    m = (u * lam) @ u.conj().T
    return m / norm_ui(g, m)


def _conditioned_unit(rng, g, n, p):
    """Unit-gauge-norm matrix whose p-th power stays above the SVD noise floor."""
    kappa = min(1e6, 10.0 ** (9.0 / p))
    u, v = sampling.unitary([rng], n)[0], sampling.unitary([rng], n)[0]
    sv = np.exp(rng.uniform(0.0, np.log(kappa), size=n))
    sv = sv / sv.max()
    a = u @ np.diag(sv).astype(complex) @ v
    return a / norm_ui(g, a)


def test_criterion_1_inequality_suites_three_seeds():
    t0 = time.monotonic()
    cases = 0
    for seed in (1, 2, 3):
        cfg = SuiteConfig(seed=seed)  # dims (2,3,5,8,16), 500 samples, rel 1e-9
        for name in CORE_SUITE_NAMES:
            rep = run_inequality_suite(name, cfg)
            assert rep.passed and not rep.violations, (seed, name, rep.violations[:1])
            cases += rep.cases_run
    elapsed = time.monotonic() - t0
    assert elapsed <= 600.0, f"suite sweep took {elapsed:.1f}s, budget 600s"
    print(
        f"criterion 1: PASS - {len(CORE_SUITE_NAMES)} suites x 3 seeds, "
        f"{cases} cases, 0 violations, {elapsed:.1f}s"
    )


def test_criterion_2_explicit_constants():
    # the perturbation constants: 3p, 4*2^(1/p), and 2^(1-1/p) for p in {3,4,5}
    cfg = SuiteConfig(seed=7, samples_per_case=200)
    ratios = {}
    for name in ("cor43", "lemma44"):
        rep = run_inequality_suite(name, cfg)
        assert rep.passed and not rep.violations, (name, rep.violations[:1])
        ratios[name] = rep.worst_ratio
    cfg45 = SuiteConfig(seed=7, samples_per_case=200, p_grid=(3.0, 4.0, 5.0))
    rep45 = run_inequality_suite("lemma45", cfg45)
    assert rep45.passed and not rep45.violations, rep45.violations[:1]
    ratios["lemma45"] = rep45.worst_ratio

    # the log-difference bound -log(eps) is attained at (A, B) = (I, 0)
    op = parse_gauge("kyfan:1")
    gap = 0.0
    for n in (2, 5):
        a = np.eye(n, dtype=complex)
        b = np.zeros((n, n), dtype=complex)
        for eps in (0.5, 0.1, 0.01):
            l1, w1 = _eigh_psd(as_matrix(a + eps * b))
            l2, w2 = _eigh_psd(as_matrix(b + eps * a))
            diff = (w1 * np.log(l1)) @ w1.conj().T - (w2 * np.log(l2)) @ w2.conj().T
            gap = max(gap, abs(norm_ui(op, diff) - (-np.log(eps))))
    assert gap <= 1e-12, f"equality gap {gap:.3e}"
    print(
        "criterion 2: PASS - constant ratios "
        + " ".join(f"{k}={v:.4f}" for k, v in ratios.items())
        + f", equality gap {gap:.2e}"
    )


def test_criterion_3_solver_matches_grid_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(2026)
    gauges = [parse_gauge(s) for s in ("lp:1.5", "lp:2", "lp:3", "conv:2:lp:2")]
    worst = 0.0
    for i in range(50):
        n = 2 if i % 2 == 0 else 3
        rho = np.diag(rng.dirichlet(np.full(n, 2.0))).astype(complex)
        for g in gauges:
            brute = entropy_min_bruteforce(g, rho)
            sol = entropy_min_mat(g, rho)
            d = trace_norm(sol.minimizer - brute.minimizer)
            assert d <= 2.0 * brute.pitch, (i, format_gauge(g), d, brute.pitch)
            # objective certificate: the grid's objective bounds the minimum
            # from above, whatever the pitch says about distance
            assert sol.objective <= brute.objective + 1e-12, (i, format_gauge(g), sol.objective, brute.objective)
            worst = max(worst, d / brute.pitch)
    elapsed = time.monotonic() - t0
    assert elapsed <= 30.0, f"oracle check took {elapsed:.1f}s, budget 30s"
    print(
        f"criterion 3: PASS - 50 instances x 4 gauges, worst distance {worst:.3f} pitch (limit 2), "
        f"{elapsed:.1f}s"
    )


def test_criterion_4_entropy_map_roundtrips():
    rng = np.random.default_rng(46)
    worst_state = 0.0
    worst_sphere = 0.0
    for s in SMOOTH_GAUGES:
        g = parse_gauge(s)
        for j in range(200):
            n = DIMS16[j % len(DIMS16)]
            rho = _spread_state(rng, n)
            back = norming_state(g, entropy_min_mat(g, rho).minimizer)
            worst_state = max(worst_state, trace_norm(back - rho))
            a = _spread_unit_psd(rng, g, n)
            again = entropy_min_mat(g, norming_state(g, a)).minimizer
            worst_sphere = max(worst_sphere, trace_norm(again - a))
    assert worst_state <= 1e-6, f"state-side residual {worst_state:.3e}"
    assert worst_sphere <= 1e-5, f"sphere-side residual {worst_sphere:.3e}"
    print(
        f"criterion 4: PASS - 200 per gauge, state-side {worst_state:.2e} <= 1e-6, "
        f"sphere-side {worst_sphere:.2e} <= 1e-5"
    )


def test_criterion_5_lp_minimizer_closed_form():
    rng = np.random.default_rng(55)
    worst = 0.0
    for p in (1.5, 2.0, 3.0, 4.0):
        g = Lp(p)
        for j in range(200):
            n = DIMS16[j % len(DIMS16)]
            rho = sampling.state([rng], n)[0]
            y = entropy_min_mat(g, rho).minimizer
            lam, w = _eigh_psd(as_matrix(rho))
            root = (w * lam ** (1.0 / p)) @ w.conj().T  # unit p-norm since tr(rho)=1
            worst = max(worst, trace_norm(y - root))
    assert worst <= 1e-6, f"worst closed-form gap {worst:.3e}"
    print(f"criterion 5: PASS - 4 exponents x 200 states, worst gap {worst:.2e} <= 1e-6")


def test_criterion_6_power_map_roundtrip():
    rng = np.random.default_rng(66)
    worst = 0.0
    count = 0
    for s in DEFAULT_GAUGES:
        g = parse_gauge(s)
        for p in DEFAULT_P_GRID:
            for j in range(500):
                n = DIMS16[j % len(DIMS16)]
                a = _conditioned_unit(rng, g, n, p)
                back = mazur_forward(mazur_inverse(a, p), p)
                worst = max(worst, trace_norm(back - a))
                count += 1
    assert worst <= 1e-8, f"worst roundtrip {worst:.3e}"
    print(f"criterion 6: PASS - {count} roundtrips, worst trace-norm error {worst:.2e} <= 1e-8")


def test_criterion_7_modulus_stays_under_bounds():
    cfg = SuiteConfig(seed=1, dims=(2, 4, 8, 16), samples_per_case=500)
    g = parse_gauge("lp:1")
    forward = estimate_modulus("Gp", cfg, g, p=3.0)
    inverse = estimate_modulus("Gp_inv", cfg, g, p=3.0)
    assert forward.bound_violations == 0, forward.bound_violations
    assert inverse.bound_violations == 0, inverse.bound_violations
    pairs = sum(b["count"] for b in forward.bins)
    print(
        f"criterion 7: PASS - {pairs} pairs under 9t (forward) and t^(1/3) (inverse), "
        "0 bound violations"
    )


def test_criterion_8_verify_all_determinism(tmp_path):
    base = [
        "verify", "all",
        "--dims", "2,3,4", "--samples", "8", "--seed", "3",
        "--timestamp", "2026-08-23T00:00:00Z",
        "--out", str(tmp_path / "run"),
    ]
    snapshots = []
    for threads in ("1", "1", "8"):
        assert main(base + ["--threads", threads]) == 0
        out = tmp_path / "run"
        snapshots.append({f.name: f.read_bytes() for f in out.iterdir()})
        for f in out.iterdir():
            f.unlink()
        out.rmdir()
    assert len(snapshots[0]) == 17  # 16 suite reports + manifest
    assert snapshots[1] == snapshots[0], "rerun at 1 thread differs"
    assert snapshots[2] == snapshots[0], "8-thread run differs"
    print("criterion 8: PASS - 17 artifacts byte-identical across reruns and threads {1,8}")

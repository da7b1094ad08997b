"""Verification harness: suite runner, determinism, sampling, modulus."""

import numpy as np
import pytest

from spectral_mazur import (
    SUITE_NAMES,
    Lp,
    MazurParams,
    SuiteConfig,
    estimate_modulus,
    mazur_forward,
    parse_gauge,
    run_inequality_suite,
)
from spectral_mazur.cli import main
from spectral_mazur.errors import ConfigError, DimensionTooLarge, NumericalFailure, UnknownSuite
from spectral_mazur.verify import CORE_SUITE_NAMES, dumps_json, gen_random, make_rng
from spectral_mazur.verify import sampling
from spectral_mazur.verify import suites as suites_mod

SMALL = SuiteConfig(seed=1, dims=(2, 3), samples_per_case=6)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(DimensionTooLarge):
        SuiteConfig(dims=(2, 200))
    with pytest.raises(ConfigError):
        SuiteConfig(dims=())
    with pytest.raises(ConfigError):
        SuiteConfig(dims=(0,))
    with pytest.raises(ConfigError):
        SuiteConfig(samples_per_case=0)
    with pytest.raises(ConfigError):
        SuiteConfig(p_grid=(0.5,))
    with pytest.raises(ConfigError):
        SuiteConfig(rel_tol=-1.0)


def test_config_from_json_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        SuiteConfig.from_json({"seed": 1, "bogus": 2})
    cfg = SuiteConfig.from_json({"seed": 5, "dims": [2, 4], "samples_per_case": 3})
    assert cfg.seed == 5 and cfg.dims == (2, 4)


def test_config_json_roundtrip():
    cfg = SuiteConfig(seed=9, dims=(3, 5), samples_per_case=11)
    assert SuiteConfig.from_json(cfg.to_json()) == cfg


# ---------------------------------------------------------------------------
# deterministic sampling


def test_make_rng_reproducible_and_key_sensitive():
    a = make_rng(1, "suite", 4, 0).standard_normal(5)
    b = make_rng(1, "suite", 4, 0).standard_normal(5)
    c = make_rng(1, "suite", 4, 1).standard_normal(5)
    d = make_rng(1, "other", 4, 0).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def _ginibre_two_draws(rng, n):
    re = rng.standard_normal((n, n))
    im = rng.standard_normal((n, n))
    return (re + 1j * im) / np.sqrt(2.0)


def test_ginibre_equals_the_two_draw_formula_bit_for_bit():
    for seed in range(200):
        for n in (1, 2, 3, 5, 8, 16, 32, 64):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sampling.ginibre(rng, n)
            assert got.dtype == np.complex128 and got.shape == (n, n)
            assert got.tobytes() == _ginibre_two_draws(ref, n).tobytes(), (seed, n)
            # the generator is left where the two draws left it
            assert rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes(), (seed, n)


def test_sample_kinds_properties():
    rng = make_rng(0, "props")
    n = 5
    h = sampling.hermitian(rng, n)
    assert np.allclose(h, h.conj().T)
    m = sampling.psd(rng, n)
    assert np.min(np.linalg.eigvalsh(m)) >= -1e-12
    rho = sampling.state(rng, n)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    u = sampling.unitary(rng, n)
    assert np.allclose(u @ u.conj().T, np.eye(n), atol=1e-12)
    v = sampling.partial_isometry(rng, n)
    gram = v.conj().T @ v
    evs = np.linalg.eigvalsh(gram)
    assert np.all((np.abs(evs) < 1e-10) | (np.abs(evs - 1.0) < 1e-10))
    weights, unitaries = sampling.ucptp_mixture(rng, n)
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    z = sampling.ginibre(rng, n)
    w = sampling.apply_mixture((weights, unitaries), z)
    assert w.shape == z.shape


def test_gen_random_deterministic_stream():
    cfg = SuiteConfig(seed=2, dims=(2, 3), samples_per_case=2)
    first = [(n, i, m.copy()) for n, i, m in gen_random(cfg, "ginibre")]
    second = list(gen_random(cfg, "ginibre"))
    assert len(first) == 4
    for (n1, i1, m1), (n2, i2, m2) in zip(first, second):
        assert (n1, i1) == (n2, i2)
        assert np.array_equal(m1, m2)
    with pytest.raises(ConfigError):
        list(gen_random(cfg, "bogus"))


# ---------------------------------------------------------------------------
# suite runner


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_passes_small(name):
    rep = run_inequality_suite(name, SMALL)
    assert rep.suite_name == name
    assert rep.cases_run > 0
    assert rep.passed and not rep.violations
    assert rep.worst_ratio <= 1.0 + SMALL.rel_tol


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_inequality_suite("nope", SMALL)


def test_core_suites_subset():
    assert set(CORE_SUITE_NAMES) < set(SUITE_NAMES)
    assert "roundtrip" not in CORE_SUITE_NAMES and "mazur_entropy" not in CORE_SUITE_NAMES
    assert len(CORE_SUITE_NAMES) == 14


def test_report_bytes_deterministic_and_thread_invariant():
    rep1 = run_inequality_suite("holder", SMALL, threads=1)
    rep2 = run_inequality_suite("holder", SMALL, threads=1)
    rep4 = run_inequality_suite("holder", SMALL, threads=4)
    s1, s2, s4 = (dumps_json(r.to_json()) for r in (rep1, rep2, rep4))
    assert s1 == s2 == s4


def test_seed_changes_results():
    rep1 = run_inequality_suite("holder", SMALL)
    rep2 = run_inequality_suite("holder", SuiteConfig(seed=2, dims=(2, 3), samples_per_case=6))
    assert rep1.worst_ratio != rep2.worst_ratio


def test_zero_tolerance_flags_floating_point_ties():
    # with both tolerances at zero, exact-equality cases in the power
    # difference suite trip on one-ulp round-off, exercising the violation
    # recording and payload serialization paths
    cfg = SuiteConfig(seed=1, dims=(3,), samples_per_case=20, rel_tol=0.0, abs_tol=0.0)
    rep = run_inequality_suite("lemma41", cfg)
    assert not rep.passed and rep.violations
    v = rep.violations[0]
    assert v.lhs > v.rhs and v.ratio > 1.0
    assert "dim=3" in v.case
    payload = v.payload
    assert payload["x"]["dim"] == 3
    text = dumps_json(rep.to_json())  # violations must serialize cleanly
    assert "violations" in text


@pytest.mark.parametrize(
    "name,helper",
    [("holder", "_svals"), ("fan_dominance", "_svals"), ("lemma41", "_habs"), ("lemma44", "_svals"), ("schur", "_svals"), ("lemma47", "_svals")],
)
def test_non_finite_spectrum_stops_the_run(monkeypatch, tmp_path, capsys, name, helper):
    # one NaN spectrum row in a block must raise where the gauges check
    # their input, as per-sample evaluation did
    spectra = getattr(suites_mod, helper)

    def poisoned(m):
        s = np.array(spectra(m))
        if s.ndim == 2 and len(s) > 1:
            s[1, -1] = np.nan  # the smallest value: column 0 scales the contractions
        return s

    monkeypatch.setattr(suites_mod, helper, poisoned)
    with pytest.raises(NumericalFailure):
        run_inequality_suite(name, SMALL)
    out = tmp_path / "reports"
    assert main(["verify", name, "--dims", "3", "--samples", "3", "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_nan_case_stops_the_run(monkeypatch, tmp_path, capsys, side):
    # a NaN side compares false both ways, so the case would pass silently;
    # lemma53 stands in for every suite whose body does not go through
    # eval_gauge_rows and its finiteness check
    def factory(cfg):
        def body(n, i):
            values = {"lhs": 0.5, "rhs": 1.0, side: float("nan")}
            return [(f"dim={n} i={i} poisoned", values["lhs"], values["rhs"], dict(dim=n, index=i))]

        return suites_mod._per_sample(body)

    monkeypatch.setitem(suites_mod._SUITES, "lemma53", factory)
    with pytest.raises(NumericalFailure, match="dim=2 i=0 poisoned"):
        run_inequality_suite("lemma53", SMALL)
    out = tmp_path / "reports"
    assert main(["verify", "lemma53", "--dims", "2", "--samples", "3", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "dim=2 i=0 poisoned" in err and "Traceback" not in err
    assert not (out / "lemma53.report.json").exists()


def test_recorded_diagnostics_present():
    rep = run_inequality_suite("lemma45", SMALL)
    assert "first_vs_max_shape" in rep.recorded
    assert 0.0 < rep.recorded["first_vs_max_shape"] <= 1.0
    rep47 = run_inequality_suite("lemma47", SMALL)
    assert "forward_free_constant" in rep47.recorded


# ---------------------------------------------------------------------------
# modulus profiles


def test_modulus_gp_bounds_and_envelope():
    cfg = SuiteConfig(seed=1, dims=(2, 3), samples_per_case=40)
    g = parse_gauge("lp:1")
    prof = estimate_modulus("Gp", cfg, g, p=3.0)
    assert prof.map_name == "Gp"
    assert prof.bound_violations == 0
    omegas = [b["omega"] for b in prof.bins]
    assert all(b2 >= b1 for b1, b2 in zip(omegas, omegas[1:]))  # monotone envelope
    assert all(b["bound"] is not None for b in prof.bins)
    assert sum(b["count"] for b in prof.bins) > 0
    csv = prof.to_csv()
    assert csv.splitlines()[0] == "t,omega,count,bound"


def test_modulus_inverse_and_entropy_maps():
    cfg = SuiteConfig(seed=1, dims=(2, 3), samples_per_case=24)
    prof = estimate_modulus("Gp_inv", cfg, parse_gauge("lp:2"), p=2.0)
    assert prof.bound_violations == 0
    proffx = estimate_modulus("FX", cfg, parse_gauge("lp:2"))
    assert proffx.bound_violations == 0
    assert all(b["bound"] is None for b in proffx.bins)
    proffxi = estimate_modulus("FX_inv", cfg, parse_gauge("lp:2"))
    assert proffxi.bound_violations == 0


def test_modulus_vanishes_at_zero_distance():
    # a deterministic map sends identical inputs to identical outputs; the
    # identical-pair checks inside the profiler count any nonzero image
    # distance as a bound violation, and none occur
    rng = make_rng(0, "zero")
    a = sampling.psd(rng, 3)
    mp = MazurParams(Lp(1.0), 3.0)
    out1 = mazur_forward(mp, a)
    out2 = mazur_forward(mp, a)
    assert np.array_equal(out1, out2)


def test_modulus_config_errors():
    with pytest.raises(ConfigError):
        estimate_modulus("nope", SMALL, Lp(2.0))
    with pytest.raises(ConfigError):
        estimate_modulus("Gp", SMALL, Lp(2.0))  # missing p

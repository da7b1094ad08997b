"""Verification harness: suite runner, determinism, sampling, modulus."""

import concurrent.futures
import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spectral_mazur import (
    SUITE_NAMES,
    Lp,
    SuiteConfig,
    convexify,
    entropy_min_general,
    estimate_modulus,
    mazur_forward,
    mazur_inverse,
    norm_ui,
    parse_gauge,
    run_inequality_suite,
    trace_norm,
)
from spectral_mazur.cli import RunManifest, main
from spectral_mazur.errors import ConfigError, DimensionTooLarge, GaugeParseError, NotSmooth, NumericalFailure, UnknownSuite
from spectral_mazur.verify import CORE_SUITE_NAMES, ModulusProfile, SuiteReport, Violation, dumps_json, make_rng
from spectral_mazur.verify import modulus as modulus_mod
from spectral_mazur.verify import sampling
from spectral_mazur.verify import suites as suites_mod

import _reference_sampling as ref_sampling

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


def test_config_refuses_a_descriptor_nested_too_deeply():
    with pytest.raises(GaugeParseError, match="nested too deeply"):
        SuiteConfig(gauges=["lp:2", "dual:" * 2000 + "lp:2"])


def test_config_refuses_seeds_outside_one_word():
    # make_rng keeps the low 32 bits of each key part, so seed 2**32 + 1
    # would draw the samples of seed 1 under a report that names its own
    for seed in (-1, 2**32, 2**32 + 1, -(2**32) + 1):
        with pytest.raises(ConfigError, match="seed"):
            SuiteConfig(seed=seed)
        with pytest.raises(ConfigError, match="seed"):
            SuiteConfig.from_json({"seed": seed})
    assert SuiteConfig(seed=0).seed == 0 and SuiteConfig(seed=2**32 - 1).seed == 2**32 - 1


def test_config_refuses_sample_counts_beyond_one_word():
    # make_rng keeps the low 32 bits of the sample index too, so sample
    # 2**32 would draw the stream of sample 0; the refusal comes before any
    # job list is built, and no accepted huge count is ever run here
    for samples in (2**32 + 1, 10**23):
        with pytest.raises(ConfigError, match="samples_per_case"):
            SuiteConfig(samples_per_case=samples)
        with pytest.raises(ConfigError, match="samples_per_case"):
            SuiteConfig.from_json({"samples_per_case": samples})
    assert SuiteConfig(samples_per_case=2**32).samples_per_case == 2**32


def test_config_keeps_accepted_values_as_given():
    cfg = SuiteConfig.from_json({"p_grid": [1, 2.5], "rel_tol": 0, "abs_tol": 1})
    assert dumps_json(cfg.to_json()) == dumps_json(
        {**SuiteConfig().to_json(), "p_grid": [1.0, 2.5], "rel_tol": 0, "abs_tol": 1}
    )


def test_config_from_json_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        SuiteConfig.from_json({"seed": 1, "bogus": 2})
    cfg = SuiteConfig.from_json({"seed": 5, "dims": [2, 4], "samples_per_case": 3})
    assert cfg.seed == 5 and cfg.dims == (2, 4)


@pytest.mark.parametrize(
    "field,entries,named",
    [
        ("dims", (2, 3, 2), "dims entries must be distinct, got 2 twice"),
        ("gauges", ("lp:2", "kyfan:1", "lp:2"), "gauges entries must be distinct, got 'lp:2' twice"),
        ("p_grid", (2, 3, 2.0), "p_grid entries must be distinct, got 2.0 twice"),
    ],
)
def test_config_refuses_repeated_entries(field, entries, named):
    # samples are keyed (seed, suite, n, index), so a repeated entry would
    # run the same cases again and count them twice
    with pytest.raises(ConfigError, match=named):
        SuiteConfig(**{field: entries})
    with pytest.raises(ConfigError, match=named):
        SuiteConfig.from_json({field: list(entries)})


def test_config_keeps_distinct_descriptors_of_one_gauge():
    # lp:2 and conv:2:lp:1 share a canonical form but label their cases apart
    both = SuiteConfig(dims=(2,), samples_per_case=1, gauges=("lp:2", "conv:2:lp:1"))
    one = dataclasses.replace(both, gauges=("lp:2",))
    assert run_inequality_suite("holder", both).cases_run == 2 * run_inequality_suite("holder", one).cases_run


def test_config_json_roundtrip():
    cfg = SuiteConfig(seed=9, dims=(3, 5), samples_per_case=11)
    assert SuiteConfig.from_json(cfg.to_json()) == cfg


def test_parsed_gauges_are_parsed_once_and_outside_the_fields():
    cfg = SuiteConfig(seed=9, dims=(3, 5), samples_per_case=11)
    parsed = cfg.parsed_gauges()
    assert cfg.parsed_gauges() is parsed
    assert parsed == tuple((s, parse_gauge(s)) for s in cfg.gauges)
    # a twin whose kept gauges differ is still equal, hashes and serializes alike
    twin = SuiteConfig(seed=9, dims=(3, 5), samples_per_case=11)
    object.__setattr__(twin, "_parsed_gauges", ())
    assert twin == cfg and hash(twin) == hash(cfg)
    assert dumps_json(twin.to_json()) == dumps_json(cfg.to_json())
    assert list(cfg.to_json()) == [f.name for f in dataclasses.fields(cfg)]


def _artifacts():
    violation = Violation(case="c", lhs=2.0, rhs=1.0, ratio=2.0, payload={"x": [1]})
    report = SuiteReport("s", SMALL, 1, (violation,), 2.0, False, {"b": 1.0, "a": 2.0})
    profile = ModulusProfile(map_name="Gp", bins=({"t": 1.0, "omega": 0.0, "count": 0, "bound": 3.0},), bound_violations=0)
    manifest = RunManifest(command="c", config={}, input_paths=("m.json",), output_path=None, version="v", timestamp="t")
    return {
        "SuiteConfig": (SMALL, SMALL.to_json()),
        "Violation": (violation, violation.to_json()),
        "SuiteReport": (report, report.to_json()),
        "ModulusProfile": (profile, profile.to_json()),
        "RunManifest": (manifest, manifest.to_dict()),
    }


@pytest.mark.parametrize("name", ["SuiteConfig", "Violation", "SuiteReport", "ModulusProfile", "RunManifest"])
def test_artifact_json_keys_are_the_field_names_in_order(name):
    obj, data = _artifacts()[name]
    assert list(data) == [f.name for f in dataclasses.fields(obj)]


def test_report_json_is_shallow_and_sorts_recorded():
    # payloads are not copied: a report with many violations serializes
    # without a deep copy of each
    rep = _artifacts()["SuiteReport"][0]
    data = rep.to_json()
    assert data["violations"][0]["payload"] is rep.violations[0].payload
    assert data["config"] == SMALL.to_json()
    assert list(data["recorded"]) == ["a", "b"]
    assert dumps_json(data).index('"a"') < dumps_json(data).index('"b"')


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


def test_make_rng_state_equals_a_list_seeded_seed_sequence():
    # each key part is one 32-bit word, so the uint32 array seeds the state
    # the list of the same ints seeds, at both ends of the word's range too
    top = 2**32 - 1
    keys = [(0,), (top,), (0, top), (top, 0, top), (-1, "s", 0), (2**32, "s", top), (1, "modulus", "FX", 16, 7)]
    keys += [(seed, suite, n, i) for seed in (0, 1, top) for suite in ("holder", "roundtrip") for n in (1, 64) for i in (0, 63, top)]
    for key in keys:
        assert make_rng(*key).bit_generator.state == ref_sampling.make_rng(*key).bit_generator.state, key


def _ginibre_two_draws(rng, n):
    re = rng.standard_normal((n, n))
    im = rng.standard_normal((n, n))
    return (re + 1j * im) / np.sqrt(2.0)


def test_ginibre_equals_the_two_draw_formula_bit_for_bit():
    for seed in range(200):
        for n in (1, 2, 3, 5, 8, 16, 32, 64):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sampling.ginibre([rng], n)
            assert got.dtype == np.complex128 and got.shape == (1, n, n)
            assert got[0].tobytes() == _ginibre_two_draws(ref, n).tobytes(), (seed, n)
            # the generator is left where the two draws left it
            assert rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes(), (seed, n)


SAMPLER_DIMS = (1, 2, 3, 5, 8, 16, 32, 64)
SAMPLER_BLOCKS = (1, 7, 64)


def _generator_pairs(n, block):
    """Two generators in the same state for each sample of a block."""
    rngs = [np.random.default_rng([n, block, i]) for i in range(block)]
    return rngs, [np.random.default_rng([n, block, i]) for i in range(block)]


def _assert_same_states(rngs, refs, where):
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in refs], where


@pytest.mark.parametrize("name", ["ginibre", "hermitian", "psd", "state", "unitary"])
def test_stacked_sampler_equals_the_per_sample_sampler_bit_for_bit(name):
    for n in SAMPLER_DIMS:
        for block in SAMPLER_BLOCKS:
            rngs, refs = _generator_pairs(n, block)
            got = getattr(sampling, name)(rngs, n)
            want = np.stack([getattr(ref_sampling, name)(ref, n) for ref in refs])
            assert got.dtype == np.complex128 and got.shape == (block, n, n)
            assert got.tobytes() == want.tobytes(), (n, block)
            _assert_same_states(rngs, refs, (n, block))


def test_stacked_mixture_equals_the_per_sample_mixture_bit_for_bit():
    for n in SAMPLER_DIMS:
        for block in SAMPLER_BLOCKS:
            rngs, refs = _generator_pairs(n, block)
            weights, unitaries = sampling.ucptp_mixture(rngs, n)
            z = sampling.ginibre(rngs, n)
            w = sampling.apply_mixture((weights, unitaries), z)
            mixes = [ref_sampling.ucptp_mixture(ref, n) for ref in refs]
            zs = [ref_sampling.ginibre(ref, n) for ref in refs]
            assert weights.shape == (block, 3) and unitaries.shape == (block, 3, n, n)
            assert weights.tobytes() == np.stack([lam for lam, _ in mixes]).tobytes(), (n, block)
            assert unitaries.tobytes() == np.stack([np.stack(us) for _, us in mixes]).tobytes(), (n, block)
            assert z.tobytes() == np.stack(zs).tobytes(), (n, block)
            assert w.tobytes() == np.stack([ref_sampling.apply_mixture(m, zz) for m, zz in zip(mixes, zs)]).tobytes(), (n, block)
            _assert_same_states(rngs, refs, (n, block))


def test_sample_kinds_properties():
    rngs = [make_rng(0, "props", k) for k in range(3)]
    n = 5
    h = sampling.hermitian(rngs, n)
    assert np.allclose(h, h.conj().swapaxes(-1, -2))
    m = sampling.psd(rngs, n)
    assert np.min(np.linalg.eigvalsh(m)) >= -1e-12
    rho = sampling.state(rngs, n)
    assert np.allclose(np.trace(rho, axis1=-2, axis2=-1).real, 1.0, atol=1e-12)
    u = sampling.unitary(rngs, n)
    assert np.allclose(u @ u.conj().swapaxes(-1, -2), np.eye(n), atol=1e-12)
    weights, unitaries = sampling.ucptp_mixture(rngs, n)
    assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)
    z = sampling.ginibre(rngs, n)
    w = sampling.apply_mixture((weights, unitaries), z)
    assert w.shape == z.shape == (3, n, n)


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


class _RecordingPool:
    """Stands in for ``ThreadPoolExecutor``: notes each ``max_workers`` in
    ``made`` and maps in the calling thread, so it starts no thread."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("cpus,threads,want", [(4, 5000, [4]), (4, 3, [3]), (1, 5000, []), (None, 5000, []), (4, 1, [])])
def test_suite_pool_has_at_most_one_worker_per_cpu(monkeypatch, cpus, threads, want):
    made = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", lambda max_workers: _RecordingPool(made, max_workers))
    monkeypatch.setattr(suites_mod.os, "cpu_count", lambda: cpus)
    got = run_inequality_suite("holder", SMALL, threads=threads)
    assert made == want
    assert dumps_json(got.to_json()) == dumps_json(run_inequality_suite("holder", SMALL).to_json())


def test_one_thread_run_loads_no_thread_pool():
    # the pool is imported only where more than one worker runs, so the
    # package and a one-thread run load none of its modules
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = """
import sys
import spectral_mazur
import spectral_mazur.cli
from spectral_mazur import SuiteConfig, run_inequality_suite
run_inequality_suite("holder", SuiteConfig(seed=1, dims=(2, 3), samples_per_case=6), threads=1)
print(sorted(m for m in sys.modules if m.partition(".")[0] in ("concurrent", "logging", "queue")))
"""
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


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


@pytest.mark.parametrize("p", [800.0, 1e308])
@pytest.mark.parametrize("name", ["lemma41", "cor43", "lemma44", "lemma45", "lemma47"])
def test_a_large_p_grid_entry_is_a_numerical_failure(tmp_path, capsys, name, p):
    # the powers overflow, and LAPACK fails on what they leave: a numerical
    # failure naming the suite and dimension, not a warning or a traceback
    cfg = {"dims": [2, 16], "samples_per_case": 3, "p_grid": [1.0, p]}
    with pytest.raises(NumericalFailure, match=f"suite {name} dim="):
        run_inequality_suite(name, SuiteConfig.from_json(cfg))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", name, "--config", str(path), "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: suite {name} dim=") and "Traceback" not in err


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_nan_case_stops_the_run(monkeypatch, tmp_path, capsys, side):
    # a NaN side compares false both ways, so the case would pass silently;
    # lemma53 stands in for every suite whose body does not go through
    # eval_gauge_rows and its finiteness check
    def body():
        values = {"lhs": 0.5, "rhs": 1.0, side: float("nan")}
        return [("poisoned", values["lhs"], values["rhs"], {})]

    def suite(cfg, n, idx, rngs):
        return suites_mod._per_sample(n, idx, (), body)

    monkeypatch.setitem(suites_mod._SUITES, "lemma53", suite)
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
    for name in ("FX", "FX_inv"):
        prof = estimate_modulus(name, cfg, parse_gauge("lp:2"))
        assert prof.bound_violations == 0
        assert all(isinstance(b["bound"], float) for b in prof.bins)


def _antipodal_ratio(apply, image, exponent):
    """``omega / t^(1/exponent)`` of ``apply`` on the pair ``(x, -x)``,
    ``x = I/2`` at n = 2: both lie on the trace-norm sphere, ``t = 2``, and
    ``omega`` is the image distance in ``image``."""
    x = np.eye(2, dtype=complex) / 2.0
    t = trace_norm(x - (-x))
    return norm_ui(image, apply(x) - apply(-x)) / t ** (1.0 / exponent)


@pytest.mark.parametrize("p", [1.5, 3.0, 5.0])
def test_root_bounds_fail_off_the_positive_cone_for_mazur_inverse(p):
    # t^(1/p) bounds Gp_inv on PSD pairs, the only pairs the profiler draws;
    # on the pair (x, -x) the map exceeds it by 2^(1 - 1/p)
    ratio = _antipodal_ratio(lambda a: mazur_inverse(a, p), convexify(Lp(1.0), p), p)
    assert ratio == pytest.approx(2.0 ** (1.0 - 1.0 / p), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("q", [1.5, 3.0])
def test_root_bounds_fail_off_the_positive_cone_for_the_entropy_map(q):
    # likewise t^(1/q) for FX on lp:q: the same pair gives 2^(1 - 1/q)
    ratio = _antipodal_ratio(lambda a: entropy_min_general(Lp(q), a).minimizer, Lp(q), q)
    assert ratio == pytest.approx(2.0 ** (1.0 - 1.0 / q), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_modulus_fx_bound_is_nearly_attained(seed):
    # at lp:1 the entropy map is the identity, so its bound t^(1/1) is sharp
    cfg = SuiteConfig(seed=seed, dims=(2, 3, 5), samples_per_case=48)
    prof = estimate_modulus("FX", cfg, parse_gauge("lp:1"))
    assert prof.bound_violations == 0
    assert max(b["omega"] / b["bound"] for b in prof.bins if b["count"]) >= 0.98


@pytest.mark.parametrize("gauge", ["lp:1.5", "lp:4", "conv:3:lp:2"])
@pytest.mark.parametrize("name", ["FX", "FX_inv"])
def test_modulus_entropy_maps_stay_under_bounds(name, gauge):
    cfg = SuiteConfig(seed=1, dims=(2, 3, 5), samples_per_case=48)
    assert estimate_modulus(name, cfg, parse_gauge(gauge)).bound_violations == 0


def test_modulus_counts_violations_of_a_stretched_map(monkeypatch):
    # the profiler checks each sample of the entropy maps against its bound:
    # a map that stretches its output tenfold breaks it
    norming, minimizer = modulus_mod.norming_state, modulus_mod.entropy_min_general

    def stretched_min(g, rho):
        rep = minimizer(g, rho)
        return dataclasses.replace(rep, minimizer=10.0 * rep.minimizer)

    monkeypatch.setattr(modulus_mod, "norming_state", lambda g, a: 10.0 * norming(g, a))
    monkeypatch.setattr(modulus_mod, "entropy_min_general", stretched_min)
    for name in ("FX", "FX_inv"):
        assert estimate_modulus(name, SMALL, parse_gauge("lp:2")).bound_violations > 0, name


def test_modulus_vanishes_at_zero_distance(monkeypatch):
    # every eighth pair is two identical inputs, and the profiler counts any
    # nonzero distance between their images as a bound violation: a map that
    # moves every other image by two ulps fails exactly those pairs, and no
    # other (the unpatched map's 0 is asserted in the Gp envelope test)
    calls = itertools.count()

    def jittered(a, p):
        out = mazur_forward(a, p)
        return out * (1.0 + 4e-16) if next(calls) % 2 else out

    monkeypatch.setattr(modulus_mod, "mazur_forward", jittered)
    cfg = SuiteConfig(seed=1, dims=(2, 3), samples_per_case=20)
    prof = estimate_modulus("Gp", cfg, parse_gauge("lp:1"), p=3.0)
    assert prof.bound_violations == len(cfg.dims) * math.ceil(20 / 8)


@pytest.mark.parametrize(("name", "p"), [("Gp", 3.0), ("Gp_inv", 2.0), ("FX", None), ("FX_inv", None)])
def test_modulus_takes_no_domain_distance_of_an_identical_pair(monkeypatch, name, p):
    # an identical pair is checked by its image distance alone: the zero
    # matrix a - b is never gauged, while the images' zero difference is
    norm = modulus_mod._norm_herm
    zero_calls = []

    def spied(g, h):
        if not np.any(h):
            zero_calls.append(g)
        return norm(g, h)

    monkeypatch.setattr(modulus_mod, "_norm_herm", spied)
    cfg = SuiteConfig(seed=1, dims=(2, 3), samples_per_case=16)
    dom, img, _, _ = modulus_mod._sphere_map(name, parse_gauge("lp:2"), p)
    assert dom != img
    estimate_modulus(name, cfg, parse_gauge("lp:2"), p=p)
    assert zero_calls == [img] * (len(cfg.dims) * 16 // 8)  # every eighth pair is identical


def test_modulus_config_errors():
    with pytest.raises(ConfigError):
        estimate_modulus("nope", SMALL, Lp(2.0))
    with pytest.raises(ConfigError):
        estimate_modulus("Gp", SMALL, Lp(2.0))  # missing p
    for name in ("FX", "FX_inv"):
        with pytest.raises(ConfigError):
            estimate_modulus(name, SMALL, Lp(2.0), p=2.0)  # no exponent to read


@pytest.mark.parametrize(("name", "gauge"), [("FX", "kyfan:1"), ("FX", "lp:inf"), ("FX_inv", "lp:1"), ("FX_inv", "conv:2:kyfan:2")])
def test_modulus_entropy_precondition_before_any_sample(monkeypatch, name, gauge):
    # FX takes a smooth gauge or lp:1, FX_inv a smooth gauge; anything else
    # is refused before a generator is made
    def no_sample(*key):
        raise AssertionError(f"sampled {key}")

    monkeypatch.setattr(sampling, "make_rng", no_sample)
    with pytest.raises(NotSmooth):
        estimate_modulus(name, SMALL, parse_gauge(gauge))


@pytest.mark.parametrize(("name", "gauge", "p"), [("FX_inv", "lp:1e308", None), ("FX_inv", "conv:1e154:lp:1e154", None), ("Gp", "lp:2", 1e308)])
def test_modulus_bound_overflow_before_any_sample(monkeypatch, name, gauge, p):
    # a bound 3 q t that is inf at the largest bin could not be written: it
    # is a numerical failure before a generator is made
    def no_sample(*key):
        raise AssertionError(f"sampled {key}")

    monkeypatch.setattr(sampling, "make_rng", no_sample)
    with pytest.raises(NumericalFailure, match="overflows"):
        estimate_modulus(name, SMALL, parse_gauge(gauge), p=p)

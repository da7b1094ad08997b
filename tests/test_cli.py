"""Command line interface: subcommands, exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spectral_mazur import (
    entropy_min_general,
    matrix_from_json,
    matrix_to_json,
    mazur_forward,
    norm_ui,
    norming_state,
    parse_gauge,
    read_matrix,
    trace_norm,
    write_matrix,
)
from spectral_mazur import cli
from spectral_mazur.cli import main
from spectral_mazur.errors import NoConvergence

TS = ["--timestamp", "2026-08-23T00:00:00Z"]


@pytest.fixture()
def mat_file(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    path = tmp_path / "m.json"
    write_matrix(path, a)
    return str(path), a


@pytest.fixture()
def state_file(tmp_path):
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    path = tmp_path / "rho.json"
    write_matrix(path, rho)
    return str(path), rho


# ---------------------------------------------------------------------------
# norm


def test_norm_prints_value(mat_file, capsys):
    path, a = mat_file
    assert main(["norm", path, "--gauge", "lp:2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == f"{np.linalg.norm(a):.15g}"


def test_norm_gauge_parse_error(mat_file, capsys):
    path, _ = mat_file
    assert main(["norm", path, "--gauge", "lp:0"]) == 2
    assert "error:" in capsys.readouterr().err


# the dual of a convexified dual of a convexification has no closed form
DEEP_GAUGE = "dual:conv:2:dual:conv:3:kyfan:2"


def test_deep_dual_conv_nesting_is_refused(mat_file, tmp_path, monkeypatch, capsys):
    # refused when the gauge is read: no suite or profile runs and nothing is written
    calls = []
    monkeypatch.setattr(cli, "run_inequality_suite", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli, "estimate_modulus", lambda *a, **k: calls.append(a))
    monkeypatch.chdir(tmp_path)
    path, _ = mat_file
    config = tmp_path / "deep.json"
    config.write_text(json.dumps({"gauges": ["lp:2", DEEP_GAUGE]}))
    before = sorted(tmp_path.iterdir())
    for argv in (
        ["norm", path, "--gauge", DEEP_GAUGE],
        ["modulus", "Gp", "--gauge", DEEP_GAUGE, "--p", "2", *TS],
        ["verify", "holder", "--config", str(config), *TS],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and DEEP_GAUGE in err and "Traceback" not in err, argv
    assert calls == []
    assert sorted(tmp_path.iterdir()) == before


def test_deeply_nested_descriptor_is_a_usage_error(mat_file, capsys):
    path, _ = mat_file
    assert main(["norm", path, "--gauge", "dual:" * 2000 + "lp:2"]) == 2
    assert capsys.readouterr().err == "error: gauge descriptor is nested too deeply\n"


def test_depth_one_dual_conv_inside_a_convexification_is_accepted(mat_file, capsys):
    path, a = mat_file
    g = parse_gauge("conv:2:dual:conv:3:kyfan:2")
    assert main(["norm", path, "--gauge", "conv:2:dual:conv:3:kyfan:2"]) == 0
    assert capsys.readouterr().out.strip() == f"{norm_ui(g, a):.15g}"


def test_kyfan_index_past_int64_inside_a_dual_convexification(tmp_path, capsys):
    # k > n behaves as k = n, in norm and in a verify config alike; the dual
    # of the top-2 Euclidean gauge is exact at the identity, 3 / sqrt(2)
    write_matrix(tmp_path / "I3.json", np.eye(3).astype(complex))
    gauges = ["dual:conv:2:kyfan:" + str(10**20), "dual:conv:2:dual:kyfan:" + str(10**20)]
    for gauge, want in zip([*gauges, "dual:conv:2:kyfan:2"], ("1.73205080756888", "3", "2.12132034355964")):
        assert main(["norm", str(tmp_path / "I3.json"), "--gauge", gauge]) == 0
        assert capsys.readouterr().out == want + "\n", gauge
    (tmp_path / "c.json").write_text(json.dumps({"gauges": gauges, "dims": [2, 3], "samples_per_case": 2}))
    assert main(["verify", "holder", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "r"), *TS]) == 0


def test_norm_missing_file(tmp_path, capsys):
    assert main(["norm", str(tmp_path / "nope.json"), "--gauge", "lp:2"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read matrix file")


def test_norm_malformed_matrix(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in (
        '{"dim": 2, "data": [[1, 2], [3, 4]]}',
        '{"dim": true, "data": [[[1, 0]]]}',
        '{"dim": 1, "data": [[[true, false]]]}',
    ):
        bad.write_text(text)
        assert main(["norm", str(bad), "--gauge", "lp:2"]) == 2, text
        assert "Traceback" not in capsys.readouterr().err


def test_usage_error_is_exit_2(capsys):
    assert main(["norm"]) == 2  # missing positional
    assert main(["bogus-subcommand"]) == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "spectral-mazur" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# map


def test_map_mazur_artifact(mat_file, tmp_path, capsys):
    path, a = mat_file
    out = tmp_path / "out.json"
    code = main(["map", "mazur", path, "--gauge", "lp:2", "--p", "3", "--project", "--out", str(out), *TS])
    assert code == 0
    artifact = json.loads(out.read_text())
    assert set(artifact) == {"manifest", "matrix"}
    got = matrix_from_json(artifact["matrix"])
    conv = parse_gauge("conv:3:lp:2")
    expect = mazur_forward(a / norm_ui(conv, a), 3.0)
    assert np.allclose(got, expect, atol=1e-13)
    man = artifact["manifest"]
    assert man["command"] == "spectral-mazur map mazur"
    assert man["config"]["p"] == 3.0 and man["config"]["project"] is True
    assert man["timestamp"] == "2026-08-23T00:00:00Z"


def test_map_artifact_rerun_byte_identical(mat_file, tmp_path):
    path, _ = mat_file
    out = tmp_path / "out.json"
    argv = ["map", "mazur-inv", path, "--gauge", "lp:2", "--p", "2", "--project", "--out", str(out), *TS]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_map_requires_p(mat_file, capsys):
    path, _ = mat_file
    assert main(["map", "mazur", path, "--gauge", "lp:2"]) == 2


@pytest.mark.parametrize(
    ("kind", "flags", "code", "message"),
    [
        ("mazur", [], 2, "error: map 'mazur' requires"),
        ("mazur-inv", [], 2, "error: map 'mazur-inv' requires"),
        ("entropy-min", ["--p", "2"], 2, "error: map 'entropy-min' takes no"),
        ("gmap", ["--p", "2"], 2, "error: map 'gmap' takes no"),
        ("entropy-min", ["--gauge", "kyfan:1"], 4, "precondition violated: smooth-gauge:"),
        ("gmap", ["--gauge", "lp:1"], 4, "precondition violated: smooth-gauge:"),
    ],
)
def test_map_refuses_before_reading_the_matrix(tmp_path, capsys, kind, flags, code, message):
    # each map kind is one of the modulus profiler's maps, whose --p rule
    # and gauge preconditions are refused before the matrix is read
    argv = ["map", kind, str(tmp_path / "missing.json"), "--gauge", "lp:2", *flags, "--out", str(tmp_path / "o.json"), *TS]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and "cannot read" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["mazur", "mazur-inv", "entropy-min", "gmap"])
def test_map_projects_a_subnormal_matrix(tmp_path, monkeypatch, kind):
    # --project scales by the largest entry first: dividing diag(1e-320,
    # 1e-320) by its norm directly overflows numpy's complex division
    path = tmp_path / "tiny.json"
    write_matrix(path, np.diag([1e-320, 1e-320]).astype(complex))
    seen = []
    sphere_map = cli._sphere_map

    def spy(*args, **kwargs):
        dom, img, apply, bound = sphere_map(*args, **kwargs)
        seen.append(dom)
        return dom, img, lambda m: seen.append(m) or apply(m), bound

    entropy_map = cli.entropy_min_general
    monkeypatch.setattr(cli, "_sphere_map", spy)
    monkeypatch.setattr(cli, "entropy_min_general", lambda g, m: seen.append(m) or entropy_map(g, m))
    p = ["--p", "3"] if kind.startswith("mazur") else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["map", kind, str(path), "--gauge", "lp:2", *p, "--project", "--out", str(tmp_path / "o.json"), *TS]) == 0
    dom, projected = seen[:2]
    assert norm_ui(dom, projected) == pytest.approx(1.0, abs=1e-12)


def test_map_entropy_min_includes_report(state_file, tmp_path):
    path, rho = state_file
    out = tmp_path / "em.json"
    assert main(["map", "entropy-min", path, "--gauge", "lp:2", "--out", str(out), *TS]) == 0
    artifact = json.loads(out.read_text())
    assert set(artifact) == {"manifest", "matrix", "report"}
    # the solver report's one schema: its fields without the minimizer
    assert set(artifact["report"]) == {"objective", "fixed_point_residual", "iterations"}
    assert artifact["report"]["fixed_point_residual"] <= 1e-8
    got = matrix_from_json(artifact["matrix"])
    expect = np.diag(np.diag(rho).real ** 0.5)
    expect = expect / np.sqrt(np.sum(np.diag(expect) ** 2))
    assert np.allclose(got, expect, atol=1e-8)


def test_map_entropy_min_of_a_near_hermitian_state(tmp_path):
    # not Hermitian within check_state's tolerance: mapped through the polar
    # path like any matrix that is not a state, and certified all the same
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = a @ a.conj().T
    m = m / np.trace(m).real
    m[0, 1] += 5e-11
    path, out = tmp_path / "m.json", tmp_path / "o.json"
    write_matrix(path, m)
    assert main(["map", "entropy-min", str(path), "--gauge", "lp:3", "--out", str(out), *TS]) == 0
    want = entropy_min_general(parse_gauge("lp:3"), read_matrix(path)).minimizer
    artifact = json.loads(out.read_text())
    assert artifact["matrix"] == matrix_to_json(want)
    assert artifact["report"]["fixed_point_residual"] <= 1e-8


def test_map_entropy_min_of_a_general_matrix_carries_its_report(mat_file, tmp_path):
    # the polar path writes the minimizer of entropy_min_general and its report
    _, a = mat_file
    path, out = tmp_path / "general.json", tmp_path / "o.json"
    write_matrix(path, a / trace_norm(a))
    assert main(["map", "entropy-min", str(path), "--gauge", "lp:3", "--out", str(out), *TS]) == 0
    artifact = json.loads(out.read_text())
    rep = entropy_min_general(parse_gauge("lp:3"), read_matrix(path))
    assert artifact["matrix"] == matrix_to_json(rep.minimizer)
    assert artifact["report"] == {"objective": rep.objective, "fixed_point_residual": rep.fixed_point_residual, "iterations": rep.iterations}
    assert artifact["report"]["fixed_point_residual"] <= 1e-8


def test_map_entropy_min_is_the_profilers_fx_map(mat_file, tmp_path):
    # one map: on a state and on a general matrix, map entropy-min writes
    # the bits of the modulus profiler's FX
    _, a = mat_file
    rho = a @ a.conj().T
    _, _, fx, _ = cli._sphere_map("FX", parse_gauge("lp:2.5"), None)
    for kind, m in (("state", rho / np.trace(rho).real), ("general", a / trace_norm(a))):
        path, out = tmp_path / f"{kind}.json", tmp_path / f"{kind}.out.json"
        write_matrix(path, m)
        assert main(["map", "entropy-min", str(path), "--gauge", "lp:2.5", "--out", str(out), *TS]) == 0
        assert json.loads(out.read_text())["matrix"] == matrix_to_json(fx(read_matrix(path))), kind


@pytest.mark.parametrize(
    "kind,matrix,flags,name",
    [("gmap", np.zeros((2, 2)), ["--project"], "nonzero-matrix"), ("entropy-min", np.diag([1.5, 0.5]), [], "unit-trace-norm")],
)
def test_map_refuses_a_matrix_off_its_domain(tmp_path, capsys, kind, matrix, flags, name):
    path, out = tmp_path / "m.json", tmp_path / "o.json"
    write_matrix(path, matrix.astype(complex))
    assert main(["map", kind, str(path), "--gauge", "lp:2", *flags, "--out", str(out), *TS]) == 4
    assert capsys.readouterr().err.startswith(f"precondition violated: {name}:")
    assert not out.exists()


def test_map_out_naming_a_directory_is_a_usage_error(state_file, tmp_path, capsys):
    path, _ = state_file
    assert main(["map", "entropy-min", path, "--gauge", "lp:2", "--out", str(tmp_path), *TS]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and "Traceback" not in err


def test_map_entropy_min_stdout_when_no_out(state_file, capsys):
    path, _ = state_file
    assert main(["map", "entropy-min", path, "--gauge", "lp:2", *TS]) == 0
    artifact = json.loads(capsys.readouterr().out)
    assert "matrix" in artifact


def test_map_gmap_requires_unit_norm(mat_file, capsys):
    path, _ = mat_file
    assert main(["map", "gmap", path, "--gauge", "lp:2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("precondition violated: unit-gauge-norm")


def test_map_gmap_with_projection(mat_file, tmp_path):
    path, a = mat_file
    out = tmp_path / "g.json"
    assert main(["map", "gmap", path, "--gauge", "lp:2", "--project", "--out", str(out), *TS]) == 0
    got = matrix_from_json(json.loads(out.read_text())["matrix"])
    expect = norming_state(parse_gauge("lp:2"), a / np.linalg.norm(a))
    assert np.allclose(got, expect, atol=1e-12)
    assert trace_norm(got) == pytest.approx(1.0, abs=1e-9)


def test_map_numerical_failure_exit_3(state_file, monkeypatch, capsys):
    path, _ = state_file

    def boom(*a, **k):
        raise NoConvergence("solver stalled", 0.1)

    monkeypatch.setattr("spectral_mazur.cli.entropy_min_general", boom)
    assert main(["map", "entropy-min", path, "--gauge", "lp:2"]) == 3
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_single_suite(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["verify", "holder", "--dims", "2,3", "--samples", "4", "--out", str(out), *TS])
    assert code == 0
    report = json.loads((out / "holder.report.json").read_text())
    assert report["passed"] is True and report["suite_name"] == "holder"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "spectral-mazur verify holder"
    assert "holder: PASS" in capsys.readouterr().out


def test_verify_unknown_suite(tmp_path):
    assert main(["verify", "nope", "--out", str(tmp_path / "r")]) == 2


def test_verify_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"seed": 11, "dims": [2], "samples_per_case": 3}))
    out = tmp_path / "r"
    assert main(["verify", "ideal", "--config", str(cfg_file), "--samples", "5", "--out", str(out), *TS]) == 0
    report = json.loads((out / "ideal.report.json").read_text())
    assert report["config"]["seed"] == 11
    assert report["config"]["samples_per_case"] == 5  # flag beats file


def test_verify_bad_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text("{not json")
    assert main(["verify", "ideal", "--config", str(cfg_file)]) == 2
    cfg_file.write_text(json.dumps({"bogus": 1}))
    assert main(["verify", "ideal", "--config", str(cfg_file)]) == 2
    cfg_file.write_text(json.dumps([{"seed": 1}]))
    assert main(["verify", "ideal", "--config", str(cfg_file)]) == 2


@pytest.mark.parametrize(
    "config",
    [
        {"dims": ["x"]},
        {"p_grid": ["a"]},
        {"dims": [1e400]},
        {"samples_per_case": 2.5},
        {"seed": True},
        {"samples_per_case": True},
        {"dims": [2.7]},
        {"gauges": []},
        {"rel_tol": 1e400},
        {"p_grid": [1e400]},
        # exact integers beyond float range pass a comparison with inf
        {"rel_tol": 10**400},
        {"abs_tol": 10**400},
        {"p_grid": [10**400]},
        {"p_grid": [-(10**400)]},
    ],
)
def test_verify_bad_config_values(tmp_path, capsys, config):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    assert main(["verify", "ideal", "--config", str(cfg_file), "--out", str(tmp_path / "r")]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[" * 100_000, '{"seed": ' + "1" * 4301 + "}"], ids=["nested", "long-int"])
def test_verify_config_beyond_the_decoder(tmp_path, capsys, text):
    # not JSON syntax errors, yet refused before any suite runs
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(text)
    assert main(["verify", "ideal", "--dims", "2", "--samples", "1", "--config", str(cfg_file), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000,
        '{"dim": 1, "data": [[[' + "1" * 4301 + ", 0]]]}",
        '{"dim": 1, "data": [[[' + "1" * 401 + ", 0]]]}",
    ],
    ids=["nested", "long-entry", "huge-entry"],
)
def test_matrix_beyond_the_decoder_or_float_range(tmp_path, capsys, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    for argv in (["norm", str(path), "--gauge", "lp:2"], ["map", "mazur", str(path), "--gauge", "lp:2", "--p", "2"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv


def test_verify_env_seed_and_flag_precedence(tmp_path, monkeypatch):
    # the seed comes from --seed, then the config file, then 1; the
    # environment plays no part
    monkeypatch.setenv("SPECTRAL_MAZUR_SEED", "33")
    out = tmp_path / "r"
    assert main(["verify", "ideal", "--dims", "2", "--samples", "2", "--out", str(out), *TS]) == 0
    assert json.loads((out / "ideal.report.json").read_text())["config"]["seed"] == 1
    assert main(["verify", "ideal", "--dims", "2", "--samples", "2", "--seed", "7", "--out", str(out), *TS]) == 0
    assert json.loads((out / "ideal.report.json").read_text())["config"]["seed"] == 7


def test_verify_violations_exit_1(tmp_path, capsys):
    out = tmp_path / "r"
    code = main(
        ["verify", "lemma41", "--dims", "3", "--samples", "20", "--rel-tol", "0", "--abs-tol", "0", "--out", str(out), *TS]
    )
    assert code == 1
    report = json.loads((out / "lemma41.report.json").read_text())
    assert report["passed"] is False and report["violations"]
    assert "lemma41: FAIL" in capsys.readouterr().out


def test_verify_rerun_and_threads_byte_identical(tmp_path):
    base = ["verify", "all", "--dims", "2", "--samples", "2", "--seed", "5", *TS]
    outs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / tag
        # identical output path is part of the manifest; write to the same
        # name via a temp directory rename to compare bytes fairly
        assert main(base + ["--out", str(tmp_path / "run"), "--threads", threads]) == 0
        (tmp_path / "run").rename(out)
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert "manifest.json" in names and len(names) == len(sorted(set(names)))
    for name in names:
        ref = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == ref, name
        assert (outs[2] / name).read_bytes() == ref, name


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_verify_threads_below_one_is_usage_error(tmp_path, capsys, threads):
    out = tmp_path / "reports"
    argv = ["verify", "holder", "--dims", "2", "--samples", "1", "--threads", threads, "--out", str(out), *TS]
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_verify_dims_parse_error(tmp_path):
    assert main(["verify", "ideal", "--dims", "2,x"]) == 2
    assert main(["verify", "ideal", "--dims", "2,99"]) == 4  # beyond the dimension bound


# ---------------------------------------------------------------------------
# modulus


def test_modulus_writes_json_and_csv(tmp_path, capsys):
    # a power map, and both entropy maps, which read their exponent from the gauge
    for map_name, flags in (
        ("Gp", ["--gauge", "lp:1", "--p", "3", "--samples", "16"]),
        ("FX", ["--gauge", "lp:2", "--samples", "8"]),
        ("FX_inv", ["--gauge", "lp:2", "--samples", "8"]),
    ):
        base = tmp_path / map_name
        assert main(["modulus", map_name, *flags, "--dims", "2,3", "--out", str(base), *TS]) == 0, map_name
        data = json.loads((tmp_path / f"{map_name}.json").read_text())
        assert data["profile"]["map_name"] == map_name
        assert data["profile"]["bound_violations"] == 0, map_name
        csv_text = (tmp_path / f"{map_name}.csv").read_text()
        assert csv_text.startswith("# manifest: ")
        assert csv_text.splitlines()[1] == "t,omega,count,bound"
        assert "bound_violations=0" in capsys.readouterr().out, map_name


def test_modulus_requires_p_for_power_maps(tmp_path):
    assert main(["modulus", "Gp", "--gauge", "lp:1", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("p", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("kind", ["mazur", "mazur-inv", "entropy-min", "gmap"])
def test_map_non_finite_p_is_usage_error(state_file, tmp_path, capsys, kind, p):
    # the power maps refuse a non-finite exponent; the other kinds take no --p
    path, _ = state_file
    assert main(["map", kind, path, "--gauge", "lp:2", "--p", p, "--out", str(tmp_path / "o.json"), *TS]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("kind", ["entropy-min", "gmap", "FX", "FX_inv"])
def test_p_where_no_map_reads_it_is_usage_error(state_file, tmp_path, capsys, kind):
    if kind in ("FX", "FX_inv"):
        argv = ["modulus", kind, "--gauge", "lp:2", "--dims", "2", "--samples", "2"]
        artifacts = [tmp_path / "x.json", tmp_path / "x.csv"]
    else:
        argv = ["map", kind, state_file[0], "--gauge", "lp:2"]
        artifacts = [tmp_path / "x"]
    assert main([*argv, "--p", "2", "--out", str(tmp_path / "x"), *TS]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "takes no" in err
    assert not any(path.exists() for path in artifacts)


@pytest.mark.parametrize("p", ["inf", "nan"])
@pytest.mark.parametrize("map_name", ["Gp", "Gp_inv", "FX"])
def test_modulus_non_finite_p_is_usage_error(tmp_path, capsys, map_name, p):
    argv = ["modulus", map_name, "--gauge", "lp:1", "--p", p, "--dims", "2", "--samples", "2"]
    assert main([*argv, "--out", str(tmp_path / "x"), *TS]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_modulus_smoothness_precondition(tmp_path, capsys):
    # the entropy map takes a smooth gauge or lp:1 (operator norm is
    # neither), the norming state a smooth gauge (trace norm is not)
    for map_name, gauge in (("FX", "kyfan:1"), ("FX_inv", "lp:1")):
        argv = ["modulus", map_name, "--gauge", gauge, "--dims", "2", "--samples", "4", "--out", str(tmp_path / "x")]
        assert main(argv) == 4, map_name
        assert capsys.readouterr().err.startswith("precondition violated: smooth-gauge:"), map_name
        assert not (tmp_path / "x.json").exists() and not (tmp_path / "x.csv").exists(), map_name


@pytest.mark.parametrize("gauge", ["lp:1e308", "conv:1e154:lp:1e154"])
def test_modulus_bound_overflow_exits_3(tmp_path, capsys, gauge):
    # the bound 3 q t of FX_inv is inf: refused before any sample, with no
    # .json or .csv written; map gmap under the same gauge is unaffected
    argv = ["modulus", "FX_inv", "--gauge", gauge, "--dims", "2", "--samples", "3", "--out", str(tmp_path / "x"), *TS]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "Traceback" not in err
    assert not (tmp_path / "x.json").exists() and not (tmp_path / "x.csv").exists()
    write_matrix(tmp_path / "m.json", np.diag([1.0, 0.5]).astype(complex))
    assert main(["map", "gmap", str(tmp_path / "m.json"), "--gauge", gauge, "--project", "--out", str(tmp_path / "g.json"), *TS]) == 0


def test_modulus_rerun_byte_identical(tmp_path):
    argv = ["modulus", "Gp_inv", "--gauge", "lp:2", "--p", "2", "--dims", "2", "--samples", "12", "--out", str(tmp_path / "p"), *TS]
    assert main(argv) == 0
    first = (tmp_path / "p.json").read_bytes(), (tmp_path / "p.csv").read_bytes()
    assert main(argv) == 0
    assert ((tmp_path / "p.json").read_bytes(), (tmp_path / "p.csv").read_bytes()) == first


# ---------------------------------------------------------------------------
# flags: each subcommand accepts only the flags it reads


@pytest.mark.parametrize(
    "flag",
    [["--seed", "3"], ["--dims", "2"], ["--samples", "2"], ["--rel-tol", "0"], ["--abs-tol", "0"], ["--threads", "2"], ["--out", "x.json"], TS, ["--config", "c.json"]],
)
def test_norm_rejects_flags_it_does_not_read(mat_file, capsys, flag):
    path, _ = mat_file
    assert main(["norm", path, "--gauge", "lp:2", *flag]) == 2
    err = capsys.readouterr()
    assert "unrecognized arguments" in err.err and "Traceback" not in err.err
    assert err.out == ""


@pytest.mark.parametrize(
    "flag", [["--seed", "3"], ["--dims", "2"], ["--samples", "2"], ["--rel-tol", "0"], ["--abs-tol", "0"], ["--threads", "-3"], ["--config", "c.json"]]
)
def test_map_rejects_flags_it_does_not_read(state_file, tmp_path, capsys, flag):
    path, _ = state_file
    out = tmp_path / "o.json"
    assert main(["map", "entropy-min", path, "--gauge", "lp:2", "--out", str(out), *TS, *flag]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--threads", "-3"], ["--threads", "2"], ["--config", "c.json"]])
def test_modulus_rejects_flags_it_does_not_read(tmp_path, capsys, flag):
    argv = ["modulus", "Gp", "--gauge", "lp:1", "--p", "3", "--dims", "2", "--samples", "2", "--out", str(tmp_path / "x"), *TS]
    assert main([*argv, *flag]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists() and not (tmp_path / "x.csv").exists()


def test_each_subcommand_accepts_the_flags_it_reads(mat_file, state_file, tmp_path):
    matrix, _ = mat_file
    state, _ = state_file
    sampled = ["--seed", "2", "--dims", "2", "--samples", "2", "--rel-tol", "1e-9", "--abs-tol", "1e-9"]
    assert main(["norm", matrix, "--gauge", "lp:2"]) == 0
    assert main(["map", "entropy-min", state, "--gauge", "lp:2", "--out", str(tmp_path / "m.json"), *TS]) == 0
    argv = ["modulus", "Gp", "--gauge", "lp:1", "--p", "3", *sampled, "--out", str(tmp_path / "g"), *TS]
    assert main(argv) == 0
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"samples_per_case": 2}))
    argv = ["verify", "ideal", *sampled, "--threads", "2", "--config", str(config), "--out", str(tmp_path / "v"), *TS]
    assert main(argv) == 0


# ---------------------------------------------------------------------------
# file I/O: unreadable input and unwritable output are usage errors


def test_unwritable_out_is_usage_error(mat_file, tmp_path, capsys, monkeypatch):
    # verify and modulus make their output directory before the first suite
    # or profile runs, so neither is called
    calls = []
    monkeypatch.setattr(cli, "run_inequality_suite", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli, "estimate_modulus", lambda *a, **k: calls.append(a))
    path, _ = mat_file
    blocker = tmp_path / "F"
    blocker.write_text("")
    for argv in (
        ["verify", "holder", "--dims", "2", "--samples", "1", "--out", str(blocker)],
        ["verify", "all", "--out", str(blocker / "sub")],
        ["map", "mazur", path, "--gauge", "lp:2", "--p", "2", "--out", str(blocker / "x.json")],
        ["modulus", "Gp", "--gauge", "lp:1", "--p", "3", "--dims", "2", "--samples", "2", "--out", str(blocker / "x")],
        ["modulus", "FX", "--gauge", "lp:2", "--out", str(blocker / "sub" / "x")],
    ):
        assert main([*argv, *TS]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and "Traceback" not in err, argv
    assert calls == []


@pytest.mark.parametrize(
    ("argv", "code"),
    [
        (["modulus", "FX", "--gauge", "lp:2", "--p", "2", "--out", "new/x"], 2),
        (["modulus", "Gp", "--gauge", "lp:1", "--out", "new1/x"], 2),
        (["modulus", "FX", "--gauge", "kyfan:1", "--out", "new2/x"], 4),
        (["modulus", "Gp", "--gauge", "lp:1", "--p", "inf", "--out", "new3/x"], 2),
        (["modulus", "FX_inv", "--gauge", "lp:1e308", "--dims", "2", "--samples", "3", "--out", "new4/x"], 3),
    ],
)
def test_refused_modulus_call_leaves_no_directory(tmp_path, monkeypatch, capsys, argv, code):
    # a missing, unread or non-finite p, a non-smooth gauge and a bound that
    # overflows are refused before the output directory is made
    monkeypatch.chdir(tmp_path)
    assert main([*argv, *TS]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_non_utf8_input_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00")
    for argv in (["norm", str(bad), "--gauge", "lp:2"], ["verify", "holder", "--config", str(bad), "--out", str(tmp_path / "r")]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:"), argv


def _process_env() -> dict:
    """The environment of a child process that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_runs_as_a_process(tmp_path):
    # an exception that escapes main() exits 1 with a traceback only in a
    # real process, so the exit-code contract is checked there too
    env = _process_env()
    argv = [sys.executable, "-m", "spectral_mazur", "verify", "holder", "--dims", "2", "--samples", "1"]
    ok = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert ok.returncode == 0, ok.stderr
    blocker = tmp_path / "F"
    blocker.write_text("")
    bad = subprocess.run([*argv, "--out", str(blocker)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert bad.returncode == 2 and bad.stderr.startswith("error:"), bad.stderr
    assert "Traceback" not in bad.stderr


def test_power_overflow_exits_3_without_a_warning(tmp_path):
    # a power map whose singular values overflow, a modulus bound that
    # does, or a suite whose powers do, is a numerical failure, reported as
    # such before any artifact is written, and numpy stays silent
    env = _process_env()
    write_matrix(tmp_path / "big.json", np.full((2, 2), 1e308))
    (tmp_path / "c.json").write_text(json.dumps({"dims": [2, 16], "samples_per_case": 3, "p_grid": [1, 800]}))
    cli_argv = [sys.executable, "-m", "spectral_mazur"]
    for argv in (
        ["map", "mazur", "big.json", "--gauge", "lp:1", "--p", "3", "--out", "out.json"],
        ["modulus", "Gp", "--gauge", "lp:1", "--p", "1e308", "--dims", "2", "--samples", "2", "--out", "prof"],
        ["modulus", "FX_inv", "--gauge", "lp:1e308", "--dims", "2", "--samples", "3", "--out", "fx"],
        ["verify", "lemma45", "--config", "c.json"],
    ):
        run = subprocess.run([*cli_argv, *argv], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert run.returncode == 3, (argv, run.stderr)
        assert run.stderr.startswith("numerical failure:"), run.stderr
        assert "Warning" not in run.stderr and "Traceback" not in run.stderr, run.stderr
    assert not (tmp_path / "out.json").exists()
    assert not (tmp_path / "fx.json").exists() and not (tmp_path / "fx.csv").exists()


@pytest.mark.parametrize("seed", ["-1", "4294967296", "4294967297", "-4294967295"])
def test_seed_outside_one_word_is_a_usage_error(tmp_path, capsys, seed):
    # the sampler keys on one 32-bit word, so these seeds would draw the
    # samples of seeds inside it while their reports named their own
    for argv in (
        ["verify", "holder", "--dims", "3", "--samples", "4", "--seed", seed, "--out", str(tmp_path / "v")],
        ["modulus", "Gp", "--gauge", "lp:1", "--p", "3", "--dims", "2", "--samples", "2", "--seed", seed, "--out", str(tmp_path / "m" / "x")],
    ):
        assert main([*argv, *TS]) == 2, argv
        assert capsys.readouterr().err.startswith("error: seed must satisfy 0 <= seed < 2**32"), argv
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"seed": int(seed)}))
    assert main(["verify", "holder", "--config", str(cfg_file), "--out", str(tmp_path / "v"), *TS]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("samples", ["4294967297", "99999999999999999999999"])
def test_samples_beyond_one_word_is_a_usage_error(tmp_path, capsys, samples):
    # each sample index is one 32-bit word of its stream key, so a larger
    # count would repeat streams; it is refused before any job list is built
    argv = ["verify", "holder", "--dims", "2", "--samples", samples, "--out", str(tmp_path / "v"), *TS]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: samples_per_case must satisfy 1 <= samples_per_case <= 2**32")
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("field,entries", [("dims", [2, 2]), ("gauges", ["lp:2", "kyfan:1", "lp:2"]), ("p_grid", [2, 2.0])])
def test_repeated_config_entry_is_a_usage_error(tmp_path, capsys, field, entries):
    # a repeated entry would run the same cases twice and count them twice;
    # it is refused before any output directory exists
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({field: entries, "samples_per_case": 1}))
    assert main(["verify", "holder", "--config", str(cfg_file), "--out", str(tmp_path / "v"), *TS]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} entries must be distinct")
    for argv in (
        ["verify", "holder", "--dims", "2,2", "--samples", "1", "--out", str(tmp_path / "v")],
        ["modulus", "Gp", "--gauge", "lp:1", "--p", "3", "--dims", "2,2", "--samples", "8", "--out", str(tmp_path / "m" / "x")],
    ):
        assert main([*argv, *TS]) == 2, argv
        assert capsys.readouterr().err.startswith("error: dims entries must be distinct, got 2 twice"), argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable the
    # package evaluates the exact duals and runs a suite
    env = _process_env()
    script = """
import sys
sys.modules["scipy"] = None
from spectral_mazur import eval_gauge, parse_gauge
from spectral_mazur.cli import main
print(eval_gauge(parse_gauge("dual:conv:2:kyfan:2"), [1.0, 1.0, 1.0]))
print(eval_gauge(parse_gauge("dual:conv:3:dual:kyfan:2"), [1.0, 0.5, 0.25]))
sys.exit(main(["verify", "holder", "--dims", "2", "--samples", "1"]))
"""
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    first, second = run.stdout.splitlines()[:2]
    assert float(first) == pytest.approx(3.0 / 2.0**0.5, rel=1e-15)
    # the capped water-filling form keeps the peak and pools the other two
    assert float(second) == pytest.approx(1.0 + (0.5**1.5 + 0.25**1.5) ** (2.0 / 3.0), rel=1e-15)

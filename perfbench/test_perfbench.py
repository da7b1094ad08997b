"""Self-tests of the benchmark (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import shutil
import subprocess
from time import perf_counter

import env

env.setup()

import pytest  # noqa: E402

import golden  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import spectral_mazur  # noqa: E402

SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GOLDENS = golden.load()["workloads"]


def _pass(wl, threads=None):
    wl.prepare()
    return wl.check(wl.run(threads))


@pytest.mark.parametrize("name", sorted(workloads.SMOKE))
def test_smoke_pass_is_clean_and_repeatable(name):
    wl = workloads.SMOKE[name](golden.DEFAULT_SEED)
    first = _pass(wl)
    assert first and all(u.cases > 0 for u in first)
    assert [p for u in first for p in u.problems] == []
    problems, shas = golden.gate(_pass(wl), golden.summaries(first), exact_bytes=True)
    assert not any(problems.values()) and all(shas)


# one mutation per workload, each of a field the gate must hold exactly or
# within 1e-12
MUTATIONS = {
    "sweep": lambda g: g["holder"].__setitem__("cases_run", g["holder"]["cases_run"] + 1),
    "oracle": lambda g: g[next(iter(g))].__setitem__("pass", False),
    "cli_large": lambda g: g["verify all"]["reports"]["lemma45"].__setitem__("passed", False),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_golden_gate_passes_seed_code_and_catches_a_mutation(name):
    want = GOLDENS[name][str(golden.DEFAULT_SEED)]
    units = _pass(workloads.WORKLOADS[name](golden.DEFAULT_SEED))
    problems, _ = golden.gate(units, want)
    assert not any(problems.values())

    mutated = copy.deepcopy(want)
    MUTATIONS[name](mutated)
    problems, _ = golden.gate(units, mutated)
    failed = sum(1 for found in problems.values() if found)
    assert failed / len(problems) > 0


def test_float_drift_fails_past_1e12_relative():
    units = [workloads.Unit("u", {"worst_ratio": 0.75}, 1)]
    problems, _ = golden.gate(units, {"u": {"worst_ratio": 0.75 * (1 + 1e-13)}})
    assert not any(problems.values())
    problems, _ = golden.gate(units, {"u": {"worst_ratio": 0.75 * (1 + 1e-9)}})
    assert any(problems.values())


def test_sha_mismatch_is_informational_unless_exact():
    units = [workloads.Unit("u", {"cases_run": 3, "sha256": "a"}, 3)]
    problems, shas = golden.gate(units, {"u": {"cases_run": 3, "sha256": "b"}})
    assert not any(problems.values()) and shas == [False]
    problems, _ = golden.gate(units, {"u": {"cases_run": 3, "sha256": "b"}}, exact_bytes=True)
    assert any(problems.values())


@pytest.mark.parametrize("name", ["sweep", "cli_large"])
def test_traced_pass_restores_bindings_and_keeps_report_bytes(name):
    wl = workloads.SMOKE[name](golden.DEFAULT_SEED)
    plain = _pass(wl, 1)
    tracer = spans.Tracer()
    before = tracer.bindings()
    original = spectral_mazur.verify.suites.eval_gauge
    wl.prepare()
    with tracer.installed():
        assert spectral_mazur.verify.suites.eval_gauge is not original
        assert spectral_mazur.verify.run_inequality_suite is not before[(id(spectral_mazur.verify), "run_inequality_suite")]
        t0 = perf_counter()
        with tracer.root():
            raw = wl.run(1)
        wall = perf_counter() - t0
    after = tracer.bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert spectral_mazur.verify.suites.eval_gauge is original

    problems, shas = golden.gate(wl.check(raw), golden.summaries(plain), exact_bytes=True)
    assert not any(problems.values()) and all(shas)
    assert tracer.balanced(wall)
    assert not tracer.balanced(2 * wall)
    for layer in ("linalg", "gauge", "verify.sampling", "verify.suites", "verify.config"):
        assert tracer.layers[layer].calls > 0, layer


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace_flag,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace_flag, section):
    cmd = [*SPEC["command"], "--workload", "oracle", "--seed", "3", "--seconds", "1", "--trace", str(trace_flag)]
    out = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    result = _result(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(env.ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [*SPEC["command"], "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout

"""The three benchmark workloads.

Each workload drives spectral_mazur only through its public functions and
the in-process CLI entry ``spectral_mazur.cli.main``, and calls them through
module attributes so the tracer's patched bindings are seen.  A pass runs
the workload's fixed input once; the runner repeats passes in a closed loop
(one caller, the next pass starts when the previous one ends).

Interface: ``prepare()`` (untimed, before each pass), ``run(threads)``
(the timed work, returns raw results), ``check(raw)`` (untimed, turns raw
results into :class:`Unit` records for the correctness gate) and
``warmup()`` (one small unit, run by the set-up probe).
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import spectral_mazur as sm
from spectral_mazur import cli, verify

# relative to the checkout root, which is the working directory of a run;
# relative paths keep the CLI manifests byte-identical across checkouts
OUT_DIR = Path(".perfbench_out")
TIMESTAMP = "2026-01-01T00:00:00Z"

SWEEP_SUITES = tuple(s for s in verify.CORE_SUITE_NAMES if s != "lemma54")
ORACLE_GAUGES = ("lp:1.5", "lp:2", "lp:3", "conv:2:lp:2")


@dataclass
class Unit:
    """One checked unit: a suite run, an oracle check or a CLI invocation.

    ``summary`` is what the goldens hold; keys starting with ``sha256`` are
    byte-identity fingerprints.  ``problems`` lists intrinsic failures
    (a FAIL verdict, a nonzero exit code, a missing artifact, ...).
    """

    label: str
    summary: dict
    cases: int
    problems: list = field(default_factory=list)


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def suite_summary(report: dict, text: str) -> dict:
    return {
        "passed": report["passed"],
        "cases_run": report["cases_run"],
        "violations": len(report["violations"]),
        "worst_ratio": report["worst_ratio"],
        "recorded": report["recorded"],
        "sha256": sha256(text),
    }


def _suite_problems(label: str, summary: dict) -> list:
    return [] if summary["passed"] else [f"{label}: verdict FAIL with {summary['violations']} violations"]


class SuiteWorkload:
    """Named suites through ``run_inequality_suite`` at default dims, gauges and p-grid."""

    threads = 1

    def __init__(self, suites: tuple[str, ...], seed: int, samples: int):
        self.suites = suites
        self.cfg = verify.SuiteConfig(seed=seed, samples_per_case=samples)
        self.cfg.parsed_gauges()
        self.size = {"suites": list(suites), "dims": list(self.cfg.dims), "samples_per_case": samples, "threads": self.threads}

    def prepare(self):
        pass

    def run(self, threads: int | None = None):
        out = []
        for name in self.suites:
            report = verify.run_inequality_suite(name, self.cfg, threads=threads or self.threads)
            out.append((name, report, verify.dumps_json(report.to_json())))
        return out

    def check(self, raw) -> list[Unit]:
        units = []
        for name, report, text in raw:
            summary = suite_summary(json.loads(text), text)
            units.append(Unit(name, summary, report.cases_run, _suite_problems(name, summary)))
        return units

    def thread_time(self, raw, wall: float) -> float:
        return wall

    def warmup(self):
        cfg = verify.SuiteConfig(seed=self.cfg.seed, samples_per_case=1)
        verify.run_inequality_suite(self.suites[0], cfg, threads=self.threads)


class OracleWorkload:
    """Criterion 3's shape: grid oracle vs solver on diagonal states of dim 2 and 3."""

    threads = None  # no thread knob

    def __init__(self, seed: int, per_dim: int = 2):
        rng = np.random.default_rng([seed, 3])
        self.states = [
            (n, k, np.diag(rng.dirichlet(np.full(n, 2.0))).astype(complex)) for n in (2, 3) for k in range(per_dim)
        ]
        self.gauges = [(s, sm.parse_gauge(s)) for s in ORACLE_GAUGES]
        self.size = {"dims": [2, 3], "states_per_dim": per_dim, "gauges": list(ORACLE_GAUGES)}
        self.max_dist_over_pitch = 0.0

    def prepare(self):
        pass

    def _check_one(self, g, rho):
        brute = sm.entropy_min_bruteforce(g, rho)
        sol = sm.entropy_min_mat(g, rho)
        return sm.trace_norm(sol.minimizer - brute.minimizer), brute.pitch

    def run(self, threads: int | None = None):
        return [
            (f"dim={n} k={k} g={s}", *self._check_one(g, rho)) for n, k, rho in self.states for s, g in self.gauges
        ]

    def check(self, raw) -> list[Unit]:
        units = []
        for label, dist, pitch in raw:
            self.max_dist_over_pitch = max(self.max_dist_over_pitch, dist / pitch)
            ok = dist <= 2.0 * pitch
            units.append(Unit(label, {"pass": ok}, 1, [] if ok else [f"{label}: distance {dist!r} > 2 pitch {pitch!r}"]))
        return units

    def warmup(self):
        n, _, rho = self.states[0]
        self._check_one(self.gauges[0][1], rho)


class CliWorkload:
    """``verify all`` plus the two power-map modulus profiles, through ``cli.main``.

    Timed passes run ``verify all`` at ``--threads 1``: two busy workers on a
    2-vCPU shared host time the scheduler more than the program.  The traced
    run still times ``--threads 2`` against 1 for ``cli.threads_speedup``.
    """

    DIMS = "32,64"

    threads = 1

    def __init__(self, seed: int, samples: int = 3, modulus_samples: int = 40):
        self.out = OUT_DIR / "cli_large"
        common = ["--dims", self.DIMS, "--seed", str(seed), "--timestamp", TIMESTAMP]
        self.verify_args = ["verify", "all", *common, "--samples", str(samples), "--out", str(self.out / "verify")]
        self.modulus = [
            (m, ["modulus", m, "--gauge", "lp:1", "--p", "3", *common, "--samples", str(modulus_samples), "--out", str(self.out / m)])
            for m in ("Gp", "Gp_inv")
        ]
        self.modulus_pairs = len(self.DIMS.split(",")) * modulus_samples
        self.warmup_args = ["verify", "holder", *common, "--samples", "1", "--threads", str(self.threads), "--out", str(self.out / "warmup")]
        self.size = {
            "verify": f"verify all --dims {self.DIMS} --samples {samples} --threads {self.threads}",
            "modulus": f"modulus Gp, Gp_inv --gauge lp:1 --p 3 --dims {self.DIMS} --samples {modulus_samples}",
        }

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    @staticmethod
    def _main(argv) -> int:
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def run(self, threads: int | None = None):
        t0 = perf_counter()
        codes = {"verify": self._main(self.verify_args + ["--threads", str(threads or self.threads)])}
        verify_s = perf_counter() - t0
        for name, argv in self.modulus:
            codes[name] = self._main(argv)
        return codes, verify_s

    def thread_time(self, raw, wall: float) -> float:
        """``verify all`` alone: the only invocation whose work uses ``--threads``."""
        return wall if raw is None else raw[1]

    def check(self, raw) -> list[Unit]:
        codes, _ = raw
        units = []

        problems = [] if codes["verify"] == 0 else [f"verify all: exit code {codes['verify']}"]
        reports, cases = {}, 0
        vdir = self.out / "verify"
        for name in verify.SUITE_NAMES:
            path = vdir / f"{name}.report.json"
            if not path.is_file():
                problems.append(f"verify all: missing artifact {path.name}")
                continue
            text = path.read_text(encoding="utf-8")
            reports[name] = suite_summary(json.loads(text), text)
            problems += _suite_problems(f"verify all/{name}", reports[name])
            cases += reports[name]["cases_run"]
        manifest = vdir / "manifest.json"
        if not manifest.is_file():
            problems.append("verify all: missing artifact manifest.json")
        summary = {"exit": codes["verify"], "reports": reports}
        summary["sha256_manifest"] = sha256(manifest.read_bytes()) if manifest.is_file() else None
        units.append(Unit("verify all", summary, cases, problems))

        for name, _ in self.modulus:
            label = f"modulus {name}"
            problems = [] if codes[name] == 0 else [f"{label}: exit code {codes[name]}"]
            summary = {"exit": codes[name]}
            base = self.out / name
            json_path, csv_path = base.with_suffix(".json"), base.with_suffix(".csv")
            for path in (json_path, csv_path):
                if not path.is_file():
                    problems.append(f"{label}: missing artifact {path.name}")
            if not problems:
                text = json_path.read_text(encoding="utf-8")
                profile = json.loads(text)["profile"]
                summary.update(
                    bound_violations=profile["bound_violations"],
                    counts=[b["count"] for b in profile["bins"]],
                    omega=[b["omega"] for b in profile["bins"]],
                    sha256=sha256(text),
                    sha256_csv=sha256(csv_path.read_bytes()),
                )
                if profile["bound_violations"]:
                    problems.append(f"{label}: {profile['bound_violations']} bound violations")
            units.append(Unit(label, summary, self.modulus_pairs, problems))
        return units

    def warmup(self):
        self._main(self.warmup_args)


# pass sizes: a pass takes 1.5-3.7 s on a 2-vCPU Xeon, so a run of
# ``run_seconds`` in BENCHMARK.json times 10-25 passes
WORKLOADS = {
    "sweep": lambda seed: SuiteWorkload(SWEEP_SUITES, seed, samples=12),
    "oracle": lambda seed: OracleWorkload(seed),
    "cli_large": lambda seed: CliWorkload(seed),
}

# smallest sizes, for the benchmark's self-tests
SMOKE = {
    "sweep": lambda seed: SuiteWorkload(SWEEP_SUITES, seed, samples=1),
    "oracle": lambda seed: OracleWorkload(seed, per_dim=1),
    "cli_large": lambda seed: CliWorkload(seed, samples=1, modulus_samples=1),
}

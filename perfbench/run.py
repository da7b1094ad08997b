"""spectral_mazur benchmark: one workload, one closed-loop run, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Workloads: sweep, oracle, cli_large (see README.md).  One caller repeats
the workload's fixed input (a pass) until ``--seconds`` are used.
Every pass is checked: intrinsic verdicts, byte-identity with the run's
first pass, and, at a seed with goldens, the golden gate.  Each run also
checks one untimed pass at the default seed against the goldens, whatever
``--seed`` is.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer table.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``; a
full record goes to ``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
"""

import env

env.setup()
env.require_package()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import golden  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# set-up probes per run, one before each timed pass and the rest after the
# last, so they sample the same stretch of machine time as the passes
SETUP_PROBES = 15
PROBE = Path(__file__).resolve().parent / "probe.py"


# ---------------------------------------------------------------------------
# machine block


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = env.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_block(workload: str, seed: int, seconds: int, size: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(env.BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "input_size": size,
    }


# ---------------------------------------------------------------------------
# measurement


def setup_time(workload: str, seed: int) -> float:
    """Process start to the probe's ``ready`` line, in seconds."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(PROBE), workload, str(seed)], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def one_pass(wl, threads=None, tracer=None):
    """Time one pass, traced when a tracer is given.

    Returns (seconds, raw result or None, error text).
    """
    wl.prepare()
    gc.collect()  # so no pass pays for garbage an earlier one left
    with tracer.installed() if tracer else nullcontext():
        t0 = perf_counter()
        with tracer.root() if tracer else nullcontext():
            try:
                raw, error = wl.run(threads), None
            except Exception as exc:  # a raising unit is a failed unit, not a crashed run
                raw, error = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
    return dt, raw, error


class Ledger:
    """Attempted and failed units of one run, gated as they arrive."""

    def __init__(self, golden_units: dict | None):
        self.golden = golden_units
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.identical = []
        self.problems = []

    def record(self, wl, raw, error):
        if raw is None:
            expected = len(self.first or self.golden or {}) or 1
            self.attempted += expected
            self.failed += expected
            self.problems.append(f"pass raised {error}")
            return []
        units = wl.check(raw)
        if self.first is None:
            self.first = golden.summaries(units)
        problems, _ = golden.gate(units, self.first, exact_bytes=True)
        if self.golden is not None:
            more, shas = golden.gate(units, self.golden)
            self.identical += shas
            for label, found in more.items():
                problems.setdefault(label, []).extend(found)
        self.attempted += len(problems)
        self.failed += sum(1 for found in problems.values() if found)
        self.problems += [p for found in problems.values() for p in found]
        return units

    def golden_check(self, wl, golden_units):
        """One untimed pass at a golden seed, gated like a timed one."""
        sub = Ledger(golden_units)
        sub.record(wl, *one_pass(wl)[1:])
        self.attempted += sub.attempted
        self.failed += sub.failed
        self.identical += sub.identical
        self.problems += sub.problems


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def measure(wl, ledger, seconds, probe):
    """Rounds of: set-up probe (``probe()``), timed pass."""
    setups, walls, cases = [], [], 0
    start = perf_counter()
    while True:
        round_start = perf_counter()
        setups.append(probe())
        dt, raw, error = one_pass(wl)
        units = ledger.record(wl, raw, error)
        walls.append(dt)
        cases += sum(u.cases for u in units)
        now = perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    setups += [probe() for _ in range(SETUP_PROBES - len(setups))]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # the mean, not the median: the host's speed shifts in stretches of
        # 10-60 s, and a median picks whichever stretch filled most of the run
        "wall_s": (statistics.fmean(walls), "s"),
        "cases_per_s": (cases / sum(walls), "1/s"),
        "peak_rss_mb": (rss_kib * 1024 / 1e6, "MB"),
    }
    info = {"passes": len(walls), "pass_wall_median_s": _median(walls), "pass_walls_s": walls, "setup_samples_s": setups}
    return metrics, info


def measure_traced(wl, ledger, seconds):
    """Rounds of: untraced pass, untraced pass at the other thread count, traced pass."""
    iterations, residuals, report_bytes = [], [], [0]

    def on_minimizer(rep):
        iterations.append(rep.iterations)
        residuals.append(rep.fixed_point_residual)

    def on_dump(text):
        report_bytes[0] += len(text.encode("utf-8"))

    tracer = spans.Tracer(hooks={"entropy_min_mat": on_minimizer, "dumps_json": on_dump})
    before = tracer.bindings()
    # traced code must run on one thread (every workload's default);
    # thread-pool cost shows in cli.threads_speedup
    threads = wl.threads
    plain, traced, at_1, at_2 = [], [], [], []
    cases, passes = 0, 0
    start = perf_counter()
    while True:
        round_start = perf_counter()
        dt, raw, error = one_pass(wl, threads)
        ledger.record(wl, raw, error)
        plain.append(dt)
        if threads is not None:
            at_1.append(wl.thread_time(raw, dt))
            dt2, raw2, error2 = one_pass(wl, 2)
            ledger.record(wl, raw2, error2)
            at_2.append(wl.thread_time(raw2, dt2))

        dt, raw, error = one_pass(wl, threads, tracer)
        traced.append(dt)
        units = ledger.record(wl, raw, error)
        cases += sum(u.cases for u in units)
        passes += 1
        now = perf_counter()
        if now - start + (now - round_start) > seconds:
            break

    restored = tracer.bindings() == before
    metrics = tracer.metrics(passes, cases / passes)
    metrics.update(
        {
            "entropy.solver.iterations_per_call": (statistics.fmean(iterations) if iterations else 0.0, "count"),
            "entropy.solver.max_residual": (max(residuals, default=0.0), "l1"),
            "entropy.oracle.max_dist_over_pitch": (getattr(wl, "max_dist_over_pitch", 0.0), "ratio"),
            "verify.config.report_bytes": (report_bytes[0] / passes, "B"),
            "cli.threads_speedup": (_median(at_1) / _median(at_2) if at_2 else 0.0, "ratio"),
            "trace.overhead_frac": (_median(traced) / _median(plain) - 1.0, "ratio"),
        }
    )
    checks = {"spans_balanced": tracer.balanced(sum(traced)), "bindings_restored": restored}
    return metrics, {"traced_passes": passes, "traced_walls_s": traced, "untraced_walls_s": plain, **checks}, all(checks.values())


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    goldens = golden.load()["workloads"][args.workload]

    ledger = Ledger(goldens.get(str(args.seed)))
    ledger.golden_check(workloads.WORKLOADS[args.workload](golden.DEFAULT_SEED), goldens[str(golden.DEFAULT_SEED)])
    wl = workloads.WORKLOADS[args.workload](args.seed)

    if args.trace:
        metrics, info, trace_ok = measure_traced(wl, ledger, args.seconds)
    else:
        metrics, info = measure(wl, ledger, args.seconds, lambda: setup_time(args.workload, args.seed))
        trace_ok = True
    info.update(
        failed_frac=ledger.failed / ledger.attempted,
        golden_bytes_identical=sum(ledger.identical),
        golden_bytes_compared=len(ledger.identical),
        problems=ledger.problems[:20],
    )
    machine = machine_block(args.workload, args.seed, args.seconds, wl.size)
    correct = ledger.failed == 0 and trace_ok

    workloads.OUT_DIR.mkdir(exist_ok=True)
    record = {"machine": machine, "metrics": metrics, "info": info, "correct": correct}
    path = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("machine " + json.dumps(machine))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    for key in ("failed_frac", "golden_bytes_identical", "golden_bytes_compared"):
        print(f"{key:40s} {info[key]:>16.6g}")
    for problem in ledger.problems[:5]:
        print(f"problem: {problem}")
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

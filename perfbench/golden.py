"""Correctness gate against committed goldens, and golden regeneration.

Gate rule: every non-float value of a unit summary (verdicts, ``cases_run``,
exit codes, bin counts) must equal the golden exactly; every float
(``worst_ratio``, ``recorded`` maxima, modulus envelopes) may drift by at
most 1e-12 relative.  ``sha256*`` fields are byte fingerprints: a mismatch
does not fail the unit (a legitimate last-ulp change moves them) but is
counted, so runs report how many units stayed byte-identical.  The same
comparison with ``exact_bytes=True`` checks that repeated passes over one
input reproduce each other byte for byte.

Regenerate with ``python3 perfbench/golden.py`` from the repository root;
it runs every workload once at the default and the held-out seed.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

REL_DRIFT = 1e-12
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
GOLDEN_PATH = Path(__file__).resolve().parent / "goldens.json"


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _compare(path: str, got, want, problems: list, shas: list, exact_bytes: bool):
    if path.rsplit("/", 1)[-1].startswith("sha256"):
        shas.append(got == want)
        if exact_bytes and got != want:
            problems.append(f"{path}: bytes differ")
    elif isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            problems.append(f"{path}: keys {sorted(got)} != {sorted(want)}")
        for key in sorted(set(got) & set(want)):
            _compare(f"{path}/{key}", got[key], want[key], problems, shas, exact_bytes)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            problems.append(f"{path}: length {len(got)} != {len(want)}")
        for k, (g, w) in enumerate(zip(got, want)):
            _compare(f"{path}/{k}", g, w, problems, shas, exact_bytes)
    elif isinstance(want, float) and isinstance(got, float):
        if not (math.isfinite(got) and abs(got - want) <= REL_DRIFT * max(abs(got), abs(want))):
            problems.append(f"{path}: {got!r} drifts from {want!r}")
    elif type(got) is not type(want) or got != want:
        problems.append(f"{path}: {got!r} != {want!r}")


def gate(units, reference: dict, exact_bytes: bool = False) -> tuple[dict, list[bool]]:
    """Compare unit summaries with ``reference`` (label -> summary).

    Returns the problems of each unit by label, intrinsic ones included,
    with an entry for every reference unit missing from ``units``, and one
    byte-identity flag per fingerprint compared.
    """
    problems, shas = {}, []
    for unit in units:
        found = problems[unit.label] = list(unit.problems)
        if unit.label in reference:
            _compare(unit.label, unit.summary, reference[unit.label], found, shas, exact_bytes)
        else:
            found.append(f"{unit.label}: no golden")
    for label in reference.keys() - problems.keys():
        problems[label] = [f"{label}: missing from the pass"]
    return problems, shas


def summaries(units) -> dict:
    return {u.label: u.summary for u in units}


def main() -> int:
    import env

    env.setup()
    env.require_package()
    import workloads

    out = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    for name, make in workloads.WORKLOADS.items():
        out["workloads"][name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            wl = make(seed)
            wl.prepare()
            units = wl.check(wl.run())
            bad = [p for u in units for p in u.problems]
            if bad:
                print(f"{name} seed {seed}: refusing to record failing units: {bad}", file=sys.stderr)
                return 1
            out["workloads"][name][str(seed)] = summaries(units)
            print(f"{name} seed {seed}: {len(units)} units")
    GOLDEN_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

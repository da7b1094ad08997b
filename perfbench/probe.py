"""Set-up probe: ``python3 perfbench/probe.py <workload> <seed>``.

Pays what a user pays before the first timed call -- interpreter start,
imports, ``SuiteConfig``/``parse_gauge``, one untimed warm-up unit -- then
prints ``ready``.  ``run.py`` times it from process start to that line.
"""

import sys

import env

env.setup()
env.require_package()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).warmup()
print("ready", flush=True)

"""Per-layer tracing of spectral_mazur from outside the package.

A layer is a set of public functions, named after the module that defines
them.  ``Tracer.installed()`` replaces every binding of those functions --
the defining module, every module that did ``from .x import f``, the
package root, the benchmark's ``workloads`` module, and ``numpy.linalg`` --
with a wrapper that records one span per call, and puts every original back
on exit.  Spans are folded into per-layer counters as they close, so memory
grows by one 8-byte duration per call and nothing is written until the run
ends.

Self time of a span is its duration minus the durations of the spans it
caused, so the layers' self times plus the root's self time (benchmark code
outside every layer, reported as ``trace.unattributed_s``) add up to the
root spans' time exactly.  :meth:`Tracer.balanced` checks that, and that
the root spans cover a wall time measured without the tracer.  The stack is
shared, so traced code must run on one thread.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

import workloads

# layer name -> (defining module, public function names); None = every
# function in the module's __all__
LAYERS = {
    "verify.sampling": ("spectral_mazur.verify.sampling", None),
    "linalg": ("numpy.linalg", ("svd", "eigh", "eigvalsh", "qr")),
    "gauge": ("spectral_mazur.gauge", None),
    "matnorm": ("spectral_mazur.matnorm", None),
    "mazur": ("spectral_mazur.mazur", None),
    "entropy.solver": ("spectral_mazur.entropy", ("entropy_min_mat", "entropy_min_general", "entropy_min_seq")),
    "entropy.state": ("spectral_mazur.entropy", ("norming_state", "rel_entropy", "check_state")),
    "entropy.oracle": ("spectral_mazur.entropy", ("entropy_min_bruteforce",)),
    "verify.suites": ("spectral_mazur.verify.suites", ("run_inequality_suite",)),
    "verify.modulus": ("spectral_mazur.verify.modulus", ("estimate_modulus",)),
    "verify.config": ("spectral_mazur.verify.config", ("SuiteReport.to_json", "dumps_json")),
    "cli": ("spectral_mazur.cli", ("main",)),
}

# share of the traced wall time the root spans may miss: the cost of
# entering and leaving one root span per pass
WALL_TOLERANCE = 0.01


class Layer:
    __slots__ = ("calls", "self_ns", "incl_ns", "depth", "durations")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.incl_ns = 0  # outermost calls only, so nested calls are not counted twice
        self.depth = 0
        self.durations = array("q")


def _public_functions(module) -> tuple[str, ...]:
    return tuple(
        name
        for name in module.__all__
        if inspect.isfunction(getattr(module, name)) and not inspect.isgeneratorfunction(getattr(module, name))
    )


def _resolve(module, dotted: str):
    """(owner, attribute) for ``f`` or ``Class.method``."""
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder; wrappers feed ``layers`` while installed.

    ``hooks`` maps a function name to a callable that sees each return
    value, for counters that live in results (solver iterations, report
    bytes).
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.layers = {name: Layer() for name in LAYERS}
        self.root_ns = 0
        self.root_self_ns = 0
        self._stack = [0]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(layer, owner, attr, original) for every defining site."""
        for layer, (modname, names) in LAYERS.items():
            module = sys.modules[modname]
            for dotted in names or _public_functions(module):
                owner, attr = _resolve(module, dotted)
                yield layer, owner, attr, getattr(owner, attr)

    def _wrap(self, layer_name: str, fn):
        layer = self.layers[layer_name]
        stack = self._stack
        hook = self.hooks.get(fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            layer.depth += 1
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                child = stack.pop()
                stack[-1] += dur
                layer.depth -= 1
                if not layer.depth:
                    layer.incl_ns += dur
                layer.self_ns += dur - child
                layer.calls += 1
                layer.durations.append(dur)
            if hook is not None:
                hook(out)
            return out

        return wrapper

    def _binding_modules(self):
        mods = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "spectral_mazur"]
        return mods + [workloads]

    @contextmanager
    def installed(self):
        """Patch every binding of every layer function; restore on exit."""
        wrappers = {}
        try:
            for layer, owner, attr, original in self._targets():
                wrapped = self._wrap(layer, original)
                wrappers[id(original)] = (original, wrapped)
                self._patch(owner, attr, wrapped)
            # modules that imported a layer function by name hold their own
            # reference; rebind those too
            for module in self._binding_modules():
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patch(module, attr, hit[1])
            yield self
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def bindings(self) -> dict:
        """Every function binding the tracer may patch, for identity checks."""
        out = {}
        for layer, owner, attr, value in self._targets():
            out[(id(owner), attr)] = value
        for module in self._binding_modules():
            for attr, value in vars(module).items():
                if callable(value):
                    out[(id(module), attr)] = value
        return out

    # -- root spans -------------------------------------------------------

    @contextmanager
    def root(self):
        """Span around one traced unit of benchmark work."""
        if len(self._stack) != 1:
            raise RuntimeError("root spans do not nest")
        self._stack[0] = 0
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            dur = perf_counter_ns() - t0
            self.root_ns += dur
            self.root_self_ns += dur - self._stack[0]
            self._stack[0] = 0

    # -- summary ----------------------------------------------------------

    def balanced(self, wall_s: float) -> bool:
        """Layer self times plus unattributed time equal the root spans' time,
        and that time is ``wall_s`` -- the traced passes as timed outside the
        tracer -- to within ``WALL_TOLERANCE``.

        The first part fails when a span closes outside every root span, the
        second when traced work runs outside the root spans.
        """
        attributed = sum(layer.self_ns for layer in self.layers.values())
        covered = abs(wall_s - self.root_ns / 1e9) <= WALL_TOLERANCE * wall_s
        return attributed + self.root_self_ns == self.root_ns and len(self._stack) == 1 and covered

    def metrics(self, passes: int, cases_per_pass: float) -> dict[str, tuple[float, str]]:
        """Per-layer table, normalised per traced pass."""
        out: dict[str, tuple[float, str]] = {}
        wall = self.root_ns
        for name, layer in self.layers.items():
            if layer.calls:
                p50, p90 = np.percentile(np.frombuffer(layer.durations, dtype=np.int64), [50, 90]) / 1e3
            else:
                p50 = p90 = 0.0
            out[f"{name}.calls"] = (layer.calls / passes, "count")
            out[f"{name}.self_s"] = (layer.self_ns / 1e9 / passes, "s")
            out[f"{name}.share"] = (layer.self_ns / wall if wall else 0.0, "ratio")
            out[f"{name}.incl_share"] = (layer.incl_ns / wall if wall else 0.0, "ratio")
            out[f"{name}.call_p50_us"] = (float(p50), "us")
            out[f"{name}.call_p90_us"] = (float(p90), "us")
        for name in ("linalg", "gauge"):
            calls = self.layers[name].calls / passes
            out[f"{name}.calls_per_case"] = (calls / cases_per_pass if cases_per_pass else 0.0, "calls/case")
        out["trace.unattributed_s"] = (self.root_self_ns / 1e9 / passes, "s")
        return out

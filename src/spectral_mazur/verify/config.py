"""Configuration and report types for the verification harness.

Everything here serializes to JSON deterministically: field order is fixed,
floats are written in shortest round-trip form, and no timing or
machine-dependent data enters a report.  Identical configurations therefore
produce byte-identical reports, independent of thread count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from ..errors import ConfigError, DimensionTooLarge
from ..gauge import Gauge, parse_gauge

__all__ = [
    "DEFAULT_DIMS",
    "DEFAULT_GAUGES",
    "DEFAULT_P_GRID",
    "SuiteConfig",
    "Violation",
    "SuiteReport",
    "dumps_json",
]

DEFAULT_DIMS = (2, 3, 5, 8, 16)
DEFAULT_GAUGES = (
    "lp:1",
    "lp:1.5",
    "lp:2",
    "lp:4",
    "kyfan:1",
    "kyfan:2",
    "conv:2:lp:1",
    "conv:3:lp:2",
)
DEFAULT_P_GRID = (1.0, 1.5, 2.0, 3.0, 4.0, 5.0)
MAX_DIM = 64


def _checked(name: str, value, types):
    """``value`` when it is an instance of ``types`` and not a bool."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"bad {name}: {value!r}")
    return value


def _refuse_repeats(name: str, entries: tuple) -> None:
    """Refuse the first entry of ``entries`` that repeats an earlier one."""
    seen = set()
    for x in entries:
        if x in seen:
            raise ConfigError(f"{name} entries must be distinct, got {x!r} twice")
        seen.add(x)


def _float(value) -> float:
    """``value`` as a float; an integer beyond float range becomes the
    infinity of its sign, which the finiteness checks refuse."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def dumps_json(obj) -> str:
    """Canonical JSON used for every artifact the package writes."""
    return json.dumps(obj, ensure_ascii=False, allow_nan=False, indent=2) + "\n"


def _fields_json(obj) -> dict:
    """A dataclass's fields by name, in declaration order.  Shallow: values
    are the instance's own objects, and tuples serialize as JSON lists."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@dataclass(frozen=True)
class SuiteConfig:
    """Shared knobs for all suites.

    ``samples_per_case`` counts independent random draws per (suite, dim);
    each draw is evaluated against every applicable gauge / exponent
    combination.  Thread count is deliberately *not* part of the
    configuration: it must never influence results.
    """

    seed: int = 1
    dims: tuple[int, ...] = DEFAULT_DIMS
    samples_per_case: int = 500
    gauges: tuple[str, ...] = DEFAULT_GAUGES
    p_grid: tuple[float, ...] = DEFAULT_P_GRID
    rel_tol: float = 1e-9
    abs_tol: float = 1e-10

    def __post_init__(self):
        # types are checked, never coerced: int() would run dims 2.7 as 2,
        # and bools are ints to isinstance
        for name, types in (("seed", int), ("samples_per_case", int), ("rel_tol", (int, float)), ("abs_tol", (int, float))):
            _checked(name, getattr(self, name), types)
        for name, types in (("dims", int), ("gauges", str), ("p_grid", (int, float))):
            entries = _checked(name, getattr(self, name), (list, tuple))
            object.__setattr__(self, name, tuple(_checked(f"{name} entry", x, types) for x in entries))
        object.__setattr__(self, "p_grid", tuple(map(_float, self.p_grid)))
        # the sampler keys on one 32-bit word of the seed, so a wider seed
        # would draw the samples of another while its report named its own
        if not 0 <= self.seed < 2**32:
            raise ConfigError(f"seed must satisfy 0 <= seed < 2**32, got {self.seed}")
        if not self.dims:
            raise ConfigError("dims must be nonempty")
        for d in self.dims:
            if d < 1:
                raise ConfigError(f"dims entries must be >= 1, got {d}")
            if d > MAX_DIM:
                raise DimensionTooLarge(f"dims entries must be <= {MAX_DIM}, got {d}")
        # likewise one word of the sample index: samples i and i + 2**32
        # would draw the same stream
        if not 1 <= self.samples_per_case <= 2**32:
            raise ConfigError("samples_per_case must satisfy 1 <= samples_per_case <= 2**32")
        if not self.gauges:
            raise ConfigError("gauges must be nonempty")
        # a gauge that cannot be read is refused before any suite runs; the
        # parsed gauges are kept outside the fields, so equality, hash and
        # JSON ignore them, and every block shares them
        object.__setattr__(self, "_parsed_gauges", tuple((s, parse_gauge(s)) for s in self.gauges))
        # non-finite values cannot be written into a report
        for p in self.p_grid:
            if not 1.0 <= p < math.inf:
                raise ConfigError(f"p_grid entries must be finite and >= 1, got {p}")
        if not (0.0 <= _float(self.rel_tol) < math.inf and 0.0 <= _float(self.abs_tol) < math.inf):
            raise ConfigError("tolerances must be finite and nonnegative")
        # samples are keyed (seed, suite, n, index), so a repeated entry would
        # run the same cases twice and count them twice; p_grid entries
        # compare as floats, so 2 and 2.0 repeat, while distinct descriptors
        # of one gauge (lp:2, conv:2:lp:1) carry distinct labels and stay
        for name in ("dims", "gauges", "p_grid"):
            _refuse_repeats(name, getattr(self, name))

    def parsed_gauges(self) -> tuple[tuple[str, Gauge], ...]:
        """``(descriptor, gauge)`` for each of ``gauges``, parsed once."""
        return self._parsed_gauges

    def to_json(self) -> dict:
        return _fields_json(self)

    @classmethod
    def from_json(cls, obj: dict) -> "SuiteConfig":
        if not isinstance(obj, dict):
            raise ConfigError(f"suite config must be an object, got {type(obj).__name__}")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**obj)
        except TypeError as exc:
            raise ConfigError(f"bad suite config: {exc}") from exc


@dataclass(frozen=True)
class Violation:
    """One failed inequality instance, with enough payload to replay it."""

    case: str
    lhs: float
    rhs: float
    ratio: float
    payload: dict

    def to_json(self) -> dict:
        return _fields_json(self)


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one suite run.

    ``worst_ratio`` is the maximum of lhs/rhs over all cases whose rhs
    exceeds the absolute tolerance (guarding 0/0 equality cases).  A passing
    suite has no violations, so each case has ``lhs <= rhs (1 + rel_tol) +
    abs_tol`` and a ratio of at most ``1 + rel_tol + abs_tol / rhs``, which
    nears ``2 + rel_tol`` as ``rhs`` falls to ``abs_tol``.
    ``recorded`` holds diagnostic maxima that are tracked but not asserted.
    """

    suite_name: str
    config: SuiteConfig
    cases_run: int
    violations: tuple[Violation, ...]
    worst_ratio: float
    passed: bool
    recorded: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "recorded", dict(sorted(self.recorded.items())))

    def to_json(self) -> dict:
        return {
            **_fields_json(self),
            "config": self.config.to_json(),
            "violations": [v.to_json() for v in self.violations],
        }
